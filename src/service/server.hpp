#pragma once
/// \file server.hpp
/// \brief The synthesis service: request dispatch, result cache, sessions.
///
/// `Server` is transport-agnostic: `handle()` maps one request payload to one
/// response payload (both plain JSON strings, framing handled by the caller),
/// and `serve()` runs the frame loop over any iostream pair — the stdio mode
/// tests and CI use, and the per-connection loop of the unix-socket daemon
/// (tools/t1sfqd.cpp). It never throws out of a request: every failure is
/// encoded as a structured error response.
///
/// Three serving tiers per flow request (obs counters in parentheses):
///
///   * **warm** (`service.cache.warm`) — the FNV-1a key over the exact
///     cleaned-netlist state + the config signature hits the result cache;
///     the stored response is served without running anything. The cache is
///     an in-memory LRU layered over the versioned on-disk blob store
///     (cost/disk_cache.hpp), so warm hits survive daemon restarts; blobs
///     that fail validation count `service.cache.corrupt` and miss.
///   * **eco** (`service.cache.eco`) — the request names a session and the
///     edit is eligible: incremental re-synthesis (service/session.hpp).
///   * **cold** (`service.cache.cold`) — everything else: full flow.
///
/// Batch requests fan their jobs over the shared ordered runner
/// (benchmarks/runner.hpp) whose nested-pool guard keeps a daemon serving
/// from inside a bench job well-behaved. Per-tier latency lands in
/// `service.latency.{cold,warm,eco}` histograms; `service.requests` and
/// `service.errors` count traffic. The session table is an LRU bounded by
/// `ServerConfig::max_sessions`.

#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/protocol.hpp"
#include "service/session.hpp"

namespace t1sfq::service {

struct ServerConfig {
  SessionConfig session{};   ///< ECO eligibility / verification knobs
  std::size_t cache_entries = 128;  ///< in-memory warm-cache capacity (0: off)
  /// Layer the warm cache over the on-disk blob store. Uses the same
  /// directory resolution as every other cache (`$T1SFQ_CACHE_DIR`, ...).
  bool disk_cache = true;
  unsigned batch_threads = 0;  ///< batch parallelism (0 = hardware)
  /// Record obs metrics for every request (otherwise only requests asking
  /// `observe` are recorded, and only for their own duration).
  bool observe = false;
  /// Session-table capacity (at least 1): opening a session past it evicts
  /// the least recently served one (`service.sessions.evicted`), whose next
  /// request re-establishes cold. Each session holds a mapped network, its
  /// view and schedule trace, so this bounds a long-lived daemon's memory.
  std::size_t max_sessions = 256;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// One request payload → one response payload. Thread-safe; never throws.
  std::string handle(const std::string& payload);

  /// Frame loop: reads length-prefixed requests from \p in, writes responses
  /// to \p out, until clean EOF, a broken stream, or a `shutdown` request
  /// (answered before stopping). Returns the number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Typed flow entry (bench/tests bypassing JSON): same dispatch, cache and
  /// sessions as the wire path.
  FlowResponse dispatch(const FlowRequest& request);

  struct Stats {
    uint64_t requests = 0;
    uint64_t cold = 0;
    uint64_t warm = 0;
    uint64_t eco = 0;
    uint64_t eco_fallbacks = 0;
    uint64_t eco_mismatches = 0;
    uint64_t errors = 0;
    std::size_t sessions = 0;
    uint64_t sessions_evicted = 0;
  };
  Stats stats() const;

  /// True once a `shutdown` request was handled (daemon loop exit signal).
  bool shutdown_requested() const;

 private:
  std::string handle_op_(const Request& req);
  FlowResponse cached_flow_(const FlowRequest& request);
  bool cache_get_(uint64_t key, FlowResponse& resp);
  void cache_put_(uint64_t key, const FlowResponse& resp);
  std::string disk_path_(uint64_t key) const;

  ServerConfig cfg_;
  mutable std::mutex mu_;  ///< guards cache + session map + stats (not flows)
  Stats stats_;
  bool shutdown_ = false;

  // In-memory warm cache: key → encoded response, LRU eviction.
  std::list<uint64_t> lru_;
  std::map<uint64_t, std::pair<std::string, std::list<uint64_t>::iterator>> cache_;

  // Session table: id → session, LRU eviction past cfg_.max_sessions. Held
  // by shared_ptr so an evicted session finishes a serve already under way.
  std::list<std::string> session_lru_;
  std::map<std::string, std::pair<std::shared_ptr<EcoSession>, std::list<std::string>::iterator>>
      sessions_;
  std::string disk_dir_;  ///< resolved blob directory ("" = disabled)
};

}  // namespace t1sfq::service
