/// \file service_workload.cpp
/// \brief The `service` workload: one closed-loop client driving
/// `service::Server::handle` with encoded frames.
///
/// The client's script is generated from the seed and fixed for the run: new
/// circuits (the shrink-4 Table-I suite and 250-gate random networks), byte-
/// identical replays of earlier requests, and single-gate AND<->OR edits
/// inside ECO sessions, one session per circuit, so the server's session
/// table grows to kSessions within a pass. There are more distinct stateless
/// circuits than warm cache entries, so replays meet both hits and evictions.
/// Each pass replays the script against a freshly constructed server, so
/// every pass starts from the same state and its answers must repeat exactly.
/// Latency is grouped by what the client sent (new / replay / edit), not by
/// the tier that served it.

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <sstream>

#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "harness.hpp"
#include "network/io.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/canonical.hpp"
#include "service/netdiff.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

using namespace t1sfq;

// The mix follows the shape of the workload's definition (many sessions,
// more stateless circuits than cache slots); the counts are chosen, not
// measured daemon traffic (perfbench/README.md, "service").
constexpr std::size_t kCacheEntries = 8;  // below the 12 stateless circuits
constexpr unsigned kSessions = 16;
constexpr unsigned kStatelessRandom = 4;
constexpr unsigned kRandomGates = 250;
constexpr unsigned kEdits = 32;
constexpr unsigned kReplays = 80;
constexpr uint64_t kScriptSeed = 1;

enum class Kind { New, Replay, Edit };
const char* const kKindNames[] = {"new", "replay", "edit"};

/// One distinct request the client can send.
struct Submission {
  FlowRequest request;
  std::string payload;  ///< encoded frame body
  /// The network handle() works on: the payload's network as parsed back
  /// from the wire, cleaned up. The shadow calls take this one.
  Network wire;
};

struct Step {
  Kind kind;
  std::size_t sub;
};

struct Script {
  std::vector<Submission> subs;
  std::vector<Step> steps;
};

/// Copy of \p net with its AND2/OR2 gate \p id swapped for the dual gate.
Network flip_gate(const Network& net_in, NodeId id) {
  Network net = net_in;
  const Node n = net.node(id);  // copy: add_raw_gate reallocates
  const GateType dual = n.type == GateType::And2 ? GateType::Or2 : GateType::And2;
  net.substitute(id, net.add_raw_gate(dual, {n.fanin(0), n.fanin(1)}));
  net.mark_dead(id);
  return net;
}

std::size_t add_submission(Script& s, FlowRequest req) {
  Submission sub;
  sub.payload = service::encode_flow_request(req);
  sub.wire = service::parse_request(sub.payload).flow.network.cleanup();
  sub.request = std::move(req);
  s.subs.push_back(std::move(sub));
  return s.subs.size() - 1;
}

/// A new circuit, renumbered by the workload seed, with the AND2/OR2 gates of
/// the circuit as generated (edit victims) and where renumbering put them.
struct Fresh {
  FlowRequest request;
  std::vector<NodeId> and_or;
  std::vector<NodeId> old_to_new;
};

/// The script's structure — send order, replay picks, edit victims — is
/// fixed; the seed renumbers the gates of every circuit, as in the flow
/// workloads. Fresh circuits or edit sites per seed would make the work vary
/// by seed: whether an edit is served ECO or cold moves a run by 30%.
Script make_script(uint64_t seed) {
  std::mt19937_64 rng(kScriptSeed);
  std::vector<Network> nets;
  std::vector<std::string> session_of;  // ECO session per circuit ("" = stateless)
  for (const auto& c : bench::make_suite_scaled(4)) {
    nets.push_back(c.generate());
    nets.back().set_name(c.name);
    session_of.emplace_back();
  }
  for (unsigned k = 0; k < kSessions + kStatelessRandom; ++k) {
    nets.push_back(bench::random_network(derive_seed(kScriptSeed, k), 64, kRandomGates,
                                         bench::RandomPoPolicy::AllSinks,
                                         /*plant_cone_every=*/200));
    nets.back().set_name("rand" + std::to_string(kRandomGates) + "-" + std::to_string(k));
    session_of.push_back(k < kSessions ? nets.back().name() : std::string());
  }
  std::vector<Fresh> fresh(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Network& net = nets[i];
    for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id) {
      const Node& n = net.node(id);
      if (!n.dead && (n.type == GateType::And2 || n.type == GateType::Or2)) {
        fresh[i].and_or.push_back(id);
      }
    }
    FlowRequest::Builder b(relabel(net, derive_seed(seed, i), &fresh[i].old_to_new));
    fresh[i].request = b.circuit(net.name()).session(session_of[i]).build();
  }
  std::vector<std::size_t> order(fresh.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  Script s;
  std::vector<std::size_t> sent;  // submissions sent so far
  struct Session {
    std::size_t latest;  ///< submission the session holds now
    std::size_t fresh;   ///< its circuit
    std::set<NodeId> edited;
  };
  std::map<std::string, Session> sessions;
  std::size_t next_new = 0;
  unsigned edits = 0, replays = 0;
  while (next_new < order.size() || edits < kEdits || replays < kReplays) {
    const double w_new = static_cast<double>(order.size() - next_new);
    const double w_edit = sessions.empty() ? 0.0 : static_cast<double>(kEdits - edits);
    const double w_replay = sent.empty() ? 0.0 : static_cast<double>(kReplays - replays);
    std::discrete_distribution<int> pick({w_new, w_replay, w_edit});  // Kind order
    const Kind kind = static_cast<Kind>(pick(rng));
    std::size_t sub = 0;
    if (kind == Kind::New) {
      const std::size_t f = order[next_new++];
      const std::string session = fresh[f].request.session;
      sub = add_submission(s, std::move(fresh[f].request));
      if (!session.empty()) sessions[session] = {sub, f, {}};
    } else if (kind == Kind::Edit) {
      auto it = sessions.begin();
      std::advance(it, static_cast<long>(rng() % sessions.size()));
      Session& ses = it->second;
      const Fresh& f = fresh[ses.fresh];
      NodeId victim = f.and_or[rng() % f.and_or.size()];
      while (!ses.edited.insert(victim).second) victim = f.and_or[rng() % f.and_or.size()];
      const FlowRequest& base = s.subs[ses.latest].request;
      FlowRequest req = FlowRequest::Builder(flip_gate(base.network, f.old_to_new[victim]))
                            .circuit(base.circuit)
                            .session(it->first)
                            .build();
      sub = add_submission(s, std::move(req));
      ses.latest = sub;
      ++edits;
    } else {
      sub = sent[rng() % sent.size()];
      // A replayed session request becomes that session's state on the
      // server, so the session's next edit is made on it.
      const auto it = sessions.find(s.subs[sub].request.session);
      if (it != sessions.end()) it->second.latest = sub;
      ++replays;
    }
    sent.push_back(sub);
    s.steps.push_back({kind, sub});
  }
  return s;
}

struct Answer {
  bool ok = false;
  FlowTier tier = FlowTier::Cold;
  uint64_t area_jj = 0;
  std::size_t dffs = 0;
  Stage depth_cycles = 0;
  bool operator==(const Answer&) const = default;
};

Answer answer_of(const FlowResponse& r) {
  return {r.ok, r.tier, r.metrics.area_jj, r.metrics.num_dffs, r.metrics.depth_cycles};
}

service::ServerConfig server_config() {
  service::ServerConfig cfg;
  cfg.disk_cache = false;  // no disk tier: a previous run's blobs cannot warm "new" requests
  cfg.cache_entries = kCacheEntries;
  return cfg;
}

}  // namespace

bool run_service_workload(const Options& opt, RunResult& out) {
  if (opt.workload != "service") return false;
  const Script script = make_script(opt.seed);
  std::unique_ptr<service::Server> server = std::make_unique<service::Server>(server_config());
  out.set("setup_s", seconds_since_start(), "s");
  if (opt.setup_only) return true;

  std::size_t kind_count[3] = {0, 0, 0};
  for (const Step& st : script.steps) ++kind_count[static_cast<int>(st.kind)];
  {
    std::ostringstream ss;
    ss << "workload service, seed " << opt.seed << ": closed loop, 1 client, "
       << script.steps.size() << " requests per pass (" << kind_count[0] << " new, "
       << kind_count[1] << " replay, " << kind_count[2] << " edit), " << script.subs.size()
       << " distinct, cache_entries " << kCacheEntries << ", " << kSessions
       << " sessions, disk tier off";
    out.notes.push_back(ss.str());
    out.notes.push_back("  config: " + script.subs.front().request.config_signature());
  }

  std::vector<Answer> reference(script.steps.size());
  std::vector<bool> answered(script.steps.size(), false);
  BestTimes best(script.steps.size());
  std::vector<double> untraced_pass_ms;
  std::vector<double> traced_pass_ms;
  std::vector<double> layers_ms;  // traced: the layers' summed time per pass
  std::vector<std::map<std::string, double>> traced_layers;
  std::map<std::string, int64_t> first_counters;
  std::size_t sessions_held = 0;
  std::size_t inserted_dffs = 0;  // traced: DFFs inserted by the flows of one pass
  const Clock::time_point start = Clock::now();
  bool traced = false;
  for (int pass = 0; next_pass(opt, pass, start, traced); ++pass) {
    if (pass > 0) server = std::make_unique<service::Server>(server_config());

    BusyTimes busy;
    std::map<std::string, double> layers;
    std::map<std::string, const Network*> session_base;  // traced: netdiff base
    if (traced) {
      inserted_dffs = 0;
      obs::Registry::instance().reset();
      obs::clear_trace();
      obs::set_enabled(true);
    }
    double pass_ms = 0;
    for (std::size_t i = 0; i < script.steps.size(); ++i) {
      const Step& st = script.steps[i];
      const Submission& sub = script.subs[st.sub];
      ++out.attempted;
      FlowResponse resp;
      try {
        if (!traced) {
          const Clock::time_point t0 = Clock::now();
          const std::string reply = server->handle(sub.payload);
          const double ms = ms_since(t0);
          pass_ms += ms;
          best.add(i, ms);
          resp = service::parse_response(reply);
        } else {
          {
            BusyTimes::Scope req(busy, "request");
            std::string payload, reply;
            {
              BusyTimes::Scope s(busy, "encode_flow_request");
              payload = service::encode_flow_request(sub.request);
            }
            {
              BusyTimes::Scope s(busy, "handle");
              reply = server->handle(payload);
            }
            BusyTimes::Scope s(busy, "parse_response");
            resp = service::parse_response(reply);
          }
          // Shadow calls: the layer functions handle() runs internally,
          // repeated on the same input to time them (outside "request").
          {
            BusyTimes::Scope s(busy, "parse_request");
            service::parse_request(sub.payload);
          }
          {
            BusyTimes::Scope s(busy, "exact_signature");
            service::exact_signature(sub.wire);
          }
          // The session diffs an edit against its base network (the one it
          // last served); an unchanged resubmission is served without a diff.
          const std::string& session = sub.request.session;
          if (!session.empty()) {
            const auto it = session_base.find(session);
            if (it != session_base.end() && it->second != &sub.wire) {
              BusyTimes::Scope s(busy, "diff_networks");
              service::diff_networks(*it->second, sub.wire);
            }
            session_base[session] = &sub.wire;
          }
          // Layers inside handle(): the stage timings of every flow that
          // ran (cold and ECO; a warm hit repeats a stored response).
          if (resp.ok && resp.tier != FlowTier::Warm) {
            add_stage_times(resp.timings, layers);
            layers["service.flow.ms"] += resp.timings.total_ms;
            inserted_dffs += resp.metrics.num_dffs;
            if (resp.tier == FlowTier::Eco) layers["service.eco.ms"] += resp.timings.total_ms;
          }
        }
      } catch (const std::exception& e) {
        out.fail("request " + std::to_string(i) + ": " + e.what());
        continue;
      }
      const Answer a = answer_of(resp);
      if (!a.ok) {
        out.fail("request " + std::to_string(i) + " (" + sub.request.circuit +
                 "): error response: " + resp.message);
      } else if (!answered[i]) {
        reference[i] = a;
        answered[i] = true;
      } else if (!(reference[i] == a)) {
        out.fail("request " + std::to_string(i) + " (" + sub.request.circuit +
                 "): answer differs between passes");
      }
    }
    sessions_held = server->stats().sessions;
    if (!traced) {
      untraced_pass_ms.push_back(pass_ms);
      continue;
    }
    obs::set_enabled(false);
    traced_pass_ms.push_back(busy.ms("request"));
    layers["protocol.encode.ms"] = busy.ms("encode_flow_request");
    layers["protocol.parse.ms"] = busy.ms("parse_request") + busy.ms("parse_response");
    layers["canonical.ms"] = busy.ms("exact_signature");
    layers["netdiff.ms"] = busy.ms("diff_networks");
    layers["service.handle.ms"] = busy.ms("handle");
    layers_ms.push_back(layers["protocol.encode.ms"] + layers["protocol.parse.ms"] +
                        layers["canonical.ms"] + layers["netdiff.ms"] + layers["service.flow.ms"]);
    traced_layers.push_back(std::move(layers));
    const std::map<std::string, int64_t> counters = program_counters();
    if (first_counters.empty()) {
      first_counters = counters;
    } else if (counters != first_counters) {
      out.fail("program work counters differ between traced passes");
    }
  }

  // Correctness, untimed: one more pass on a fresh server asking for the
  // physical netlist; each distinct answer must repeat the timed passes and
  // simulate equal to the submitted network.
  server = std::make_unique<service::Server>(server_config());
  std::vector<bool> verified(script.subs.size(), false);
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const Step& st = script.steps[i];
    const Submission& sub = script.subs[st.sub];
    try {
      FlowRequest req = sub.request;
      req.return_netlist = true;
      const FlowResponse resp =
          service::parse_response(server->handle(service::encode_flow_request(req)));
      if (answered[i] && !(answer_of(resp) == reference[i])) {
        out.fail("request " + std::to_string(i) + " (" + sub.request.circuit +
                 "): verification answer differs from the timed passes");
        continue;
      }
      if (!resp.ok || verified[st.sub]) continue;
      verified[st.sub] = true;
      std::istringstream blif(resp.netlist_blif);
      const Network phys = read_blif(blif);
      if (phys.num_pis() != sub.request.network.num_pis() ||
          phys.num_pos() != sub.request.network.num_pos() ||
          !random_simulation_equal(phys, sub.request.network, 4, opt.seed)) {
        out.fail("request " + std::to_string(i) + " (" + sub.request.circuit +
                 "): physical netlist differs from the submitted network");
      }
    } catch (const std::exception& e) {
      out.fail("verification of request " + std::to_string(i) + ": " + e.what());
    }
  }

  // Quality: every distinct submission's answer, counted once.
  uint64_t area = 0, dffs = 0, depth = 0;
  std::size_t replay_warm = 0, edit_eco = 0;
  std::vector<bool> counted(script.subs.size(), false);
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const Step& st = script.steps[i];
    if (!answered[i]) continue;
    if (st.kind == Kind::Replay && reference[i].tier == FlowTier::Warm) ++replay_warm;
    if (st.kind == Kind::Edit && reference[i].tier == FlowTier::Eco) ++edit_eco;
    if (counted[st.sub]) continue;
    counted[st.sub] = true;
    area += reference[i].area_jj;
    dffs += reference[i].dffs;
    depth += reference[i].depth_cycles;
  }

  // Latency by what the client sent, each request at its fastest repetition.
  std::vector<double> by_kind_ms[3];
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const double ms = best.per_op()[i];
    if (std::isfinite(ms)) by_kind_ms[static_cast<int>(script.steps[i].kind)].push_back(ms);
  }
  LatencySummary by_kind[3];
  for (int k = 0; k < 3; ++k) {
    by_kind[k] = summarize_latency(by_kind_ms[k]);
    std::ostringstream ss;
    ss << "  " << kKindNames[k] << ": p50 " << by_kind[k].p50 << " ms, tail = p"
       << by_kind[k].tail_pct << " " << by_kind[k].tail << " ms over " << by_kind[k].samples
       << " requests";
    out.notes.push_back(ss.str());
  }
  {
    std::ostringstream ss;
    ss << "passes: " << untraced_pass_ms.size() << " untraced, " << traced_pass_ms.size()
       << " traced; replays served warm " << replay_warm << "/" << kind_count[1]
       << ", edits served eco " << edit_eco << "/" << kind_count[2];
    out.notes.push_back(ss.str());
  }

  if (!opt.trace) {
    best.report(out, "request");
    out.set("area_jj", static_cast<double>(area), "JJ");
    out.set("dffs", static_cast<double>(dffs), "count");
    out.set("depth_cycles", static_cast<double>(depth), "cycles");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return true;
  }

  // Medians over traced passes of per-pass busy time.
  const auto layer = [&](const std::string& name) {
    std::vector<double> v;
    for (auto& l : traced_layers) v.push_back(l[name]);
    return median(v);
  };
  for (const auto& [name, v] : traced_layers.front()) out.set(name, layer(name), "ms");
  out.set("service.sessions", static_cast<double>(sessions_held), "count");
  out.set("insert.ns_per_dff",
          ratio(layer("insert.ms") * 1e6, static_cast<double>(inserted_dffs)), "ns");
  report_counters(first_counters, out);
  out.set("service.replay_hit_ratio",
          ratio(static_cast<double>(replay_warm), static_cast<double>(kind_count[1])), "ratio");
  out.set("service.edit_eco_ratio",
          ratio(static_cast<double>(edit_eco), static_cast<double>(kind_count[2])), "ratio");
  for (int k = 0; k < 3; ++k) {
    out.set(std::string("service.") + kKindNames[k] + ".p50_ms", by_kind[k].p50, "ms");
    out.set(std::string("service.") + kKindNames[k] + ".tail_ms", by_kind[k].tail, "ms");
  }
  const double traced_suite = median(traced_pass_ms);
  out.set("trace.layers_ms", median(layers_ms), "ms");
  out.set("trace.unattributed_ms", traced_suite - median(layers_ms), "ms");
  out.set("trace.overhead_ms", traced_suite - median(untraced_pass_ms), "ms");
  return true;
}

}  // namespace perfbench
