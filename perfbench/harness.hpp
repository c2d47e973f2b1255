#pragma once
/// \file harness.hpp
/// \brief Shared plumbing of the t1sfq benchmark: run options, the result
/// accumulator every workload fills, latency statistics, busy-time timers,
/// and the correctness check of physical netlists.
///
/// The benchmark measures the library from outside: it calls the public entry
/// points (`run_flow(FlowRequest)`, `run_flow(Network, FlowParams)`,
/// `service::Server::handle`) and splits their time by layer with what the
/// program already reports — the per-stage `FlowTimings` of every flow, its
/// obs counters and spans — plus its own timers around the service's client
/// calls. Nothing under src/ is instrumented for it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "network/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

/// Median with linear interpolation (0 for an empty sample).
double median(std::vector<double> v);
/// Percentile \p q in [0, 1] with linear interpolation between ranks.
double percentile(std::vector<double> v, double q);

/// A latency summary: the median and the tail, where the tail is the highest
/// percentile of {50, 75, 90, 95, 99, 99.9} that still has at least ten
/// samples beyond it (the median when the sample is too small for any).
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
  std::size_t samples = 0;
};
LatencySummary summarize_latency(const std::vector<double>& ms);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main: the counts for the result line,
/// the metrics of the selected mode, and human-readable report lines.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;  ///< in report order
  std::vector<std::string> notes;                       ///< printed before the result

  void set(const std::string& name, double value, const std::string& unit);
  /// Records one failed operation with its reason (kept in the report).
  void fail(const std::string& why);
};

/// Busy time per name, accumulated by scoped timers.
class BusyTimes {
 public:
  class Scope {
   public:
    Scope(BusyTimes& times, const char* name)
        : times_(times), name_(name), start_(Clock::now()) {}
    ~Scope() { times_.ms_[name_] += ms_since(start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BusyTimes& times_;
    const char* name_;
    Clock::time_point start_;
  };

  /// Total time spent in scopes named \p name, in milliseconds.
  double ms(const std::string& name) const {
    const auto it = ms_.find(name);
    return it == ms_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ms_;
};

/// Reference function over the network's PI order (Table-I generators).
using Reference = std::function<std::vector<bool>(const std::vector<bool>&)>;

/// Pulse-simulates \p vectors random input waves through the scheduled
/// physical netlist and compares every primary output with \p ref, or — when
/// \p ref is empty — with word-parallel simulation of \p input. Returns an
/// empty string when the netlist is timing-legal and functionally correct,
/// otherwise the reason.
std::string check_physical(const t1sfq::PhysicalNetlist& phys,
                           const t1sfq::MultiphaseConfig& clk, const t1sfq::Network& input,
                           const Reference& ref, unsigned vectors, uint64_t seed);

/// Isomorphic copy of \p net whose gates are numbered in a random topological
/// order drawn from \p seed; inputs, outputs and their order are kept, so
/// reference models still apply. \p old_to_new, when given, receives the node id map.
t1sfq::Network relabel(const t1sfq::Network& net, uint64_t seed,
                       std::vector<t1sfq::NodeId>* old_to_new = nullptr);

/// splitmix64 mix of (\p seed, \p k): independent seeds per input.
uint64_t derive_seed(uint64_t seed, uint64_t k);

/// Configuration string derived from the params that run (never hand-typed).
std::string describe(const t1sfq::FlowParams& p);

/// Program counters (counters and gauges of the obs registry) keyed by name.
std::map<std::string, int64_t> program_counters();

/// Sum of durations of the program's own spans named \p name, in ms.
double program_span_ms(const std::string& name);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Pass schedule of every workload: another pass starts while one more pass
/// of the run's average pass time still ends within `opt.seconds`, so a run
/// never overshoots by a whole pass; at least one pass. The traced run goes untraced, traced, traced, then
/// alternates, so it always has an untraced pass to take the tracing overhead
/// against and two traced ones whose work counters must agree. Returns false
/// once the run is over; sets \p traced for the pass about to start.
bool next_pass(const Options& opt, int pass, Clock::time_point start, bool& traced);

/// Ratio that reads 0 when the denominator is 0.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Fastest repetition of each operation across a run's untraced passes. On a
/// shared host interference only ever adds time, and the operations are
/// deterministic, so the fastest repetition is the steadiest estimate of an
/// operation's cost: over eight 5-pass runs of `paper` on a noisy host, the
/// median pass time ranged over 22%, the sum of per-operation minima over 9%.
class BestTimes {
 public:
  explicit BestTimes(std::size_t ops);
  void add(std::size_t op, double ms);
  /// Best time per operation; infinity for one that never completed.
  const std::vector<double>& per_op() const { return best_; }
  /// Sets suite_s, p50_ms, tail_ms and ops_per_s and notes the percentile.
  void report(RunResult& out, const std::string& what) const;

 private:
  std::vector<double> best_;
};

/// Per-layer metrics of the flow stages, in run_flow's order.
inline constexpr const char* kStageLayers[] = {"cleanup.ms", "opt.ms", "detect.ms", "assign.ms",
                                               "insert.ms"};

/// Adds one flow's stage timings to \p layer_ms under the kStageLayers names.
void add_stage_times(const t1sfq::FlowTimings& t, std::map<std::string, double>& layer_ms);

/// Sets the per-layer counter metrics from one traced pass's program
/// counters (a counter the pass never touched reads 0), with their ratios.
void report_counters(const std::map<std::string, int64_t>& counters, RunResult& out);

// Workloads (flow_workloads.cpp, service_workload.cpp). Each returns false
// when the workload name is not theirs.
bool run_flow_workload(const Options& opt, RunResult& out);
bool run_service_workload(const Options& opt, RunResult& out);

/// Seconds since the process entered main (set by main).
double seconds_since_start();

}  // namespace perfbench
