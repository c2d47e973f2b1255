#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "network/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sfq/pulse_sim.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

LatencySummary summarize_latency(const std::vector<double>& ms) {
  LatencySummary s;
  s.samples = ms.size();
  s.p50 = percentile(ms, 0.5);
  s.tail = s.p50;
  for (const double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(ms.size()) * (1.0 - pct / 100.0);
    if (beyond < 10.0) break;
    s.tail_pct = pct;
    s.tail = percentile(ms, pct / 100.0);
  }
  return s;
}

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void RunResult::fail(const std::string& why) {
  ++failed;
  notes.push_back("FAILED: " + why);
}

bool next_pass(const Options& opt, int pass, Clock::time_point start, bool& traced) {
  const int min_passes = opt.trace ? 3 : 1;
  const double elapsed_s = ms_since(start) / 1000.0;
  if (pass >= min_passes && elapsed_s * (pass + 1) / pass > opt.seconds) return false;
  traced = opt.trace && (pass == 1 || pass == 2 || (pass > 2 && pass % 2 == 0));
  return true;
}

BestTimes::BestTimes(std::size_t ops) : best_(ops, std::numeric_limits<double>::infinity()) {}

void BestTimes::add(std::size_t op, double ms) { best_[op] = std::min(best_[op], ms); }

void BestTimes::report(RunResult& out, const std::string& what) const {
  std::vector<double> best;
  for (const double ms : best_) {
    if (std::isfinite(ms)) best.push_back(ms);
  }
  double total = 0;
  for (const double ms : best) total += ms;
  const LatencySummary lat = summarize_latency(best);
  std::ostringstream ss;
  ss << what << " latency (fastest repetition of each): p50 " << lat.p50 << " ms, tail = p"
     << lat.tail_pct << " " << lat.tail << " ms over " << lat.samples << " " << what << "s";
  out.notes.push_back(ss.str());
  out.set("suite_s", total / 1000.0, "s");
  out.set("p50_ms", lat.p50, "ms");
  out.set("tail_ms", lat.tail, "ms");
  out.set("ops_per_s", ratio(static_cast<double>(best.size()), total / 1000.0), "1/s");
}

void add_stage_times(const t1sfq::FlowTimings& t, std::map<std::string, double>& layer_ms) {
  layer_ms["cleanup.ms"] += t.cleanup_ms;
  layer_ms["opt.ms"] += t.opt_ms;
  layer_ms["detect.ms"] += t.detect_ms;
  layer_ms["assign.ms"] += t.assign_ms;
  layer_ms["insert.ms"] += t.insert_ms;
}

void report_counters(const std::map<std::string, int64_t>& counters, RunResult& out) {
  const auto c = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* name :
       {"opt.verify.checks", "opt.pass.reverted", "opt.resub.sat_calls", "opt.resub.sat_conflicts",
        "opt.rewrite.candidates", "opt.rewrite.committed", "detect.candidates",
        "detect.committed", "detect.guard.accepts", "detect.guard.declines", "incr.edits",
        "incr.stage_relaxations", "incr.full_rebuilds", "sched.sweeps", "sched.nodes_evaluated",
        "sched.nodes_skipped", "sched.moves_committed", "service.cache.cold",
        "service.cache.warm", "service.cache.eco", "service.eco.fallback"}) {
    out.set(name, c(name), "count");
  }
  for (const char* reason : {"config_changed", "opt_enabled", "not_comparable", "po_reroute",
                             "too_large", "t1_region", "const_edit", "absorbed", "mismatch"}) {
    const std::string name = std::string("service.eco.fallback.") + reason;
    out.set(name, c(name), "count");
  }
  out.set("opt.rewrite.commit_ratio",
          ratio(c("opt.rewrite.committed"), c("opt.rewrite.candidates")), "ratio");
  out.set("detect.commit_ratio", ratio(c("detect.committed"), c("detect.candidates")), "ratio");
  out.set("incr.relaxations_per_edit", ratio(c("incr.stage_relaxations"), c("incr.edits")),
          "ratio");
}

std::string check_physical(const t1sfq::PhysicalNetlist& phys,
                           const t1sfq::MultiphaseConfig& clk, const t1sfq::Network& input,
                           const Reference& ref, unsigned vectors, uint64_t seed) {
  vectors = std::min(vectors, 64u);
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> words(input.num_pis());
  for (uint64_t& w : words) w = rng();
  const std::vector<uint64_t> golden = ref ? std::vector<uint64_t>{}
                                           : t1sfq::simulate_words(input, words);
  for (unsigned v = 0; v < vectors; ++v) {
    std::vector<bool> pi(input.num_pis());
    for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = (words[i] >> v) & 1u;
    std::vector<bool> expect;
    if (ref) {
      expect = ref(pi);
    } else {
      for (const uint64_t w : golden) expect.push_back((w >> v) & 1u);
    }
    const t1sfq::PulseSimResult sim = t1sfq::pulse_simulate(phys.net, phys.stage, clk, pi);
    if (!sim.ok()) return "timing violation: " + sim.violations.front().describe();
    if (sim.po_values != expect) return "output mismatch on vector " + std::to_string(v);
  }
  return "";
}

t1sfq::Network relabel(const t1sfq::Network& net, uint64_t seed,
                       std::vector<t1sfq::NodeId>* old_to_new) {
  using t1sfq::GateType;
  using t1sfq::NodeId;
  const std::size_t n = net.size();
  std::vector<NodeId> map(n, t1sfq::kNullNode);
  // Kahn's algorithm, taking a uniformly random ready node at each step.
  std::vector<uint32_t> pending(n, 0);
  std::vector<std::vector<NodeId>> fanouts(n);
  std::vector<NodeId> ready;
  t1sfq::Network out(net.name());
  for (std::size_t i = 0; i < net.num_pis(); ++i) map[net.pis()[i]] = out.add_pi(net.pi_name(i));
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const t1sfq::Node& node = net.node(id);
    if (node.dead) continue;
    if (node.type == GateType::Const0) map[id] = out.get_const0();
    if (node.type == GateType::Const1) map[id] = out.get_const1();
    if (map[id] != t1sfq::kNullNode) continue;
    pending[id] = node.num_fanins;
    for (uint8_t k = 0; k < node.num_fanins; ++k) fanouts[node.fanin(k)].push_back(id);
    if (node.num_fanins == 0) ready.push_back(id);
  }
  const auto release = [&](NodeId id) {
    for (const NodeId fo : fanouts[id]) {
      if (--pending[fo] == 0) ready.push_back(fo);
    }
  };
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    if (map[id] != t1sfq::kNullNode) release(id);
  }
  std::mt19937_64 rng(seed);
  while (!ready.empty()) {
    const std::size_t pick = rng() % ready.size();
    const NodeId id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    const t1sfq::Node& node = net.node(id);
    std::vector<NodeId> fanins;
    for (uint8_t k = 0; k < node.num_fanins; ++k) fanins.push_back(map[node.fanin(k)]);
    map[id] = out.add_raw_gate(node.type, fanins);
    release(id);
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) out.add_po(map[net.pos()[i]], net.po_name(i));
  if (old_to_new) *old_to_new = std::move(map);
  return out;
}

uint64_t derive_seed(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + (k + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string describe(const t1sfq::FlowParams& p) {
  std::ostringstream ss;
  ss << "phases=" << p.clk.phases << " t1=" << p.use_t1
     << " engine=" << (p.engine == t1sfq::PhaseEngine::ExactMilp ? "milp" : "heuristic")
     << " slack=" << p.output_slack << " opt=" << p.opt.enable;
  if (p.opt.enable) {
    ss << " opt_rounds=" << p.opt.rounds << " verify=" << p.opt.verify
       << " partition_jobs=" << p.opt.partition_jobs;
  }
  ss << " physics=" << p.physics_check;
  return ss.str();
}

std::map<std::string, int64_t> program_counters() {
  std::map<std::string, int64_t> out;
  for (const t1sfq::obs::Metric& m : t1sfq::obs::Registry::instance().snapshot()) {
    if (m.kind == t1sfq::obs::MetricKind::Counter) {
      out[m.name] = static_cast<int64_t>(m.count);
    } else if (m.kind == t1sfq::obs::MetricKind::Gauge) {
      out[m.name] = m.value;
    }
  }
  return out;
}

double program_span_ms(const std::string& name) {
  uint64_t us = 0;
  for (const t1sfq::obs::TraceEvent& e : t1sfq::obs::trace_events()) {
    if (e.name == name) us += e.dur_us;
  }
  return static_cast<double>(us) / 1000.0;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
