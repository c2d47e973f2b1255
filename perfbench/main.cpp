/// \file main.cpp
/// \brief Entry point of the t1sfq benchmark binary (driven by run.py).
///
/// Usage: t1sfq_perfbench --workload <paper|guarded-opt|scale|service>
///                        [--seed N] [--seconds S] [--trace 0|1]
///                        [--setup-only]
///
/// Prints report lines, then as its last line one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
/// without --trace, the per-layer metrics with --trace 1 (a layer that does
/// not run in the workload reports 0). --setup-only stops after set-up and
/// prints `{"setup_s": ...}`. Exits 1 when any output failed its check.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_start = Clock::now();
}  // namespace

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

struct Entry {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks).
constexpr Entry kEndToEnd[] = {
    {"setup_s", "s"},      {"suite_s", "s"},    {"p50_ms", "ms"},
    {"tail_ms", "ms"},     {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
    {"area_jj", "JJ"},     {"dffs", "count"},   {"depth_cycles", "cycles"},
};

constexpr Entry kPerLayer[] = {
    {"cleanup.ms", "ms"},
    {"opt.ms", "ms"},
    {"opt.verify.ms", "ms"},
    {"opt.passes.ms", "ms"},
    {"opt.verify.checks", "count"},
    {"opt.pass.reverted", "count"},
    {"opt.resub.sat_calls", "count"},
    {"opt.resub.sat_conflicts", "count"},
    {"opt.rewrite.candidates", "count"},
    {"opt.rewrite.committed", "count"},
    {"opt.rewrite.commit_ratio", "ratio"},
    {"detect.ms", "ms"},
    {"detect.candidates", "count"},
    {"detect.committed", "count"},
    {"detect.commit_ratio", "ratio"},
    {"detect.guard.accepts", "count"},
    {"detect.guard.declines", "count"},
    {"incr.edits", "count"},
    {"incr.stage_relaxations", "count"},
    {"incr.full_rebuilds", "count"},
    {"incr.relaxations_per_edit", "ratio"},
    {"assign.ms", "ms"},
    {"sched.sweeps", "count"},
    {"sched.nodes_evaluated", "count"},
    {"sched.nodes_skipped", "count"},
    {"sched.moves_committed", "count"},
    {"insert.ms", "ms"},
    {"insert.ns_per_dff", "ns"},
    {"rewrite_db.ms", "ms"},
    {"cost.disk_cache.hits", "count"},
    {"cost.disk_cache.misses", "count"},
    {"t1_vs_4phi_area", "ratio"},
    {"protocol.encode.ms", "ms"},
    {"protocol.parse.ms", "ms"},
    {"canonical.ms", "ms"},
    {"netdiff.ms", "ms"},
    {"service.handle.ms", "ms"},
    {"service.flow.ms", "ms"},
    {"service.eco.ms", "ms"},
    {"service.sessions", "count"},
    {"service.cache.cold", "count"},
    {"service.cache.warm", "count"},
    {"service.cache.eco", "count"},
    {"service.eco.fallback", "count"},
    {"service.eco.fallback.config_changed", "count"},
    {"service.eco.fallback.opt_enabled", "count"},
    {"service.eco.fallback.not_comparable", "count"},
    {"service.eco.fallback.po_reroute", "count"},
    {"service.eco.fallback.too_large", "count"},
    {"service.eco.fallback.t1_region", "count"},
    {"service.eco.fallback.const_edit", "count"},
    {"service.eco.fallback.absorbed", "count"},
    {"service.eco.fallback.mismatch", "count"},
    {"service.replay_hit_ratio", "ratio"},
    {"service.edit_eco_ratio", "ratio"},
    {"service.new.p50_ms", "ms"},
    {"service.new.tail_ms", "ms"},
    {"service.replay.p50_ms", "ms"},
    {"service.replay.tail_ms", "ms"},
    {"service.edit.p50_ms", "ms"},
    {"service.edit.tail_ms", "ms"},
    {"trace.layers_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "t1sfq_perfbench: " << why
            << "\nusage: t1sfq_perfbench --workload <paper|guarded-opt|scale|service> "
               "[--seed N] [--seconds S] [--trace 0|1] [--setup-only]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  perfbench::RunResult out;
  if (!perfbench::run_flow_workload(opt, out) && !perfbench::run_service_workload(opt, out)) {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.setup_only) {
    std::cout << "{\"setup_s\": " << number(out.metrics.front().second.value) << "}\n";
    return 0;
  }

  std::set<std::string> known;
  std::string json = "{";
  std::string lines;
  const Entry* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Entry* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Entry* e = begin; e != end; ++e) {
    Metric m{0.0, e->unit};
    for (const auto& [name, value] : out.metrics) {
      if (name == e->name) m = value;
    }
    json += std::string(known.empty() ? "" : ", ") + "\"" + e->name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    lines += std::string("  ") + e->name + " = " + number(m.value) + " " + m.unit + "\n";
    known.insert(e->name);
  }
  json += "}";
  for (const auto& [name, value] : out.metrics) {
    if (name != "setup_s" && !known.count(name)) {
      std::cerr << "t1sfq_perfbench: metric " << name << " is not in the catalog\n";
      return 3;
    }
  }

  for (const std::string& note : out.notes) std::cout << note << "\n";
  std::cout << lines;
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << json << "}" << std::endl;
  return out.failed == 0 ? 0 : 1;
}
