/// \file flow_workloads.cpp
/// \brief The in-process flow workloads: `paper`, `guarded-opt` and `scale`.
///
/// A workload is a fixed set of flow operations (one circuit under one flow
/// configuration each). One *pass* runs every operation once through the
/// public entry point; passes repeat until the run's time is up, and every
/// repetition must reproduce the first answer. The traced run alternates
/// untraced passes with traced ones, which make the same calls with the
/// program's obs layer on and split each flow's time by layer with the
/// stage timings the flow reports (`FlowTimings`).

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "core/api.hpp"
#include "cost/disk_cache.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/rewrite_db.hpp"

namespace perfbench {
namespace {

using namespace t1sfq;

struct Quality {
  uint64_t area_jj = 0;
  std::size_t dffs = 0;
  Stage depth_cycles = 0;
  bool operator==(const Quality&) const = default;
};

Quality quality_of(const FlowMetrics& m) { return {m.area_jj, m.num_dffs, m.depth_cycles}; }

struct FlowOp {
  std::string label;
  std::size_t input = 0;  ///< index into Workload::inputs
  Reference ref;          ///< empty for random networks
  FlowParams params;
  /// Set on `paper`: the operation is timed through run_flow(FlowRequest).
  std::optional<FlowRequest> request;
};

struct Workload {
  std::vector<Network> inputs;
  std::vector<FlowOp> ops;
  double rewrite_db_ms = 0;
  DiskCacheStats setup_cache{};
};

/// Planted-cone random network over 64 inputs (depth stays near a hundred
/// stages, so DFF volume grows linearly with size).
Network planted_random(uint64_t seed, unsigned gates, unsigned plant_every,
                       const std::string& name) {
  Network net =
      bench::random_network(seed, 64, gates, bench::RandomPoPolicy::AllSinks, plant_every);
  net.set_name(name);
  return net;
}

/// Builds the workload's inputs and operations (everything but the timed
/// calls). The rewrite database is loaded here when the optimizer runs, so
/// its build lands in set-up, not in the first timed pass.
Workload make_workload(const Options& opt) {
  Workload w;
  std::vector<bench::BenchmarkCase> cases;
  if (opt.workload == "paper") {
    cases = bench::make_suite();
  } else if (opt.workload == "guarded-opt") {
    cases = bench::make_suite_scaled(4);
  }
  // The circuits are fixed (random ones from fixed generator seeds) and the
  // workload seed renumbers their gates. Fresh random circuits per seed make
  // the work itself vary by seed: the SAT guard's cost on a 2k-gate network
  // ranges over 2x, and at 80k gates a seed-dependent share of networks gets
  // a third detection round (+30% flow time). On guarded-opt even the
  // numbering moves the guard's SAT time by 20%, so there the seed only
  // draws the check's input vectors.
  for (const auto& c : cases) w.inputs.push_back(c.generate());
  if (opt.workload == "guarded-opt") {
    for (uint64_t k = 0; k < 2; ++k) {
      w.inputs.push_back(
          planted_random(derive_seed(1, k), 2000, 200, "rand2000-" + std::to_string(k)));
    }
  } else if (opt.workload == "scale") {
    w.inputs.push_back(planted_random(derive_seed(1, 0), 80000, 200, "rand80000"));
  }
  if (opt.workload != "guarded-opt") {
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
      w.inputs[i] = relabel(w.inputs[i], derive_seed(opt.seed, i));
    }
  }

  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    const std::string name = i < cases.size() ? cases[i].name : w.inputs[i].name();
    const Reference ref = i < cases.size() ? cases[i].reference : Reference{};
    if (opt.workload == "paper") {
      // The paper's three flows through the versioned API with its defaults.
      const struct {
        const char* tag;
        unsigned phases;
        bool t1;
      } flows[] = {{"1phi", 1, false}, {"4phi", 4, false}, {"t1", 4, true}};
      for (const auto& f : flows) {
        FlowOp op;
        op.label = name + "/" + f.tag;
        op.input = i;
        op.ref = ref;
        op.request = FlowRequest::Builder(w.inputs[i]).phases(f.phases).use_t1(f.t1).build();
        op.params = op.request->to_flow_params();
        w.ops.push_back(std::move(op));
      }
    } else {
      FlowOp op;
      op.label = name;
      op.input = i;
      op.ref = ref;
      // guarded-opt: the in-process default (optimizer + pass-level guard on).
      // scale: the T1 flow with the optimizer off.
      op.params.opt.enable = opt.workload == "guarded-opt";
      w.ops.push_back(std::move(op));
    }
  }

  for (const FlowOp& op : w.ops) {
    if (!op.params.opt.enable) continue;
    // The same database the cut-rewriting pass asks for.
    OptParams o = op.params.opt;
    o.clk = op.params.clk;
    o.lib = op.params.lib;
    o.area = op.params.area;
    RewriteDb::Params dbp;
    dbp.lib = o.lib;
    dbp.clock_jj = o.area.clock_jj_per_clocked;
    dbp.depth_penalty_jj = static_cast<unsigned>(o.cost().dff_jj());
    const Clock::time_point t0 = Clock::now();
    RewriteDb::instance(dbp);
    w.rewrite_db_ms = ms_since(t0);
    break;
  }
  w.setup_cache = DiskCache::stats();
  return w;
}

/// One operation through its public entry point: its quality, the stage
/// timings the flow reports, its wall time, and the flow result when the
/// entry point hands one back (run_flow(Network, FlowParams)).
struct OpRun {
  Quality quality;
  FlowTimings timings;
  double ms = 0;
  std::optional<FlowResult> result;
};

OpRun run_op(const Workload& w, const FlowOp& op) {
  OpRun run;
  if (op.request) {
    const Clock::time_point t0 = Clock::now();
    const FlowResponse r = run_flow(*op.request);
    run.ms = ms_since(t0);
    if (!r.ok) throw std::runtime_error(r.message);
    run.quality = quality_of(r.metrics);
    run.timings = r.timings;
    return run;
  }
  const Clock::time_point t0 = Clock::now();
  FlowResult r = run_flow(w.inputs[op.input], op.params);
  run.ms = ms_since(t0);
  run.quality = quality_of(r.metrics);
  run.timings = r.timings;
  run.result.emplace(std::move(r));
  return run;
}

/// Correctness of one operation's output, outside every timed region. The
/// API path returns no netlist, so its flow is re-run through
/// run_flow(Network, FlowParams) and must report the same quality.
std::string check_op(const Workload& w, const FlowOp& op, const Quality& timed,
                     std::optional<FlowResult>& result, uint64_t seed) {
  if (!result) result.emplace(run_flow(w.inputs[op.input], op.params));
  if (quality_of(result->metrics) != timed) return "re-run quality differs from the timed call";
  return check_physical(result->physical, op.params.clk, w.inputs[op.input], op.ref, 32, seed);
}

struct TracedPass {
  double pass_ms = 0;
  std::map<std::string, double> layer_ms;
  std::map<std::string, int64_t> counters;
  std::size_t dffs = 0;
};

}  // namespace

bool run_flow_workload(const Options& opt, RunResult& out) {
  if (opt.workload != "paper" && opt.workload != "guarded-opt" && opt.workload != "scale") {
    return false;
  }
  const Workload w = make_workload(opt);
  out.set("setup_s", seconds_since_start(), "s");
  if (opt.setup_only) return true;

  out.notes.push_back("workload " + opt.workload + ", seed " + std::to_string(opt.seed) + ", " +
                      std::to_string(w.ops.size()) + " flows per pass");
  for (const FlowOp& op : w.ops) {
    const Network& in = w.inputs[op.input];
    out.notes.push_back("  " + op.label + ": " + std::to_string(in.num_gates()) + " gates, " +
                        (op.request ? op.request->config_signature() : describe(op.params)));
  }

  std::vector<std::optional<Quality>> reference(w.ops.size());  // first answer per op
  BestTimes best(w.ops.size());
  std::vector<double> untraced_pass_ms;
  std::vector<TracedPass> traced;
  const Clock::time_point start = Clock::now();
  bool traced_pass = false;
  for (int pass = 0; next_pass(opt, pass, start, traced_pass); ++pass) {
    if (traced_pass) {
      obs::Registry::instance().reset();
      obs::clear_trace();
      obs::set_enabled(true);
    }
    TracedPass tp;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      const FlowOp& op = w.ops[i];
      ++out.attempted;
      OpRun run;
      try {
        run = run_op(w, op);
      } catch (const std::exception& e) {
        out.fail(op.label + ": flow threw: " + e.what());
        continue;
      }
      tp.pass_ms += run.ms;
      if (traced_pass) {
        add_stage_times(run.timings, tp.layer_ms);
        tp.dffs += run.quality.dffs;
      } else {
        best.add(i, run.ms);
      }
      if (!reference[i]) {
        reference[i] = run.quality;
        const std::string err =
            check_op(w, op, run.quality, run.result, opt.seed ^ (i * 0x51ed27));
        if (!err.empty()) out.fail(op.label + ": " + err);
      } else if (!(*reference[i] == run.quality)) {
        out.fail(op.label + ": quality differs between passes (nondeterministic)");
      }
    }
    if (!traced_pass) {
      untraced_pass_ms.push_back(tp.pass_ms);
      continue;
    }
    obs::set_enabled(false);
    tp.layer_ms["opt.verify.ms"] = program_span_ms("opt.verify");
    tp.counters = program_counters();
    if (!traced.empty() && tp.counters != traced.front().counters) {
      std::string diff;
      for (const auto& [name, v] : tp.counters) {
        const auto it = traced.front().counters.find(name);
        if (it == traced.front().counters.end() || it->second != v) diff += " " + name;
      }
      out.fail("program work counters differ between traced passes:" + diff);
    }
    traced.push_back(std::move(tp));
  }

  // Quality totals and the paper's headline ratio (pass 0; later passes
  // repeat it or are counted as failures above).
  Quality total;
  for (const std::optional<Quality>& q : reference) {
    if (!q) continue;
    total.area_jj += q->area_jj;
    total.dffs += q->dffs;
    total.depth_cycles += q->depth_cycles;
  }
  double t1_vs_4phi = 0;
  if (opt.workload == "paper") {
    double log_sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i + 2 < w.ops.size(); i += 3) {
      if (!reference[i + 1] || !reference[i + 2]) continue;
      log_sum += std::log(static_cast<double>(reference[i + 2]->area_jj) /
                          static_cast<double>(reference[i + 1]->area_jj));
      ++n;
    }
    t1_vs_4phi = n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
    std::ostringstream ss;
    ss << "t1_vs_4phi_area (geomean over Table I of T1 / 4phi area): " << t1_vs_4phi;
    out.notes.push_back(ss.str());
  }

  out.notes.push_back("passes: " + std::to_string(untraced_pass_ms.size()) + " untraced, " +
                      std::to_string(traced.size()) + " traced");
  if (!opt.trace) {
    best.report(out, "flow");
    out.set("area_jj", static_cast<double>(total.area_jj), "JJ");
    out.set("dffs", static_cast<double>(total.dffs), "count");
    out.set("depth_cycles", static_cast<double>(total.depth_cycles), "cycles");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return true;
  }

  // Per-layer: medians over traced passes of per-pass busy time; counters
  // are per pass (identical across passes, checked above).
  const auto layer = [&](const std::string& name) {
    std::vector<double> v;
    for (const TracedPass& tp : traced) {
      const auto it = tp.layer_ms.find(name);
      v.push_back(it == tp.layer_ms.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  double layers_ms = 0;
  for (const char* name : kStageLayers) {
    out.set(name, layer(name), "ms");
    layers_ms += layer(name);
  }
  out.set("opt.verify.ms", layer("opt.verify.ms"), "ms");
  out.set("opt.passes.ms", layer("opt.ms") - layer("opt.verify.ms"), "ms");
  report_counters(traced.front().counters, out);
  out.set("insert.ns_per_dff",
          ratio(layer("insert.ms") * 1e6, static_cast<double>(traced.front().dffs)), "ns");
  out.set("rewrite_db.ms", w.rewrite_db_ms, "ms");
  out.set("cost.disk_cache.hits", static_cast<double>(w.setup_cache.hits), "count");
  out.set("cost.disk_cache.misses", static_cast<double>(w.setup_cache.misses), "count");
  out.set("t1_vs_4phi_area", t1_vs_4phi, "ratio");

  std::vector<double> traced_ms;
  for (const TracedPass& tp : traced) traced_ms.push_back(tp.pass_ms);
  const double traced_suite = median(traced_ms);
  out.set("trace.layers_ms", layers_ms, "ms");
  out.set("trace.unattributed_ms", traced_suite - layers_ms, "ms");
  out.set("trace.overhead_ms", traced_suite - median(untraced_pass_ms), "ms");
  return true;
}

}  // namespace perfbench
