/// \file scaling.cpp
/// \brief Scaling sweep of the incremental engine (src/incr/): wall time and
/// deterministic work counters per stage, from 1k to 50k gates.
///
/// For random and arithmetic networks, each point runs the optimization
/// pipeline (cut rewriting -> balancing -> resubstitution, one round, guard
/// off), one T1 detection round and phase assignment once, all through the
/// delta-maintained `IncrementalView`. The near-linear claim is gated by the
/// work counters each record carries (`incr.stage_relaxations`,
/// `incr.full_rebuilds`, `sched.nodes_evaluated`, ...; see
/// `obs::kGatedCounters`), which are host-independent: a maintenance path
/// that falls back to rebuilds or re-evaluates every node moves them on any
/// machine. Wall times ride along ungated.
///
/// The view-seeded incremental scheduler's schedule is asserted bit-identical
/// (stages, sink, DFF estimate) to the reference full sweep
/// (`PhaseAssignmentParams::incremental = false`), untimed and outside the
/// record's counters: the incremental engine is an evaluation-skipping
/// optimization, never an approximation.
///
/// The random family carries planted shareable cones (full-adder-shaped
/// groups meeting the 2-cuts-per-group floor, chained like ripple carries),
/// so T1 detection genuinely converts on it — asserted, so a detection
/// regression cannot hide behind a convert-nothing family.
///
/// Usage: scaling [--points g1,g2,...] [--smoke]
///                [--json <path>] [--db <path>] [--physics] [--physics-smoke]
///   --points            gate counts to sweep (default 1000,5000,10000,20000,50000)
///   --smoke             CI mode: only the 10k-gate pair. The identity and
///                       convert-something assertions still hard-fail;
///                       metrics and work counters are gated by CI against
///                       the committed result history (bench_history.jsonl)
///                       via `dbtool gate`.
///   --json <path>       write one machine-readable record per circuit
///                       (metrics, per-stage wall times, obs counters); also
///                       enables the obs registry/spans.
///   --db <path>         append the same records to the append-only result DB,
///                       stamped with commit/branch/build/host (also enables
///                       the obs registry; see src/obs/resultdb.hpp).
///   --physics           additionally runs the default T1 flow (optimizer
///                       and pass guard on) + the pulse-level physics
///                       oracle (verify/physics_check.hpp) on each
///                       random-family point and emits a separate record with
///                       physics_* metrics; an oracle failure fails the run.
///   --physics-smoke     CI gate: one 10k-gate random flow (opt 1 round,
///                       T1 on) through run_flow with the embedded oracle;
///                       exits 1 on any oracle failure.

#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/arith.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/record.hpp"
#include "core/api.hpp"
#include "core/flow.hpp"
#include "core/phase_assignment.hpp"
#include "core/t1_detection.hpp"
#include "cost/cost_model.hpp"
#include "network/network.hpp"
#include "obs/metrics.hpp"
#include "opt/pass.hpp"

using namespace t1sfq;

namespace {

/// Random DAG (shared generator, benchmarks/random_net.hpp) with every sink
/// driven out as a PO, so the whole graph survives the sweep in run_once().
/// One shareable (full-adder-shaped, carry-chained) cone is planted per ~24
/// gates so T1 detection genuinely converts on this family.
Network random_case(uint64_t seed, unsigned num_pis, unsigned num_gates) {
  Network net = bench::random_network(seed, num_pis, num_gates,
                                      bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/24);
  net.set_name("rand" + std::to_string(num_gates));
  return net;
}

Network adder_network(unsigned gates) {
  const unsigned bits = std::max(2u, gates / 5);  // ~5 cells per full adder
  Network net("adder" + std::to_string(bits));
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  add_po_word(net, ripple_carry_adder(net, a, b, net.get_const0()), "s");
  return net;
}

struct StageTimes {
  double opt_ms = 0;
  double det_ms = 0;
  std::size_t gates = 0;
  uint32_t depth = 0;
  std::size_t t1_used = 0;
  uint64_t estimate_jj = 0;
};

/// Optimization (1 round, guard off) and detection (1 round) on a swept copy
/// of \p input; the post-detection network lands in \p final_net.
StageTimes run_once(const Network& input, Network& final_net) {
  using clock = std::chrono::steady_clock;
  const CostModel model(CellLibrary{}, AreaConfig{}, MultiphaseConfig{4});
  // Sweep PO-unreachable generator junk so the record prices the circuit,
  // not the generator's leftovers.
  Network net = input;
  net.sweep_dangling();
  net = net.cleanup();

  OptParams op;
  op.verify = false;  // the SAT guard's cost is not what this sweep measures
  op.rounds = 1;      // one pipeline round keeps the sweep time-bounded
  auto t0 = clock::now();
  optimize(net, op);
  auto t1 = clock::now();

  T1DetectionParams det;
  det.max_rounds = 1;
  // The schedule-aware rescue runs a second, counterfactual detection per
  // call; pinned off so the record tracks the ASAP-guard decision stream its
  // history was recorded with.
  det.schedule_aware_guard = false;
  const auto stats = detect_and_replace_t1(net, model, det);
  auto t2 = clock::now();

  StageTimes r;
  r.opt_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.det_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  r.gates = net.num_gates();
  r.depth = net.depth();
  r.t1_used = stats.used;
  r.estimate_jj = model.network_breakdown(net).total();
  final_net = std::move(net);
  return r;
}

/// The CI physics-smoke gate: one 10k-gate random flow (opt 1 round, T1 on)
/// through run_flow with the embedded oracle. run_flow throws on an oracle
/// failure, so the gate is simply "did the flow complete".
int run_physics_smoke() {
  const Network net = random_case(0xbada55 + 10000, 10000 / 16, 10000);
  FlowParams p;
  p.use_t1 = true;
  p.opt.enable = true;
  p.opt.rounds = 1;
  p.opt.verify = false;  // the oracle itself is the end-to-end check here
  p.physics_check = true;
  try {
    const FlowResult res = run_flow(net, p);
    std::cout << "[physics-smoke] " << net.name() << ": " << res.physics.summary()
              << " (" << std::fixed << std::setprecision(1)
              << res.timings.physics_ms << " ms oracle, " << res.timings.total_ms
              << " ms flow)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cout << "[physics-smoke] FAIL: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> points{1000, 5000, 10000, 20000, 50000};
  bool smoke = false;
  bool physics = false;
  bool physics_smoke = false;
  std::string json_path;
  std::string db_path;
  std::vector<unsigned> points_arg;
  bench::ArgParser args("bench_scaling");
  args.uint_list("--points", &points_arg, "g1,g2,...", "gate counts to sweep")
      .flag("--smoke", &smoke, "small fixed points for CI")
      .string_opt("--json", &json_path, "path", "write records as JSON")
      .string_opt("--db", &db_path, "path", "append records to result DB")
      .flag("--physics", &physics, "physics oracle on each scaling point")
      .flag("--physics-smoke", &physics_smoke, "physics oracle smoke run for CI");
  if (!args.parse(argc, argv)) return 2;
  if (!points_arg.empty()) {
    points = points_arg;
  }
  if (physics_smoke) {
    return run_physics_smoke();
  }
  const bool emit = !json_path.empty() || !db_path.empty();
  if (emit) {
    obs::set_enabled(true);
  }
  if (smoke) {
    points = {10000};
  }
  // Records want the obs counters (enabled above); the default stdout run
  // stays uninstrumented so the timings measure exactly what the library
  // ships.
  std::vector<bench::BenchRecord> records;

  std::cout << "Incremental-view scaling (opt 1 round + detection 1 round + phase "
               "assignment, 4 phases)\n";
  std::cout << std::setw(14) << "circuit" << std::setw(8) << "gates" << std::setw(11)
            << "opt" << std::setw(11) << "det" << std::setw(11) << "assign"
            << std::setw(7) << "T1" << "\n";

  bool ok = true;
  for (const unsigned n : points) {
    std::vector<Network> cases;
    cases.push_back(random_case(0xbada55 + n, std::max(8u, n / 16), n));
    cases.push_back(adder_network(n));
    for (const Network& net : cases) {
      // Per-circuit counters: the registry restarts empty for each record.
      obs::Registry::instance().reset();
      Network final_net;
      const StageTimes inc = run_once(net, final_net);
      // The planted-cone generator exists so detection has something to
      // convert on the random family; a convert-nothing run means the
      // planting (or detection) regressed.
      if (inc.t1_used == 0) {
        std::cout << "FAIL: no T1 conversion on " << net.name()
                  << " — detection no longer exercises this family.\n";
        ok = false;
      }
      PhaseAssignmentParams pp;
      pp.clk = MultiphaseConfig{4};
      const auto pa0 = std::chrono::steady_clock::now();
      const PhaseAssignment incr = assign_phases(final_net, pp);
      const double pa_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - pa0)
                               .count();

      bench::BenchRecord rec;
      rec.circuit = net.name();
      rec.config = "4phi opt=1round det=1round";
      rec.metrics = {{"gates", static_cast<int64_t>(inc.gates)},
                     {"depth", static_cast<int64_t>(inc.depth)},
                     {"t1_used", static_cast<int64_t>(inc.t1_used)},
                     {"estimate_jj", static_cast<int64_t>(inc.estimate_jj)}};
      rec.time_ms = {{"opt", inc.opt_ms}, {"det", inc.det_ms}, {"assign", pa_ms}};
      if (emit) {
        bench::capture_counters(rec);  // before the reference sweep's work
        records.push_back(std::move(rec));
      }

      // Identical schedules are part of the incremental engine's contract:
      // the reference full sweep runs untimed, after the counters are taken.
      pp.incremental = false;
      const PhaseAssignment ref = assign_phases(final_net, pp);
      if (incr.stage != ref.stage || incr.output_stage != ref.output_stage ||
          incr.estimated_dffs != ref.estimated_dffs) {
        std::cout << "MISMATCH on " << net.name()
                  << ": incremental and reference phase assignment diverge.\n";
        ok = false;
      }
      std::cout << std::setw(14) << net.name() << std::setw(8) << net.num_gates()
                << std::setw(11) << std::fixed << std::setprecision(1) << inc.opt_ms
                << std::setw(11) << inc.det_ms << std::setw(11) << pa_ms
                << std::setw(7) << inc.t1_used << "\n";

      // Sampled physics validation: the default T1 flow (optimizer and its
      // pass guard on) through the pulse-level oracle on the random family,
      // emitted as its own record so the physics_* metrics enter the
      // trajectory without touching the scaling records. The record's label is
      // the request's own configuration signature.
      if (physics && net.name().rfind("rand", 0) == 0) {
        obs::Registry::instance().reset();
        const FlowRequest req = FlowRequest::Builder(net).optimize(true).build();
        const FlowParams fp = req.to_flow_params();
        const FlowResult fres = run_flow(net, fp);
        const auto pt0 = std::chrono::steady_clock::now();
        const auto report =
            t1sfq::verify::physics_check(fres.physical, fp.clk, net);
        const double pms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - pt0)
                               .count();
        if (!report.ok) {
          std::cout << "FAIL: physics oracle on " << net.name() << ": "
                    << report.summary() << "\n";
          ok = false;
        }
        std::cout << std::setw(14) << (net.name() + ":phys") << std::setw(8)
                  << fres.physical.net.num_gates() << std::setw(11) << pms
                  << " ms (" << report.vectors << " vectors, min margin "
                  << report.min_margin << ")\n";
        if (emit) {
          bench::BenchRecord prec;
          prec.circuit = net.name();
          prec.config = "physics " + req.config_signature();
          prec.metrics = {
              {"physics_ok", report.ok ? 1 : 0},
              {"physics_vectors", static_cast<int64_t>(report.vectors)},
              {"physics_violations",
               static_cast<int64_t>(report.timing_violations +
                                    report.function_mismatches)},
              {"physics_min_margin", report.min_margin},
              {"physics_checked_edges", static_cast<int64_t>(report.checked_edges)}};
          prec.time_ms = {{"physics", pms}, {"flow", fres.timings.total_ms}};
          bench::capture_counters(prec);
          records.push_back(std::move(prec));
        }
      }
    }
  }
  if (!ok) {
    std::cout << "\nFAIL: incremental and reference schedules disagree, detection "
                 "converted nothing, or an oracle failed.\n";
    return 1;
  }
  if (!bench::emit_records(json_path, db_path, "scaling", records)) {
    return 1;
  }
  return 0;
}
