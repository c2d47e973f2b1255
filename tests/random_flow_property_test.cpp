/// Property-based testing of the whole flow on randomly generated networks:
/// for any random DAG of SFQ cells and any phase count, the flow must emit a
/// functionally equivalent, timing-legal physical netlist whose DFF count
/// matches the scheduler's plan (up to landing-DFF sharing). Every third seed
/// additionally runs the pulse-level physics oracle (verify/physics_check.hpp)
/// end to end, including the default optimizer pipeline and the
/// schedule-aware guard's incremental-anchor path.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "network/equivalence.hpp"
#include "random_network_test_util.hpp"
#include "sfq/pulse_sim.hpp"
#include "verify/physics_check.hpp"

namespace t1sfq {
namespace {

using testutil::random_network;

struct RandomCase {
  uint64_t seed;
  unsigned phases;
  bool use_t1;
  /// Forces the schedule-aware guard onto its incremental-anchor path by
  /// disabling the measured ASAP-only probe. Aligned past `use_t1`'s padding
  /// so the parameter's printed bytes, which name the registered tests, keep
  /// their layout.
  alignas(4) bool no_guard_probe = false;
};
static_assert(sizeof(RandomCase) == 24, "test names print the case's bytes");

class RandomFlow : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomFlow, FlowInvariantsHold) {
  const RandomCase& c = GetParam();
  const uint64_t seed = c.seed;
  const Network net = random_network(seed, 6 + seed % 5, 40 + seed % 60);

  FlowParams p;
  p.clk.phases = c.phases;
  p.use_t1 = c.use_t1;
  if (c.no_guard_probe) {
    p.opt.enable = true;
    p.detection.guard_probe_max_gates = 0;  // incremental-anchor guard path
  }
  const FlowResult res = run_flow(net, p);

  // 1. Function preserved (complete SAT proof: these are small networks).
  EXPECT_EQ(check_equivalence(res.mapped, net).result, EquivalenceResult::Equivalent)
      << "seed " << seed;

  // 2. Schedule feasible and hazard-free under pulse-accurate simulation.
  EXPECT_TRUE(assignment_feasible(res.mapped, res.assignment.stage,
                                  res.assignment.output_stage, p.clk));
  EXPECT_TRUE(pulse_verify(res.physical.net, res.physical.stage, p.clk, net, 1))
      << "seed " << seed;

  // 3. The physical DFF count never exceeds the scheduler's plan (sharing of
  //    landing DFFs can only reduce it).
  const auto plan = plan_dffs(res.mapped, res.assignment.stage,
                              res.assignment.output_stage, p.clk);
  EXPECT_LE(res.physical.num_dffs, static_cast<std::size_t>(plan.total_dffs()));

  // 4. Every T1 body in the physical netlist obeys eq. 5 (distinct landings).
  for (NodeId id = 0; id < res.physical.net.size(); ++id) {
    const Node& n = res.physical.net.node(id);
    if (n.dead || n.type != GateType::T1) continue;
    const auto& st = res.physical.stage;
    EXPECT_NE(st[n.fanin(0)], st[n.fanin(1)]);
    EXPECT_NE(st[n.fanin(1)], st[n.fanin(2)]);
    EXPECT_NE(st[n.fanin(0)], st[n.fanin(2)]);
  }

  // 5. Every third seed: the full physics oracle (directed + hazard + random
  //    vectors, phase-margin scan) — deterministic sampling keeps the suite
  //    fast while every pipeline shape still gets end-to-end coverage.
  if (seed % 3 == 0) {
    verify::PhysicsCheckParams pp;
    pp.random_vectors = 24;
    pp.seed = seed;  // deterministic per case
    pp.max_hazard_t1 = 8;
    const auto report = verify::physics_check(res.physical, p.clk, net, pp);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.summary();
    EXPECT_GT(report.vectors, 0u);
    EXPECT_GE(report.min_margin, 0) << "seed " << seed;
  }
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({seed, 4, true});
  }
  for (uint64_t seed = 13; seed <= 18; ++seed) {
    cases.push_back({seed, 1 + static_cast<unsigned>(seed % 7), false});
  }
  for (uint64_t seed = 19; seed <= 24; ++seed) {
    cases.push_back({seed, 5 + static_cast<unsigned>(seed % 3), true});
  }
  // The default flow (optimizer on, 4 phases, T1); seeds divisible by 3 run
  // the physics oracle too.
  for (uint64_t seed = 25; seed <= 30; ++seed) {
    cases.push_back({seed, 4, true});
  }
  // Schedule-aware guard on its incremental-anchor (probe-free) path.
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    cases.push_back({seed, 4, true, /*no_guard_probe=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlow, ::testing::ValuesIn(random_cases()));

}  // namespace
}  // namespace t1sfq
