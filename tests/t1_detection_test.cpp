#include "core/t1_detection.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "benchmarks/arith.hpp"
#include "benchmarks/random_net.hpp"
#include "benchmarks/suite.hpp"
#include "core/phase_assignment.hpp"
#include "cost/cost_model.hpp"
#include "network/equivalence.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"

namespace t1sfq {
namespace {

Network full_adder_net() {
  Network net("fa");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("cin");
  const SumCarry fa = full_adder(net, a, b, c);
  net.add_po(fa.sum, "sum");
  net.add_po(fa.carry, "cout");
  return net;
}

TEST(T1Detection, FullAdderBecomesOneT1) {
  Network net = full_adder_net();
  const Network golden = net;
  const CellLibrary lib;
  const auto stats = detect_and_replace_t1(net, lib);
  EXPECT_EQ(stats.found, 1u);
  EXPECT_EQ(stats.used, 1u);
  EXPECT_GT(stats.estimated_gain, 0);
  net = net.cleanup();
  EXPECT_EQ(net.count_of(GateType::T1), 1u);
  // The whole 5-gate cone is gone.
  EXPECT_EQ(net.count_of(GateType::Xor2), 0u);
  EXPECT_EQ(net.count_of(GateType::And2), 0u);
  EXPECT_EQ(net.count_of(GateType::Or2), 0u);
  EXPECT_EQ(check_equivalence_sat(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(T1Detection, ReplacementReducesRawArea) {
  Network net = full_adder_net();
  const CellLibrary lib;
  const uint64_t before = raw_gate_area(net, lib);
  detect_and_replace_t1(net, lib);
  net = net.cleanup();
  EXPECT_LT(raw_gate_area(net, lib), before);
}

TEST(T1Detection, RippleCarryChainFullyConverted) {
  const unsigned bits = 8;
  Network net("rca");
  const Word a = add_pi_word(net, bits, "a");
  const Word b = add_pi_word(net, bits, "b");
  const NodeId cin = net.add_pi("cin");
  add_po_word(net, ripple_carry_adder(net, a, b, cin), "s");
  const Network golden = net;
  const auto stats = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(stats.used, bits);  // one T1 per full adder
  net = net.cleanup();
  EXPECT_EQ(net.count_of(GateType::T1), bits);
  EXPECT_EQ(check_equivalence_sat(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(T1Detection, SingleXor3AloneIsNotAGroup) {
  // A lone XOR3 cone (no second cut on the same leaves) does not meet the
  // paper's 2 <= n condition.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  net.add_po(net.add_xor(net.add_xor(a, b), c));
  const auto stats = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(stats.found, 0u);
  EXPECT_EQ(stats.used, 0u);
  EXPECT_EQ(net.count_of(GateType::T1), 0u);
}

TEST(T1Detection, MinCutsOneAllowsSingletons) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  net.add_po(net.add_xor(net.add_xor(a, b), c));
  T1DetectionParams p;
  p.min_cuts_per_group = 1;
  p.require_positive_gain = false;
  const auto stats = detect_and_replace_t1(net, CellLibrary{}, p);
  EXPECT_EQ(stats.used, 1u);
  EXPECT_EQ(net.count_of(GateType::T1), 1u);
}

TEST(T1Detection, NegativeGainRejected) {
  // With an absurdly expensive T1 cell nothing should be replaced.
  Network net = full_adder_net();
  CellLibrary lib;
  lib.jj_t1 = 10000;
  const auto stats = detect_and_replace_t1(net, lib);
  EXPECT_EQ(stats.used, 0u);
  EXPECT_EQ(net.count_of(GateType::T1), 0u);
}

TEST(T1Detection, InvertedOutputsUseStarPorts) {
  // NOT(maj) and NOT(or) over shared leaves: C* and Q* via inverters.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId m = net.add_maj(a, b, c);
  const NodeId o = net.add_or(net.add_or(a, b), c);
  net.add_po(net.add_not(m), "nm");
  net.add_po(net.add_not(o), "no");
  const Network golden = net;
  T1DetectionParams p;
  p.require_positive_gain = false;
  detect_and_replace_t1(net, CellLibrary{}, p);
  net = net.cleanup();
  ASSERT_EQ(net.count_of(GateType::T1), 1u);
  EXPECT_EQ(check_equivalence_sat(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(T1Detection, SharedLogicOutsideConeSurvives) {
  // The xor(a,b) node also feeds an unrelated output: it must not be swept.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId axb = net.add_xor(a, b);
  const NodeId sum = net.add_xor(axb, c);
  const NodeId carry = net.add_or(net.add_and(a, b), net.add_and(axb, c));
  net.add_po(sum, "s");
  net.add_po(carry, "co");
  net.add_po(axb, "extra");  // external use
  const Network golden = net;
  detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(check_equivalence_sat(net, golden).result, EquivalenceResult::Equivalent);
  // axb must still exist to drive the extra PO.
  bool axb_alive = false;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id) && net.node(id).type == GateType::Xor2) {
      axb_alive = true;
    }
  }
  EXPECT_TRUE(axb_alive);
}

TEST(T1Detection, OverlappingCandidatesResolvedGreedily) {
  // Two full adders sharing an input: both convert (disjoint cones).
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId d = net.add_pi();
  const SumCarry fa1 = full_adder(net, a, b, c);
  const SumCarry fa2 = full_adder(net, b, c, d);
  net.add_po(fa1.sum);
  net.add_po(fa1.carry);
  net.add_po(fa2.sum);
  net.add_po(fa2.carry);
  const Network golden = net;
  const auto stats = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(stats.used, 2u);
  EXPECT_EQ(check_equivalence_sat(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(T1Detection, MultiplierConvertsManyAdders) {
  Network net = [] {
    Network n("mult");
    const Word a = add_pi_word(n, 6, "a");
    const Word b = add_pi_word(n, 6, "b");
    add_po_word(n, array_multiplier(n, a, b), "p");
    return n;
  }();
  const Network golden = net;
  const auto stats = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_GT(stats.used, 10u);
  EXPECT_GE(stats.found, stats.used);
  net = net.cleanup();
  EXPECT_EQ(check_equivalence(net, golden).result, EquivalenceResult::Equivalent);
}

TEST(T1Detection, IdempotentOnConvertedNetwork) {
  Network net = full_adder_net();
  detect_and_replace_t1(net, CellLibrary{});
  net = net.cleanup();
  const std::size_t t1s = net.count_of(GateType::T1);
  const auto stats2 = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(stats2.used, 0u);  // T1 regions are cut barriers
  EXPECT_EQ(net.count_of(GateType::T1), t1s);
}

TEST(T1Detection, GuardProbeThresholdSwitchesToEnvelopeAndStaysShallow) {
  // Above `guard_probe_max_gates` the schedule-aware guard skips the measured
  // ASAP-only counterfactual run and anchors its latency envelope at the
  // maintained input latency instead. Forcing the threshold to 1 exercises
  // that envelope path on a test-scale network; the contract is soundness
  // plus the no-depth-regression guarantee relative to the *input*.
  const unsigned bits = 8;
  Network golden("rca");
  const Word a = add_pi_word(golden, bits, "a");
  const Word b = add_pi_word(golden, bits, "b");
  const NodeId cin = golden.add_pi("cin");
  add_po_word(golden, ripple_carry_adder(golden, a, b, cin), "s");

  const MultiphaseConfig clk{4};
  const CostModel model(CellLibrary{}, AreaConfig{}, clk);
  PhaseAssignmentParams pp;
  pp.clk = clk;
  const Stage input_sink = assign_phases(golden, pp).output_stage;

  Network probed = golden;
  T1DetectionParams params;  // defaults: guard on, net far below the threshold
  const auto probe_stats = detect_and_replace_t1(probed, model, params);
  ASSERT_GT(probe_stats.used, 0u);

  Network enveloped = golden;
  params.guard_probe_max_gates = 1;
  const auto env_stats = detect_and_replace_t1(enveloped, model, params);

  // Envelope mode is still the same greedy detection: sound, productive on
  // the ripple chain, and latency-bounded by the input schedule.
  EXPECT_GT(env_stats.used, 0u);
  EXPECT_EQ(check_equivalence_sat(enveloped, golden).result,
            EquivalenceResult::Equivalent);
  const Stage env_sink = assign_phases(enveloped, pp).output_stage;
  EXPECT_LE(clk.cycles(env_sink - 1), clk.cycles(input_sink - 1));

  // Below the threshold the counterfactual probe is measured and the result
  // is unchanged from the historical behavior (same commits, same network).
  EXPECT_EQ(probe_stats.found, env_stats.found);
}

// -- Bit-identity pins ----------------------------------------------------------
//
// FNV-1a over the rewritten network (every node's type, fanins, port and
// liveness, then the PI and PO lists) and the returned statistics. The
// constants were recorded with the map-based cut enumerator and grouping that
// the flat kernel replaced: any change to which candidates are found, in
// which order they are priced or committed, moves them.

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t detection_digest(const Network& net, const T1DetectionStats& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = fnv_mix(h, net.size());
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    h = fnv_mix(h, static_cast<uint64_t>(n.type));
    h = fnv_mix(h, n.num_fanins);
    for (unsigned i = 0; i < n.num_fanins; ++i) {
      h = fnv_mix(h, n.fanin(i));
    }
    h = fnv_mix(h, static_cast<uint64_t>(n.port));
    h = fnv_mix(h, n.dead);
  }
  for (const NodeId p : net.pis()) {
    h = fnv_mix(h, p);
  }
  for (const NodeId p : net.pos()) {
    h = fnv_mix(h, p);
  }
  h = fnv_mix(h, s.found);
  h = fnv_mix(h, s.used);
  return fnv_mix(h, static_cast<uint64_t>(s.estimated_gain));
}

TEST(T1Detection, ScaledSuiteResultIsBitIdenticalToThePinnedDigest) {
  const std::map<std::string, uint64_t> pinned = {
      {"adder", 0x0beae1e4d04c5f61ull},      {"c7552", 0x6d4e36f77157af24ull},
      {"c6288", 0xa03b862f1a6b5a96ull},      {"sin", 0x23888acec20c8010ull},
      {"voter", 0xdab88db16369dc96ull},      {"square", 0x2c9b9273b2092759ull},
      {"multiplier", 0x0335c7374e610552ull}, {"log2", 0x0c1e2a04e7b78343ull}};
  std::size_t checked = 0;
  for (const auto& c : bench::make_suite_scaled(4)) {
    Network net = c.generate();
    const T1DetectionStats s = detect_and_replace_t1(net, CellLibrary{});
    ASSERT_EQ(pinned.count(c.name), 1u) << c.name;
    EXPECT_EQ(detection_digest(net, s), pinned.at(c.name))
        << c.name << ": found " << s.found << " used " << s.used << " gain "
        << s.estimated_gain;
    ++checked;
  }
  EXPECT_EQ(checked, pinned.size());
}

TEST(T1Detection, PlantedConeResultIsBitIdenticalAcrossRoundsWithBarriers) {
  // 3k gates with carry-chained planted cones: later rounds enumerate cuts
  // over the T1 bodies and ports the earlier rounds committed.
  obs::Registry::instance().reset();
  obs::ScopedEnable on(true);
  Network net = bench::random_network(7, 64, 3000, bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/24);
  const T1DetectionStats s = detect_and_replace_t1(net, CellLibrary{});
  EXPECT_EQ(s.found, 140u);
  EXPECT_EQ(s.used, 103u);
  EXPECT_EQ(s.estimated_gain, 1514);
  // Two runs (the schedule-aware guard's counterfactual and the real one):
  // more than two rounds means some round met committed T1 barriers.
  EXPECT_GT(obs::Registry::instance().counter("detect.rounds"), 2u);
  EXPECT_EQ(detection_digest(net, s), 0x93d6c8cecb23aba9ull);
}

}  // namespace
}  // namespace t1sfq
