#include "network/equivalence.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "benchmarks/random_net.hpp"
#include "network/simulation.hpp"
#include "obs/metrics.hpp"

namespace t1sfq {
namespace {

Network ripple_adder(int bits) {
  Network net("rca");
  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(net.add_pi());
  for (int i = 0; i < bits; ++i) b.push_back(net.add_pi());
  NodeId carry = net.get_const0();
  for (int i = 0; i < bits; ++i) {
    const NodeId axb = net.add_xor(a[i], b[i]);
    net.add_po(net.add_xor(axb, carry));
    carry = net.add_or(net.add_and(a[i], b[i]), net.add_and(axb, carry));
  }
  net.add_po(carry);
  return net;
}

Network maj_adder(int bits) {
  Network net("maj_rca");
  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(net.add_pi());
  for (int i = 0; i < bits; ++i) b.push_back(net.add_pi());
  NodeId carry = net.get_const0();
  for (int i = 0; i < bits; ++i) {
    net.add_po(net.add_xor3(a[i], b[i], carry));
    carry = net.add_maj(a[i], b[i], carry);
  }
  net.add_po(carry);
  return net;
}

TEST(Equivalence, IdenticalNetworksAreEquivalent) {
  const Network a = ripple_adder(4);
  const auto r = check_equivalence_sat(a, a);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, StructurallyDifferentAddersAreEquivalent) {
  const Network a = ripple_adder(6);
  const Network b = maj_adder(6);
  const auto r = check_equivalence_sat(a, b);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, T1FullAdderEquivalentToGates) {
  Network gates;
  {
    const NodeId a = gates.add_pi();
    const NodeId b = gates.add_pi();
    const NodeId c = gates.add_pi();
    const NodeId axb = gates.add_xor(a, b);
    gates.add_po(gates.add_xor(axb, c));
    gates.add_po(gates.add_or(gates.add_and(a, b), gates.add_and(axb, c)));
  }
  Network t1net;
  {
    const NodeId a = t1net.add_pi();
    const NodeId b = t1net.add_pi();
    const NodeId c = t1net.add_pi();
    const NodeId t1 = t1net.add_t1(a, b, c);
    t1net.add_po(t1net.add_t1_port(t1, T1PortFn::Sum));
    t1net.add_po(t1net.add_t1_port(t1, T1PortFn::Carry));
  }
  EXPECT_EQ(check_equivalence_sat(gates, t1net).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, DetectsSingleBitError) {
  const Network a = ripple_adder(5);
  Network b = ripple_adder(5);
  // Corrupt: replace the last PO (carry-out) with AND of the top bits.
  Network c("bad");
  std::vector<NodeId> x, y;
  for (int i = 0; i < 5; ++i) x.push_back(c.add_pi());
  for (int i = 0; i < 5; ++i) y.push_back(c.add_pi());
  NodeId carry = c.get_const0();
  for (int i = 0; i < 5; ++i) {
    const NodeId axb = c.add_xor(x[i], y[i]);
    c.add_po(c.add_xor(axb, carry));
    carry = i == 3 ? c.add_and(x[i], y[i])  // dropped the propagate term
                   : c.add_or(c.add_and(x[i], y[i]), c.add_and(axb, carry));
  }
  c.add_po(carry);
  const auto r = check_equivalence_sat(a, c);
  ASSERT_EQ(r.result, EquivalenceResult::NotEquivalent);
  // The counterexample must actually distinguish the two networks.
  const auto oa = simulate(a, r.counterexample);
  const auto oc = simulate(c, r.counterexample);
  EXPECT_NE(oa, oc);
}

TEST(Equivalence, CounterexampleFromSimulationPath) {
  Network a, b;
  const NodeId pa = a.add_pi();
  a.add_po(pa);
  const NodeId pb = b.add_pi();
  b.add_po(b.add_not(pb));
  const auto r = check_equivalence(a, b);
  EXPECT_EQ(r.result, EquivalenceResult::NotEquivalent);
}

TEST(Equivalence, InterfaceMismatchRejected) {
  Network a, b;
  a.add_pi();
  a.add_po(a.get_const0());
  b.add_pi();
  b.add_pi();
  b.add_po(b.get_const0());
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::NotEquivalent);
}

TEST(Equivalence, ConstantsAndDeadNodesHandled) {
  Network a;
  const NodeId x = a.add_pi();
  const NodeId junk = a.add_and(x, a.get_const0());  // folds to const0
  (void)junk;
  a.add_po(a.get_const0());
  Network b;
  const NodeId y = b.add_pi();
  b.add_po(b.add_and(y, b.add_not(y)));  // folds to const0
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, DffTransparencyInSatEncoding) {
  Network a = ripple_adder(3);
  Network b("dffed");
  std::vector<NodeId> x, y;
  for (int i = 0; i < 3; ++i) x.push_back(b.add_pi());
  for (int i = 0; i < 3; ++i) y.push_back(b.add_pi());
  NodeId carry = b.get_const0();
  for (int i = 0; i < 3; ++i) {
    const NodeId axb = b.add_xor(x[i], y[i]);
    b.add_po(b.add_dff(b.add_xor(axb, carry)));
    carry = b.add_dff(b.add_or(b.add_and(x[i], y[i]), b.add_and(axb, carry)));
  }
  b.add_po(carry);
  EXPECT_EQ(check_equivalence_sat(a, b).result, EquivalenceResult::Equivalent);
}

TEST(Equivalence, MediumAdderCompletesQuickly) {
  const Network a = ripple_adder(16);
  const Network b = maj_adder(16);
  const auto r = check_equivalence(a, b);
  EXPECT_EQ(r.result, EquivalenceResult::Equivalent);
}

/// Builds one output from three PIs.
using OutputBuilder = std::function<NodeId(Network&, NodeId, NodeId, NodeId)>;

OutputBuilder gate(GateType type) {
  return [type](Network& n, NodeId x, NodeId y, NodeId z) {
    std::vector<NodeId> fanins{x, y, z};
    fanins.resize(gate_arity(type));
    return n.add_gate(type, fanins);
  };
}

OutputBuilder t1_port(T1PortFn fn) {
  return [fn](Network& n, NodeId x, NodeId y, NodeId z) {
    return n.add_t1_port(n.add_t1(x, y, z), fn);
  };
}

OutputBuilder inverted(OutputBuilder inner) {
  return [inner](Network& n, NodeId x, NodeId y, NodeId z) {
    return n.add_not(inner(n, x, y, z));
  };
}

EquivalenceResult check_outputs(const OutputBuilder& fa, const OutputBuilder& fb) {
  Network a, b;
  const NodeId a0 = a.add_pi(), a1 = a.add_pi(), a2 = a.add_pi();
  const NodeId b0 = b.add_pi(), b1 = b.add_pi(), b2 = b.add_pi();
  a.add_po(fa(a, a0, a1, a2));
  b.add_po(fb(b, b0, b1, b2));
  return check_equivalence_sat(a, b).result;
}

/// A cell against an inverter on its dual cell, and the T1 inverted ports
/// against their gate-level counterparts.
TEST(Equivalence, PolarityAndDeMorganVariantsAreEquivalent) {
  const auto equivalent = EquivalenceResult::Equivalent;
  EXPECT_EQ(check_outputs(gate(GateType::Nand2), inverted(gate(GateType::And2))), equivalent);
  EXPECT_EQ(check_outputs(gate(GateType::Or2), inverted(gate(GateType::Nor2))), equivalent);
  EXPECT_EQ(check_outputs(gate(GateType::Xnor2), inverted(gate(GateType::Xor2))), equivalent);
  EXPECT_EQ(check_outputs(t1_port(T1PortFn::CarryN), inverted(gate(GateType::Maj3))), equivalent);
  EXPECT_EQ(check_outputs(t1_port(T1PortFn::OrN), inverted(gate(GateType::Or3))), equivalent);
  // A genuine polarity error is still caught.
  EXPECT_EQ(check_outputs(t1_port(T1PortFn::CarryN), gate(GateType::Maj3)),
            EquivalenceResult::NotEquivalent);
}

/// XOR(g, y) against OR(g, y) with g a 24-input AND over mixed polarities:
/// the two differ on the single minterm g = y = 1, which random words (and the
/// all-0/all-1 corners) never hit. The OR node's signature matches a-side
/// literals it is not equal to, so the sweep's Sat answers must leave it
/// unmerged and the output miter must still find the minterm.
TEST(Equivalence, SweepSatPathFindsRareMinterm) {
  const auto build = [](bool use_or) {
    Network net;
    std::vector<NodeId> x;
    for (int i = 0; i < 24; ++i) x.push_back(net.add_pi());
    const NodeId y = net.add_pi();
    NodeId g = net.get_const1();
    for (int i = 0; i < 24; ++i) {
      g = net.add_and(g, i % 2 ? net.add_not(x[i]) : x[i]);
    }
    net.add_po(use_or ? net.add_or(g, y) : net.add_xor(g, y));
    return net;
  };
  const Network a = build(false);
  const Network b = build(true);
  ASSERT_TRUE(random_simulation_equal(a, b, 16));

  obs::Registry::instance().reset();
  obs::ScopedEnable on(true);
  const auto r = check_equivalence_sat(a, b);
  ASSERT_EQ(r.result, EquivalenceResult::NotEquivalent);
  ASSERT_EQ(r.counterexample.size(), a.num_pis());
  EXPECT_NE(simulate(a, r.counterexample)[r.failing_output],
            simulate(b, r.counterexample)[r.failing_output]);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(r.counterexample[i], i == 24 || i % 2 == 0) << "input " << i;
  }
  // Sweep pairs were tried (and refuted) before the one output miter.
  EXPECT_GT(obs::Registry::instance().counter("equiv.sat_calls"), 1u);
  EXPECT_EQ(obs::Registry::instance().counter("equiv.sweep.merged"), 0u);
  EXPECT_EQ(obs::Registry::instance().counter("equiv.po.strashed"), 0u);
}

/// Copy of \p src with gate \p victim (an And2 or Or2) edited: swapped for
/// its dual cell (`flip`), or re-expressed through XOR/XNOR cells with the
/// same function, `NOT(XNOR(OR(x, y), XOR(x, y)))` for AND and
/// `NOT(XNOR(XOR(x, y), AND(x, y)))` for OR. The XNOR is 1 on the all-zero
/// input, so proving it exercises the sweep's complemented merges.
Network edit_gate(const Network& src, NodeId victim, bool flip) {
  Network out(src.name());
  std::vector<NodeId> map(src.size(), kNullNode);
  for (std::size_t i = 0; i < src.num_pis(); ++i) map[src.pi(i)] = out.add_pi();
  for (const NodeId id : src.topo_order()) {
    const Node& n = src.node(id);
    std::vector<NodeId> fanins;
    for (unsigned i = 0; i < n.num_fanins; ++i) fanins.push_back(map[n.fanin(i)]);
    const bool is_and = n.type == GateType::And2;
    switch (n.type) {
      case GateType::Pi: break;
      case GateType::Const0: map[id] = out.get_const0(); break;
      case GateType::Const1: map[id] = out.get_const1(); break;
      case GateType::T1: map[id] = out.add_t1(fanins[0], fanins[1], fanins[2]); break;
      case GateType::T1Port: map[id] = out.add_t1_port(fanins[0], n.port); break;
      default:
        if (id != victim) {
          map[id] = out.add_raw_gate(n.type, fanins);
        } else if (flip) {
          map[id] = out.add_raw_gate(is_and ? GateType::Or2 : GateType::And2, fanins);
        } else {
          const NodeId x = fanins[0], y = fanins[1];
          const NodeId parity = out.add_xor(x, y);
          const NodeId other = is_and ? out.add_or(x, y) : out.add_and(x, y);
          map[id] = out.add_not(out.add_xnor(other, parity));
        }
    }
  }
  for (const NodeId po : src.pos()) out.add_po(map[po]);
  return out;
}

/// Fixed-seed property: a random network against itself with its deepest
/// AND/OR gate edited. A flipped gate's verdict must agree with simulation
/// (exhaustive over 12 inputs, random words over 40), and every
/// counterexample must reproduce the difference at the reported output. A
/// restructured gate keeps the function, so the verdict must be Equivalent.
TEST(Equivalence, DeepGateEditsAgreeWithSimulation) {
  unsigned refuted = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const bool exhaustive = seed % 2 == 0;
    const Network a =
        bench::random_network(seed, exhaustive ? 12 : 40, exhaustive ? 150 : 600);
    const auto level = a.levels();
    NodeId victim = kNullNode;
    for (const NodeId id : a.topo_order()) {
      const GateType t = a.node(id).type;
      if ((t == GateType::And2 || t == GateType::Or2) &&
          (victim == kNullNode || level[id] > level[victim])) {
        victim = id;
      }
    }
    ASSERT_NE(victim, kNullNode) << "seed " << seed;
    EXPECT_EQ(check_equivalence_sat(a, edit_gate(a, victim, false)).result,
              EquivalenceResult::Equivalent)
        << "seed " << seed;

    const Network b = edit_gate(a, victim, true);
    const bool sim_equal = exhaustive ? simulate_truth_tables(a) == simulate_truth_tables(b)
                                      : random_simulation_equal(a, b, 16, seed);
    const auto r = check_equivalence_sat(a, b);
    ASSERT_NE(r.result, EquivalenceResult::Unknown) << "seed " << seed;
    if (exhaustive || !sim_equal) {
      EXPECT_EQ(r.result == EquivalenceResult::Equivalent, sim_equal) << "seed " << seed;
    }
    if (r.result == EquivalenceResult::NotEquivalent) {
      ++refuted;
      ASSERT_EQ(r.counterexample.size(), a.num_pis());
      EXPECT_NE(simulate(a, r.counterexample)[r.failing_output],
                simulate(b, r.counterexample)[r.failing_output])
          << "seed " << seed;
    }
  }
  EXPECT_GT(refuted, 0u);
}

}  // namespace
}  // namespace t1sfq
