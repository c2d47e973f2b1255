#include "network/cut_enumeration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <map>
#include <random>
#include <stdexcept>

#include "benchmarks/random_net.hpp"
#include "core/t1_detection.hpp"
#include "network/truth_table.hpp"

namespace t1sfq {
namespace {

std::vector<NodeId> leaves_of(const Cut& cut) {
  return {cut.leaves().begin(), cut.leaves().end()};
}

/// The cut function as a num_leaves-variable truth table.
TruthTable truth_table(const Cut& cut) {
  TruthTable t(cut.num_leaves);
  t.set_word(0, cut.function);
  return t;
}

/// Finds a cut of `node` with exactly the given leaves; returns its index + 1
/// (0 if absent).
std::size_t find_cut(CutSet cs, std::vector<NodeId> leaves) {
  std::sort(leaves.begin(), leaves.end());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (leaves_of(cs[i]) == leaves) {
      return i + 1;
    }
  }
  return 0;
}

// -- Reference enumerator -----------------------------------------------------
//
// The straightforward formulation the kernel must reproduce cut for cut: heap
// leaf vectors, a std::map for deduplication (the first combination to reach
// a leaf set fixes its function), bitwise function expansion, a stable sort
// by size over the map's lexicographic order.

struct RefCut {
  std::vector<NodeId> leaves;
  TruthTable function;
};

std::vector<NodeId> ref_merge(const std::vector<const std::vector<NodeId>*>& sets,
                              unsigned max_size) {
  std::vector<NodeId> merged;
  for (const auto* s : sets) {
    std::vector<NodeId> next;
    std::set_union(merged.begin(), merged.end(), s->begin(), s->end(),
                   std::back_inserter(next));
    merged = std::move(next);
    if (merged.size() > max_size) {
      return {};
    }
  }
  return merged;
}

TruthTable ref_expand(const TruthTable& f, const std::vector<NodeId>& cut_leaves,
                      const std::vector<NodeId>& merged) {
  std::vector<unsigned> pos(cut_leaves.size());
  for (std::size_t j = 0; j < cut_leaves.size(); ++j) {
    const auto it = std::lower_bound(merged.begin(), merged.end(), cut_leaves[j]);
    assert(it != merged.end() && *it == cut_leaves[j]);
    pos[j] = static_cast<unsigned>(it - merged.begin());
  }
  TruthTable r(static_cast<unsigned>(merged.size()));
  for (std::size_t i = 0; i < r.num_bits(); ++i) {
    std::size_t src = 0;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if ((i >> pos[j]) & 1) {
        src |= std::size_t{1} << j;
      }
    }
    r.set_bit(i, f.get_bit(src));
  }
  return r;
}

std::vector<std::vector<RefCut>> reference_cuts(const Network& net,
                                                const CutEnumerationParams& params) {
  std::vector<std::vector<RefCut>> result(net.size());
  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    std::vector<RefCut> cuts;
    const bool barrier = n.type == GateType::Pi || n.type == GateType::Const0 ||
                         n.type == GateType::Const1 || n.type == GateType::T1 ||
                         n.type == GateType::T1Port;
    if (!barrier) {
      const unsigned arity = n.num_fanins;
      std::vector<std::size_t> idx(arity, 0);
      std::map<std::vector<NodeId>, TruthTable> unique;
      bool done = arity == 0;
      while (!done) {
        std::vector<const std::vector<NodeId>*> leaf_sets(arity);
        for (unsigned i = 0; i < arity; ++i) {
          leaf_sets[i] = &result[n.fanin(i)][idx[i]].leaves;
        }
        auto merged = ref_merge(leaf_sets, params.cut_size);
        if (!merged.empty() && unique.count(merged) == 0) {
          std::array<uint64_t, 3> w{};
          for (unsigned i = 0; i < arity; ++i) {
            const RefCut& c = result[n.fanin(i)][idx[i]];
            w[i] = ref_expand(c.function, c.leaves, merged).word(0);
          }
          TruthTable f(static_cast<unsigned>(merged.size()));
          f.set_word(0, Network::eval_word(n.type, n.port, w[0], w[1], w[2]));
          unique.emplace(std::move(merged), std::move(f));
        }
        unsigned d = 0;
        for (; d < arity; ++d) {
          if (++idx[d] < result[n.fanin(d)].size()) {
            break;
          }
          idx[d] = 0;
        }
        done = d == arity;
      }
      for (auto& [leaves, f] : unique) {
        cuts.push_back({leaves, f});
      }
      std::stable_sort(cuts.begin(), cuts.end(), [](const RefCut& a, const RefCut& b) {
        return a.leaves.size() < b.leaves.size();
      });
      if (cuts.size() > params.max_cuts) {
        cuts.resize(params.max_cuts);
      }
    }
    cuts.push_back({{id}, TruthTable::nth_var(1, 0)});
    result[id] = std::move(cuts);
  }
  return result;
}

/// A random net with every node kind the kernel treats specially: committed
/// T1 bodies and ports (barriers), Not/Buf/Dff chains (pass-through), 3-input
/// gates, repeated fanins, a constant leaf, and dead nodes left in place.
Network oracle_net(uint64_t seed) {
  Network net = bench::random_network(seed, 10, 240, bench::RandomPoPolicy::AllSinks,
                                      /*plant_cone_every=*/10);
  detect_and_replace_t1(net, CellLibrary{});
  EXPECT_GT(net.count_of(GateType::T1), 0u);

  std::mt19937_64 rng(seed);
  std::vector<NodeId> pool = net.topo_order();
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  pool.push_back(net.add_raw_gate(GateType::And2, {pick(), net.get_const1()}));
  for (unsigned k = 0; k < 120; ++k) {
    NodeId n = kNullNode;
    switch (rng() % 8) {
      case 0: {
        n = pick();
        for (unsigned len = 1 + rng() % 3; len-- > 0;) {
          const GateType t = len % 2 == 0 ? GateType::Dff : GateType::Buf;
          n = net.add_raw_gate(t, {n});
        }
        break;
      }
      case 1:
        n = net.add_raw_gate(GateType::Not, {net.add_raw_gate(GateType::Not, {pick()})});
        break;
      case 2: n = net.add_raw_gate(GateType::Xor2, {pick(), pick()}); break;
      case 3: n = net.add_raw_gate(GateType::Nor2, {pick(), pick()}); break;
      case 4: n = net.add_raw_gate(GateType::Maj3, {pick(), pick(), pick()}); break;
      case 5: n = net.add_raw_gate(GateType::Xor3, {pick(), pick(), pick()}); break;
      case 6: n = net.add_raw_gate(GateType::Or3, {pick(), pick(), pick()}); break;
      case 7: {
        const NodeId x = pick();
        n = net.add_raw_gate(GateType::And2, {x, x});
        break;
      }
    }
    pool.push_back(n);
  }
  for (unsigned k = 0; k < 6; ++k) {
    net.add_po(pool[pool.size() - 1 - 7 * k]);
  }
  EXPECT_GT(net.sweep_dangling(), 0u);  // unreachable nodes stay as dead entries
  return net;
}

void expect_matches_reference(const Network& net, const CutEnumerationParams& p) {
  const NetworkCuts cuts = enumerate_cuts(net, p);
  const auto ref = reference_cuts(net, p);
  ASSERT_EQ(cuts.size(), net.size());
  for (NodeId id = 0; id < net.size(); ++id) {
    const CutSet mine = cuts[id];
    ASSERT_EQ(mine.size(), ref[id].size()) << "node " << id;
    if (net.is_dead(id)) {
      EXPECT_TRUE(mine.empty()) << "dead node " << id;
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      ASSERT_EQ(leaves_of(mine[i]), ref[id][i].leaves) << "node " << id << " cut " << i;
      ASSERT_EQ(truth_table(mine[i]), ref[id][i].function) << "node " << id << " cut " << i;
      ASSERT_EQ(mine[i].function, ref[id][i].function.extend_to(4).word(0))
          << "node " << id << " cut " << i;
    }
  }
}

TEST(CutEnumeration, MatchesReferenceEnumeratorCutForCut) {
  for (const uint64_t seed : {3u, 17u, 40u}) {
    const Network net = oracle_net(seed);
    for (const unsigned cut_size : {2u, 3u, 4u}) {
      for (const unsigned max_cuts : {1u, 3u, 16u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " k=" + std::to_string(cut_size) +
                     " max_cuts=" + std::to_string(max_cuts));
        CutEnumerationParams p;
        p.cut_size = cut_size;
        p.max_cuts = max_cuts;
        expect_matches_reference(net, p);
      }
    }
  }
}

TEST(CutEnumeration, CallerTopoOrderGivesTheSameCuts) {
  const Network net = oracle_net(5);
  const std::vector<NodeId> order = net.topo_order();
  const NetworkCuts a = enumerate_cuts(net);
  const NetworkCuts b = enumerate_cuts(net, CutEnumerationParams{}, order);
  for (NodeId id = 0; id < net.size(); ++id) {
    ASSERT_TRUE(std::equal(a[id].begin(), a[id].end(), b[id].begin(), b[id].end(),
                           [](const Cut& x, const Cut& y) {
                             return x.leaf == y.leaf && x.num_leaves == y.num_leaves &&
                                    x.function == y.function;
                           }));
  }
}

TEST(CutEnumeration, CutSizeAboveFourThrows) {
  Network net;
  net.add_po(net.add_and(net.add_pi(), net.add_pi()));
  CutEnumerationParams p;
  p.cut_size = kMaxCutSize + 1;
  EXPECT_THROW(enumerate_cuts(net, p), std::invalid_argument);
  p.cut_size = kMaxCutSize;
  EXPECT_NO_THROW(enumerate_cuts(net, p));
}

TEST(CutEnumeration, TrivialCutAlwaysPresent) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  net.add_po(g);
  const auto cuts = enumerate_cuts(net);
  EXPECT_TRUE(find_cut(cuts[a], {a}));
  EXPECT_TRUE(find_cut(cuts[g], {g}));
}

TEST(CutEnumeration, SingleGateCut) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  net.add_po(g);
  const auto cuts = enumerate_cuts(net);
  const std::size_t idx = find_cut(cuts[g], {a, b});
  ASSERT_TRUE(idx);
  EXPECT_EQ(truth_table(cuts[g][idx - 1]).to_binary(), "1000");
}

TEST(CutEnumeration, FullAdderSumCutIsXor3) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId axb = net.add_xor(a, b);
  const NodeId sum = net.add_xor(axb, c);
  const NodeId carry = net.add_or(net.add_and(a, b), net.add_and(axb, c));
  net.add_po(sum);
  net.add_po(carry);
  const auto cuts = enumerate_cuts(net);

  const std::size_t s = find_cut(cuts[sum], {a, b, c});
  ASSERT_TRUE(s);
  // Function variables are ordered by ascending leaf id = (a, b, c).
  EXPECT_EQ(truth_table(cuts[sum][s - 1]), tt3::xor3());

  const std::size_t k = find_cut(cuts[carry], {a, b, c});
  ASSERT_TRUE(k);
  EXPECT_EQ(truth_table(cuts[carry][k - 1]), tt3::maj3());
}

TEST(CutEnumeration, RespectsCutSizeLimit) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 4; ++i) {
    pis.push_back(net.add_pi());
  }
  const NodeId g1 = net.add_and(pis[0], pis[1]);
  const NodeId g2 = net.add_and(pis[2], pis[3]);
  const NodeId top = net.add_and(g1, g2);
  net.add_po(top);
  CutEnumerationParams p;
  p.cut_size = 3;
  const auto cuts = enumerate_cuts(net, p);
  for (const auto& cut : cuts[top]) {
    EXPECT_LE(cut.num_leaves, 3u);
  }
  // The 4-leaf cut {pis...} must be absent with cut_size 3.
  EXPECT_FALSE(find_cut(cuts[top], pis));
  // With cut_size 4 it appears, with the AND4 function.
  p.cut_size = 4;
  const auto cuts4 = enumerate_cuts(net, p);
  const std::size_t idx = find_cut(cuts4[top], pis);
  ASSERT_TRUE(idx);
  EXPECT_EQ(cuts4[top][idx - 1].function, 0x8000u);
}

TEST(CutEnumeration, NotGateCutFunctionIsComplemented) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  const NodeId n = net.add_not(g);
  net.add_po(n);
  const auto cuts = enumerate_cuts(net);
  const std::size_t idx = find_cut(cuts[n], {a, b});
  ASSERT_TRUE(idx);
  EXPECT_EQ(truth_table(cuts[n][idx - 1]).to_binary(), "0111");  // NAND
}

TEST(CutEnumeration, T1BodiesAreBarriers) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t1 = net.add_t1(a, b, c);
  const NodeId s = net.add_t1_port(t1, T1PortFn::Sum);
  const NodeId top = net.add_and(s, a);
  net.add_po(top);
  const auto cuts = enumerate_cuts(net);
  // The port's only cut is trivial; the AND sees {s, a} but never {a, b, c...}.
  EXPECT_EQ(cuts[s].size(), 1u);
  EXPECT_TRUE(find_cut(cuts[top], {s, a}));
  EXPECT_FALSE(find_cut(cuts[top], {a, b, c}));
}

TEST(CutEnumeration, MaxCutsTruncates) {
  // A node over many reconvergent paths can have many cuts; max_cuts caps it.
  Network net;
  std::vector<NodeId> layer;
  for (int i = 0; i < 6; ++i) {
    layer.push_back(net.add_pi());
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); ++i) {
      next.push_back(net.add_xor(layer[i], layer[i + 1]));
    }
    layer = next;
  }
  net.add_po(layer[0]);
  CutEnumerationParams p;
  p.cut_size = 4;
  p.max_cuts = 3;
  const auto cuts = enumerate_cuts(net, p);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id)) {
      EXPECT_LE(cuts[id].size(), p.max_cuts + 1);  // +1 for the trivial cut
    }
  }
}

}  // namespace
}  // namespace t1sfq
