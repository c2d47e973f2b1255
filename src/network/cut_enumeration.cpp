#include "network/cut_enumeration.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace t1sfq {

namespace {

/// Projection words of the four cut variables (bit i = value of var v on
/// minterm i).
constexpr std::array<uint16_t, kMaxCutSize> kVarMask = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

/// Union of the sorted leaves of \p a and \p b into \p out; false as soon as
/// the union has more than \p max_size leaves.
bool merge_leaves(const Cut& a, const Cut& b, unsigned max_size, Cut& out) {
  std::array<NodeId, kMaxCutSize> merged{};
  unsigned n = 0, ia = 0, ib = 0;
  while (ia < a.num_leaves || ib < b.num_leaves) {
    NodeId v;
    if (ib == b.num_leaves || (ia < a.num_leaves && a.leaf[ia] < b.leaf[ib])) {
      v = a.leaf[ia++];
    } else if (ia == a.num_leaves || b.leaf[ib] < a.leaf[ia]) {
      v = b.leaf[ib++];
    } else {
      v = a.leaf[ia++];
      ++ib;
    }
    if (n == max_size) {
      return false;
    }
    merged[n++] = v;
  }
  out.leaf = merged;
  out.num_leaves = static_cast<uint8_t>(n);
  return true;
}

/// Re-expresses the function of \p sub over the leaves of \p merged (a
/// superset). Each variable moves from its slot in \p sub to its slot in
/// \p merged by a delta swap with the (don't-care) target slot, highest first.
uint16_t expand_function(const Cut& sub, const Cut& merged) {
  std::array<unsigned, kMaxCutSize> pos{};
  for (unsigned k = 0, j = 0; j < sub.num_leaves; ++k) {
    if (merged.leaf[k] == sub.leaf[j]) {
      pos[j++] = k;
    }
  }
  uint16_t f = sub.function;
  for (unsigned v = sub.num_leaves; v-- > 0 && pos[v] != v;) {
    const unsigned p = pos[v];
    const uint16_t up = kVarMask[v] & ~kVarMask[p];
    const uint16_t down = ~kVarMask[v] & kVarMask[p];
    const unsigned shift = (1u << p) - (1u << v);
    f = static_cast<uint16_t>((f & ~(up | down)) | ((f & up) << shift) | ((f & down) >> shift));
  }
  return f;
}

bool less_by_size_then_leaves(const Cut& a, const Cut& b) {
  if (a.num_leaves != b.num_leaves) {
    return a.num_leaves < b.num_leaves;
  }
  return a.leaf < b.leaf;
}

}  // namespace

NetworkCuts enumerate_cuts(const Network& net, const CutEnumerationParams& params,
                           std::span<const NodeId> topo_order) {
  if (params.cut_size > kMaxCutSize) {
    throw std::invalid_argument("enumerate_cuts: cut_size " + std::to_string(params.cut_size) +
                                " exceeds " + std::to_string(kMaxCutSize));
  }
  std::vector<NodeId> own_order;
  if (topo_order.empty()) {
    own_order = net.topo_order();
    topo_order = own_order;
  }
  NetworkCuts result;
  result.range_.assign(net.size(), {0, 0});
  result.cuts_.reserve(topo_order.size() * 4);
  std::vector<Cut> node_cuts;  // one node's cuts; reused, so no per-cut allocation

  for (const NodeId id : topo_order) {
    const Node& n = net.node(id);
    node_cuts.clear();
    const bool barrier = n.type == GateType::Pi || n.type == GateType::Const0 ||
                         n.type == GateType::Const1 || n.type == GateType::T1 ||
                         n.type == GateType::T1Port;

    if (!barrier && n.num_fanins > 0) {
      // Cross product of fanin cut sets, fanin 0 varying fastest; a missing
      // fanin contributes one empty cut. The first combination producing a
      // leaf set fixes its function. Pairs of fanins 1 and 2 that already
      // overflow skip the whole fanin-0 sweep.
      const unsigned arity = n.num_fanins;
      const Cut none;
      const CutSet c0 = result[n.fanin(0)];
      const CutSet c1 = arity > 1 ? result[n.fanin(1)] : CutSet(&none, 1);
      const CutSet c2 = arity > 2 ? result[n.fanin(2)] : CutSet(&none, 1);
      for (const Cut& x2 : c2) {
        for (const Cut& x1 : c1) {
          Cut upper;
          if (!merge_leaves(x1, x2, params.cut_size, upper)) continue;
          for (const Cut& x0 : c0) {
            Cut merged;
            if (!merge_leaves(x0, upper, params.cut_size, merged) ||
                std::any_of(node_cuts.begin(), node_cuts.end(), [&](const Cut& c) {
                  return c.num_leaves == merged.num_leaves && c.leaf == merged.leaf;
                })) {
              continue;
            }
            const uint64_t a = expand_function(x0, merged);
            const uint64_t b = arity > 1 ? expand_function(x1, merged) : 0;
            const uint64_t c = arity > 2 ? expand_function(x2, merged) : 0;
            merged.function = static_cast<uint16_t>(Network::eval_word(n.type, n.port, a, b, c));
            node_cuts.push_back(merged);
          }
        }
      }
      // Prefer small cuts; keep at most max_cuts non-trivial cuts.
      std::sort(node_cuts.begin(), node_cuts.end(), less_by_size_then_leaves);
      if (node_cuts.size() > params.max_cuts) {
        node_cuts.resize(params.max_cuts);
      }
    }

    Cut trivial;
    trivial.leaf[0] = id;
    trivial.num_leaves = 1;
    trivial.function = kVarMask[0];
    node_cuts.push_back(trivial);
    const auto begin = static_cast<uint32_t>(result.cuts_.size());
    result.cuts_.insert(result.cuts_.end(), node_cuts.begin(), node_cuts.end());
    result.range_[id] = {begin, static_cast<uint32_t>(result.cuts_.size())};
  }
  return result;
}

}  // namespace t1sfq
