#pragma once
/// \file cut_enumeration.hpp
/// \brief Priority k-cut enumeration with truth-table computation (paper §II-A).
///
/// Classic bottom-up cut enumeration (Cong et al., FPGA'99 — reference [8] of
/// the paper): the cut set of a node is the cross product of its fanins' cut
/// sets, filtered to at most `cut_size` leaves, deduplicated, pruned to the
/// `max_cuts` best cuts by size, and always including the trivial cut {node}.
/// Each cut carries the truth table of the root as a function of the cut
/// leaves (leaf i = variable i, leaves sorted ascending by NodeId), which is
/// exactly what Boolean matching against the T1 function set consumes.
///
/// Cuts are fixed-size values (at most `kMaxCutSize` leaves inline, the
/// function in one 16-bit word) and the cut sets of the whole network live in
/// one contiguous array, so enumeration makes no per-cut heap allocation.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"

namespace t1sfq {

/// Largest supported `CutEnumerationParams::cut_size`: a cut function must
/// fit one 16-bit truth-table word.
inline constexpr unsigned kMaxCutSize = 4;

struct Cut {
  std::array<NodeId, kMaxCutSize> leaf{};  ///< first num_leaves sorted ascending, rest 0
  uint8_t num_leaves = 0;
  /// Root function over the leaves (var i = leaf[i]) extended to 4 variables:
  /// variables >= num_leaves are don't-cares, so the low 2^num_leaves bits
  /// are the function itself and the whole word is its 4-variable extension.
  uint16_t function = 0;

  std::span<const NodeId> leaves() const { return {leaf.data(), num_leaves}; }
};

struct CutEnumerationParams {
  unsigned cut_size = 3;   ///< max leaves per cut (the T1 cell has 3 data inputs); <= kMaxCutSize
  unsigned max_cuts = 16;  ///< priority cuts kept per node (trivial cut not counted)
};

/// A node's cuts: non-trivial cuts ordered by leaf count, then
/// lexicographically by leaves; the trivial cut last.
using CutSet = std::span<const Cut>;

/// The cut sets of a whole network in one array, one [begin, end) range per
/// node. Index = NodeId; dead nodes have an empty set.
class NetworkCuts {
public:
  CutSet operator[](NodeId id) const {
    return {cuts_.data() + range_[id].first, cuts_.data() + range_[id].second};
  }
  /// Number of nodes covered (the network size at enumeration time).
  std::size_t size() const { return range_.size(); }

private:
  friend NetworkCuts enumerate_cuts(const Network&, const CutEnumerationParams&,
                                    std::span<const NodeId>);
  std::vector<Cut> cuts_;
  std::vector<std::pair<uint32_t, uint32_t>> range_;
};

/// Enumerates cuts for every live node. T1 bodies and ports act as cut
/// barriers (their cut set contains only the trivial cut): T1 regions, once
/// committed, are not re-decomposed. Throws std::invalid_argument when
/// `params.cut_size > kMaxCutSize`. \p topo_order is `net.topo_order()` when
/// the caller already holds it; empty computes it here.
NetworkCuts enumerate_cuts(const Network& net, const CutEnumerationParams& params = {},
                           std::span<const NodeId> topo_order = {});

}  // namespace t1sfq
