#include "opt/balancing.hpp"

#include "cost/cost_model.hpp"
#include "incr/incremental_view.hpp"
#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

namespace t1sfq {

namespace {

enum class Family { None, And, Or, Xor };

Family family_of(GateType type) {
  switch (type) {
    case GateType::And2:
    case GateType::And3:
      return Family::And;
    case GateType::Or2:
    case GateType::Or3:
      return Family::Or;
    case GateType::Xor2:
    case GateType::Xor3:
      return Family::Xor;
    default:
      return Family::None;
  }
}

GateType binary_op(Family f) {
  return f == Family::And ? GateType::And2
         : f == Family::Or ? GateType::Or2
                           : GateType::Xor2;
}

GateType ternary_op(Family f) {
  return f == Family::And ? GateType::And3
         : f == Family::Or ? GateType::Or3
                           : GateType::Xor3;
}

/// Greedy Huffman-style combine on arrival levels. When `use_ternary`, the
/// operand count is first padded with binary combines so the remainder packs
/// into 3-input cells exactly (k-ary Huffman validity: (k-1) divisible by 2).
/// Returns {root level, jj cost of the created tree} without touching the
/// network when `net == nullptr`, otherwise materializes and returns the root
/// in `*root_out`.
struct TreePlan {
  uint32_t level = 0;
  uint64_t jj = 0;
};

TreePlan combine_tree(Family family, bool use_ternary, const CostModel& model,
                      std::vector<std::pair<uint32_t, NodeId>> operands,
                      IncrementalView* view, NodeId* root_out) {
  const uint64_t jj2 = static_cast<uint64_t>(model.cell_jj(binary_op(family)));
  const uint64_t jj3 = static_cast<uint64_t>(model.cell_jj(ternary_op(family)));
  using Item = std::pair<uint32_t, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue(
      std::greater<Item>{}, std::move(operands));
  TreePlan plan;

  const auto combine = [&](unsigned arity) {
    std::vector<Item> picked;
    for (unsigned i = 0; i < arity; ++i) {
      picked.push_back(queue.top());
      queue.pop();
    }
    const uint32_t level = picked.back().first + 1;  // max: queue pops ascending
    NodeId id = kNullNode;
    if (view) {
      std::vector<NodeId> fanins;
      for (const Item& it : picked) {
        fanins.push_back(it.second);
      }
      id = view->net().add_gate(arity == 2 ? binary_op(family) : ternary_op(family),
                                fanins);
      view->sync();
    }
    plan.jj += arity == 2 ? jj2 : jj3;
    queue.push({level, id});
  };

  if (use_ternary) {
    while (queue.size() > 1 && (queue.size() - 1) % 2 != 0) {
      combine(2);
    }
    while (queue.size() > 1) {
      combine(3);
    }
  } else {
    while (queue.size() > 1) {
      combine(2);
    }
  }
  plan.level = queue.top().first;
  if (root_out) {
    *root_out = queue.top().second;
  }
  return plan;
}

}  // namespace

std::size_t BalancingPass::run(Network& net) {
  const CostModel model = params_.cost();
  // Levels, fanouts and consumer lists all come from the incremental view;
  // commits keep them fresh at affected-cone cost (previously three full
  // recomputes per commit).
  IncrementalView view(net, model);
  std::size_t applied = 0;

  for (const NodeId root : net.topo_order()) {
    if (net.is_dead(root) || view.fanout(root) == 0) continue;
    const Family family = family_of(net.node(root).type);
    if (family == Family::None) continue;
    // Only maximal chain tops: a single-fanout node feeding a same-family
    // consumer is collapsed when that consumer is processed.
    if (view.fanout(root) == 1 && view.consumers(root).size() == 1 &&
        family_of(net.node(view.consumers(root)[0]).type) == family) {
      continue;
    }

    // Collapse the maximal single-fanout chain into an operand list.
    std::vector<NodeId> operands;
    uint64_t old_jj = 0;
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      const Node& n = net.node(id);
      old_jj += static_cast<uint64_t>(model.cell_jj(n.type));
      for (uint8_t i = 0; i < n.num_fanins; ++i) {
        const NodeId f = n.fanin(i);
        if (family_of(net.node(f).type) == family && view.fanout(f) == 1) {
          stack.push_back(f);
        } else {
          operands.push_back(f);
        }
      }
    }
    if (operands.size() <= 2 || operands.size() > 128) continue;
    const NodeId size_before = static_cast<NodeId>(net.size());

    // Algebraic cleanup. Operands are tracked as (base, phase): an explicit
    // inverter operand contributes its fanin with phase 1.
    bool invert_output = false;  // XOR only: parity absorbed from phases/pairs
    NodeId folded_const = kNullNode;
    uint64_t extra_jj = 0;  // inverters freshly created while keeping operands
    std::vector<std::pair<uint32_t, NodeId>> kept;
    {
      std::unordered_map<NodeId, unsigned> seen;  // base -> phase mask (bit0/bit1)
      std::unordered_map<NodeId, unsigned> parity;
      std::vector<NodeId> base_order;
      for (const NodeId op : operands) {
        const Node& n = net.node(op);
        const bool neg = n.type == GateType::Not;
        const NodeId base = neg ? n.fanin(0) : op;
        if (!seen.count(base)) base_order.push_back(base);
        seen[base] |= neg ? 2u : 1u;
        if (family == Family::Xor) {
          parity[base] ^= 1u;
          invert_output ^= neg;
        }
      }
      for (const NodeId base : base_order) {
        const unsigned mask = seen[base];
        if (family == Family::Xor) {
          if (parity[base] & 1) {
            kept.push_back({view.level(base), base});
          }
        } else if (mask == 3u) {
          // x and NOT x in the same And/Or chain: constant.
          folded_const =
              family == Family::And ? net.get_const0() : net.get_const1();
          break;
        } else {
          // Usually strash returns the chain's own inverter, but an earlier
          // commit may have rewired it (stale hash bucket) and a fresh node
          // can appear: sync the view and bill its cost.
          const std::size_t nodes_before = net.size();
          const NodeId op = mask == 2u ? net.add_not(base) : base;
          if (net.size() > nodes_before) {
            view.sync();
            extra_jj += static_cast<uint64_t>(model.cell_jj(GateType::Not));
          }
          kept.push_back({view.level(op), op});
        }
      }
    }

    NodeId new_root = kNullNode;
    uint32_t new_level = 0;
    if (folded_const != kNullNode) {
      new_root = folded_const;
    } else if (kept.empty()) {
      new_root = invert_output ? net.get_const1() : net.get_const0();
    } else if (kept.size() == 1) {
      new_root = invert_output ? net.add_not(kept[0].second) : kept[0].second;
      view.sync();
      new_level = view.level(new_root);
    } else {
      const uint64_t jj_not =
          invert_output ? static_cast<uint64_t>(model.cell_jj(GateType::Not)) : 0;
      const TreePlan ternary =
          combine_tree(family, true, model, kept, nullptr, nullptr);
      const TreePlan binary =
          combine_tree(family, false, model, kept, nullptr, nullptr);
      const bool pick_ternary = ternary.level < binary.level ||
                                (ternary.level == binary.level && ternary.jj <= binary.jj);
      const TreePlan& plan = pick_ternary ? ternary : binary;
      const uint32_t plan_level = plan.level + (invert_output ? 1 : 0);
      const uint64_t plan_jj = plan.jj + jj_not + extra_jj;
      // Commit only on strict improvement in (level, JJ) with neither axis
      // regressing: depth and area both stay monotone under this pass.
      if (plan_level > view.level(root) || plan_jj > old_jj ||
          (plan_level == view.level(root) && plan_jj == old_jj)) {
        view.kill_dangling_from(size_before);  // retract cleanup inverters
        continue;
      }
      combine_tree(family, pick_ternary, model, kept, &view, &new_root);
      if (invert_output) {
        new_root = net.add_not(new_root);
      }
      view.sync();
      new_level = view.level(new_root);
    }

    view.sync();  // covers constants created by the folding paths
    if (new_root == kNullNode || new_root == root ||
        new_level > view.level(root)) {  // realized worse than planned: abandon
      view.kill_dangling_from(size_before);
      continue;
    }
    view.replace(root, new_root);
    ++applied;
  }

  net.sweep_dangling();
  return applied;
}

}  // namespace t1sfq
