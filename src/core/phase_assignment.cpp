#include "core/phase_assignment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>

#include "incr/incremental_view.hpp"
#include "obs/metrics.hpp"
#include "solver/milp.hpp"

namespace t1sfq {

namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

bool is_scheduled(GateType t) { return is_clocked(t); }

bool is_const(const Network& net, NodeId id) {
  const GateType t = net.node(id).type;
  return t == GateType::Const0 || t == GateType::Const1;
}

/// DFFs on a dedicated chain from a producer at \p sd to an exact landing
/// stage \p t (T1 input slots); kInf when infeasible.
int64_t landing_chain_cost(Stage sd, Stage t, Stage n) {
  if (t < sd) {
    return kInf;
  }
  if (t == sd) {
    return 0;
  }
  const Stage gap = t - sd;
  return gap % n == 0 ? gap / n : gap / n + 1;
}

}  // namespace

std::array<int, 3> t1_slot_perm(const Network& net, const std::vector<Stage>& stage,
                                NodeId t1, Stage n, int64_t* cost_out) {
  const Node& body = net.node(t1);
  const Stage sj = stage[t1];
  std::array<Stage, 3> sd;
  for (unsigned i = 0; i < 3; ++i) {
    sd[i] = stage[resolve_producer(net, body.fanin(i))];
  }
  std::array<int, 3> slots{1, 2, 3};
  std::array<int, 3> best = slots;
  int64_t best_cost = kInf;
  std::array<int, 3> perm{1, 2, 3};
  do {
    int64_t cost = 0;
    for (unsigned i = 0; i < 3 && cost < kInf; ++i) {
      const int64_t c = landing_chain_cost(sd[i], sj - perm[i], n);
      cost = c >= kInf ? kInf : cost + c;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (cost_out) {
    *cost_out = best_cost;
  }
  return best;
}

NodeId resolve_producer(const Network& net, NodeId id) {
  NodeId cur = id;
  for (;;) {
    const Node& n = net.node(cur);
    if (n.type == GateType::T1Port || n.type == GateType::Buf) {
      cur = n.fanin(0);
    } else {
      return cur;
    }
  }
}

NodeId driver_key(const Network& net, NodeId id) {
  NodeId cur = id;
  while (net.node(cur).type == GateType::Buf) {
    cur = net.node(cur).fanin(0);
  }
  return cur;
}

int64_t InsertionPlan::total_dffs() const {
  int64_t total = dedicated_landings;
  for (const Stage s : spine_len) {
    total += s;
  }
  return total;
}

InsertionPlan plan_dffs(const Network& net, const std::vector<Stage>& stage,
                        Stage output_stage, const MultiphaseConfig& clk) {
  InsertionPlan plan;
  plan.spine_len.assign(net.size(), 0);
  const Stage n = static_cast<Stage>(clk.phases);

  // Spines are indexed by the physical pin (driver_key): two ports of the
  // same T1 body carry different signals and never share a chain.
  const auto raise_spine = [&](NodeId key, Stage req) {
    if (!is_const(net, resolve_producer(net, key))) {
      plan.spine_len[key] = std::max(plan.spine_len[key], req);
    }
  };
  const auto stage_of = [&](NodeId key) { return stage[resolve_producer(net, key)]; };

  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1) {
      int64_t cost = 0;
      const auto slots = t1_slot_perm(net, stage, id, n, &cost);
      assert(cost < kInf && "infeasible T1 slot assignment");
      plan.t1_slots[id] = slots;
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        const Stage sd = stage_of(key);
        const Stage t = stage[id] - slots[i];
        if (t == sd || is_const(net, resolve_producer(net, key))) {
          continue;
        }
        const Stage gap = t - sd;
        if (gap % n == 0) {
          raise_spine(key, gap / n);
        } else {
          raise_spine(key, gap / n);
          ++plan.dedicated_landings;
        }
      }
    } else if (is_scheduled(node.type)) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId key = driver_key(net, node.fanin(i));
        raise_spine(key, clk.dffs_on_edge(stage_of(key), stage[id]));
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId key = driver_key(net, po);
    raise_spine(key, clk.dffs_on_edge(stage_of(key), output_stage));
  }
  return plan;
}

bool assignment_feasible(const Network& net, const std::vector<Stage>& stage,
                         Stage output_stage, const MultiphaseConfig& clk) {
  const Stage n = static_cast<Stage>(clk.phases);
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1) {
      if (n < 4) {
        return false;  // slots {1,2,3} need gap <= n-1 on the landing hop
      }
      std::array<Stage, 3> s;
      for (unsigned i = 0; i < 3; ++i) {
        const NodeId d = resolve_producer(net, node.fanin(i));
        if (is_const(net, d)) {
          return false;  // constant pulses into the loop are not supported
        }
        s[i] = stage[d];
      }
      std::sort(s.begin(), s.end());
      // Paper eq. 3.
      if (stage[id] < std::max({s[0] + 3, s[1] + 2, s[2] + 1})) {
        return false;
      }
    } else if (is_scheduled(node.type)) {
      if (stage[id] < 0) {
        return false;
      }
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId d = resolve_producer(net, node.fanin(i));
        if (!is_const(net, d) && stage[id] < stage[d] + 1) {
          return false;
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId d = resolve_producer(net, po);
    if (!is_const(net, d) && output_stage < stage[d] + 1) {
      return false;
    }
  }
  return true;
}

Stage sched_local_lower_bound(const Network& net, const std::vector<Stage>& stage,
                              NodeId u) {
  const Node& node = net.node(u);
  if (node.type == GateType::T1) {
    std::array<Stage, 3> s;
    for (unsigned i = 0; i < 3; ++i) {
      s[i] = stage[resolve_producer(net, node.fanin(i))];
    }
    std::sort(s.begin(), s.end());
    return std::max({s[0] + 3, s[1] + 2, s[2] + 1});
  }
  Stage lo = 0;
  for (uint8_t i = 0; i < node.num_fanins; ++i) {
    const NodeId d = resolve_producer(net, node.fanin(i));
    if (!is_const(net, d)) {
      lo = std::max(lo, stage[d] + 1);
    }
  }
  return lo;
}

Stage sched_t1_max_input_stage(const Network& net, const std::vector<Stage>& stage,
                               NodeId j, NodeId u) {
  const Node& body = net.node(j);
  std::array<Stage, 3> others;
  std::size_t num_others = 0;
  for (unsigned i = 0; i < 3; ++i) {
    const NodeId d = resolve_producer(net, body.fanin(i));
    if (d != u) {
      others[num_others++] = stage[d];
    }
  }
  const Stage sj = stage[j];
  const auto feasible = [&](Stage x) {
    std::array<Stage, 4> s;
    std::copy(others.begin(), others.begin() + num_others, s.begin());
    // Fanins from the same driver appear once in `others`; pad with x.
    const std::size_t len = std::max<std::size_t>(num_others + 1, 3);
    std::fill(s.begin() + num_others, s.begin() + len, x);
    for (std::size_t a = 1; a < len; ++a) {  // insertion sort of <= 4 stages
      for (std::size_t b = a; b > 0 && s[b] < s[b - 1]; --b) {
        std::swap(s[b], s[b - 1]);
      }
    }
    return sj >= std::max({s[0] + 3, s[1] + 2, s[2] + 1});
  };
  for (Stage x = sj - 1; x >= sj - 3; --x) {
    if (feasible(x)) {
      return x;
    }
  }
  return sj - 3;  // always feasible as the smallest slot candidate
}

namespace {

/// One list per node, all in one array: list v is items[offset[v], offset[v+1]).
struct NodeLists {
  std::vector<uint32_t> offset;
  std::vector<NodeId> items;

  std::span<const NodeId> operator[](NodeId v) const {
    return {items.data() + offset[v], items.data() + offset[v + 1]};
  }

  /// Builds the lists from \p emit(add), which must call add(v, item) in the
  /// same sequence twice (a counting pass, then a filling pass).
  template <typename Emit>
  void build(std::size_t size, Emit&& emit) {
    offset.assign(size + 1, 0);
    emit([&](NodeId v, NodeId) { ++offset[v + 1]; });
    for (std::size_t v = 0; v < size; ++v) offset[v + 1] += offset[v];
    items.resize(offset[size]);
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    emit([&](NodeId v, NodeId item) { items[cursor[v]++] = item; });
  }
};

/// Scheduling context: consumer lists per physical pin (driver_key), plus the
/// pin list of every scheduled element.
struct SchedContext {
  const Network& net;
  MultiphaseConfig clk;
  Stage output_stage;
  /// Consumers (clocked element ids) per pin; kNullNode marks the sink.
  NodeLists consumers;
  /// Pins owned by each scheduled element (itself, or its T1 ports).
  NodeLists pins;

  SchedContext(const Network& n, const MultiphaseConfig& c, Stage out)
      : net(n), clk(c), output_stage(out) {
    const std::vector<NodeId> order = net.topo_order();
    pins.build(net.size(), [&](auto&& add) {
      for (const NodeId id : order) {
        switch (net.node(id).type) {
          case GateType::T1Port:
            add(resolve_producer(net, id), id);  // pin of its body
            break;
          case GateType::T1:
            break;  // pins are the ports, collected above
          case GateType::Buf:
            break;  // transparent
          default:
            add(id, id);  // gates, DFFs, PIs, constants: one pin
        }
      }
    });
    consumers.build(net.size(), [&](auto&& add) {
      for (const NodeId id : order) {
        const Node& node = net.node(id);
        if (is_scheduled(node.type)) {
          for (uint8_t i = 0; i < node.num_fanins; ++i) {
            add(driver_key(net, node.fanin(i)), id);
          }
        }
      }
      for (const NodeId po : net.pos()) {
        add(driver_key(net, po), kNullNode);
      }
    });
  }

  Stage stage_of(const std::vector<Stage>& stage, NodeId key) const {
    return stage[resolve_producer(net, key)];
  }

  /// Spine DFFs consumer \p j (kNullNode: the sink) asks of pin \p key whose
  /// producer sits at \p sd.
  Stage spine_demand(const std::vector<Stage>& stage, NodeId key, Stage sd, NodeId j) const {
    if (j == kNullNode) {
      return clk.dffs_on_edge(sd, output_stage);
    }
    if (net.node(j).type != GateType::T1) {
      return clk.dffs_on_edge(sd, stage[j]);
    }
    const Stage n = static_cast<Stage>(clk.phases);
    const auto slots = t1_slot_perm(net, stage, j, n);
    const Node& body = net.node(j);
    Stage req = 0;
    for (unsigned i = 0; i < 3; ++i) {
      if (driver_key(net, body.fanin(i)) != key) continue;
      const Stage t = stage[j] - slots[i];
      if (t > sd) {
        req = std::max(req, (t - sd) / n);  // spine part only
      }
    }
    return req;
  }

  /// Exact spine length of pin `key` under the current stages.
  Stage spine(const std::vector<Stage>& stage, NodeId key) const {
    if (is_const(net, resolve_producer(net, key))) {
      return 0;
    }
    const Stage sd = stage_of(stage, key);
    Stage req = 0;
    for (const NodeId j : consumers[key]) {
      req = std::max(req, spine_demand(stage, key, sd, j));
    }
    return req;
  }

  /// All spines hanging off the pins of scheduled element `d`.
  Stage element_spines(const std::vector<Stage>& stage, NodeId d) const {
    Stage total = 0;
    for (const NodeId key : pins[d]) {
      total += spine(stage, key);
    }
    return total;
  }

  /// Dedicated landing DFFs of one T1 body under the current stages.
  int64_t dedicated(const std::vector<Stage>& stage, NodeId t1) const {
    const Stage n = static_cast<Stage>(clk.phases);
    const auto slots = t1_slot_perm(net, stage, t1, n);
    const Node& body = net.node(t1);
    int64_t count = 0;
    for (unsigned i = 0; i < 3; ++i) {
      const NodeId d = resolve_producer(net, body.fanin(i));
      const Stage t = stage[t1] - slots[i];
      if (t > stage[d] && (t - stage[d]) % n != 0) {
        ++count;
      }
    }
    return count;
  }
};

/// Conservative eq.-3-aware ALAP of every scheduled element under the sink
/// stage \p out: the latest stage each element can take while every consumer
/// stays feasible when nothing else moves (T1 fanins bounded by the smallest
/// landing slot). Mirrors `IncrementalView::compute_alap` (over SchedContext
/// pins instead of the view's consumer lists, honoring an `output_slack`-
/// extended sink) — the two recurrences MUST stay in lockstep: the
/// view-seeded and from-scratch scheduler paths are pinned identical by
/// tests, and a bound tightened in only one copy would silently under-mark
/// the other's first sweep. `alap[u] - asap[u]` seeds the incremental
/// scheduler's first sweep: a zero-slack node's move window is provably
/// empty until a neighbour's committed move re-opens it.
std::vector<Stage> sched_alap(const Network& net, const SchedContext& ctx,
                              const std::vector<Stage>& asap, Stage out) {
  std::vector<Stage> alap(net.size(), 0);
  auto order = net.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    Stage hi = kInf;
    for (const NodeId p : ctx.pins[id]) {
      for (const NodeId c : ctx.consumers[p]) {
        if (c == kNullNode) {
          hi = std::min(hi, out - 1);
        } else if (net.node(c).type == GateType::T1) {
          hi = std::min(hi, alap[c] - 3);
        } else {
          hi = std::min(hi, alap[c] - 1);
        }
      }
    }
    if (hi >= kInf) {
      hi = out - 1;  // dangling: only the sink bounds it
    }
    alap[id] = std::max(hi, asap[id]);
  }
  return alap;
}

/// Visits (with repeats) every scheduled element whose cost evaluation
/// reads the spines of d's pins: d itself, the consumers of those pins, and —
/// where a pin feeds a T1 — the slot permutation's co-drivers.
template <typename Visit>
void visit_spine_readers(const Network& net, const SchedContext& ctx, NodeId d, Visit&& visit) {
  const auto mark = [&](NodeId v) {
    if (v != kNullNode && is_scheduled(net.node(v).type)) {
      visit(v);
    }
  };
  mark(d);
  for (const NodeId p : ctx.pins[d]) {
    for (const NodeId c : ctx.consumers[p]) {
      if (c == kNullNode) continue;
      mark(c);
      if (net.node(c).type == GateType::T1) {
        const Node& b = net.node(c);
        for (unsigned i = 0; i < 3; ++i) {
          mark(resolve_producer(net, b.fanin(i)));
        }
      }
    }
  }
}

/// Visits (with repeats) every scheduled element whose sweep evaluation may
/// read the stage of \p w — an over-approximation: w's window bounds enter
/// its producers and consumers; w's stage enters the spines of its
/// producers' pins and (through eq.-3 slot permutations) of every driver of
/// a T1 it feeds. The incremental sweep marks these dirty after a move of w;
/// the trace replay counts them as readers of a diverged stage.
template <typename Visit>
void visit_stage_readers(const Network& net, const SchedContext& ctx, NodeId w, Visit&& visit) {
  const auto mark = [&](NodeId v) {
    if (v != kNullNode && is_scheduled(net.node(v).type)) {
      visit(v);
    }
  };
  const auto mark_spine_readers = [&](NodeId d) { visit_spine_readers(net, ctx, d, visit); };
  mark(w);
  const Node& node = net.node(w);
  for (uint8_t i = 0; i < node.num_fanins; ++i) {
    mark_spine_readers(resolve_producer(net, node.fanin(i)));
  }
  for (const NodeId p : ctx.pins[w]) {
    for (const NodeId c : ctx.consumers[p]) {
      if (c == kNullNode) continue;
      mark(c);
      if (net.node(c).type == GateType::T1) {
        const Node& b = net.node(c);
        for (unsigned i = 0; i < 3; ++i) {
          mark_spine_readers(resolve_producer(net, b.fanin(i)));
        }
      }
    }
  }
}

}  // namespace

struct ScheduleTraceAccess {
  /// Replay of a recorded run against the current network. A sweep evaluation
  /// is a deterministic function of the structure and stages it reads, so
  /// where those are the recorded ones the recorded decision is the decision.
  /// The edit's structural footprint is pinned (evaluated every sweep); a
  /// node whose stage differs from its recorded counterpart at the same
  /// point of the same sweep ("diverged") keeps its readers evaluated while
  /// it differs. Everything else copies the recorded move.
  struct Replay {
    std::vector<char> has_prior;    ///< current id has a recorded counterpart
    std::vector<Stage> prior_stage; ///< counterpart's stage in the recorded run
    std::vector<char> pinned;
    std::vector<uint32_t> diverged_reads;  ///< diverged stages in the read set
    std::vector<NodeId> to_current;        ///< recorded id -> current id
    std::vector<Stage> move_to;            ///< recorded move this sweep, or kNoMove
    static constexpr Stage kNoMove = std::numeric_limits<Stage>::min();

    bool diverged(const std::vector<Stage>& stage, NodeId v) const {
      return has_prior[v] && prior_stage[v] != stage[v];
    }
  };

  static const std::vector<std::vector<std::pair<NodeId, Stage>>>& sweeps(
      const ScheduleTrace& t) {
    return t.sweeps_;
  }

  /// Sets up the replay of \p t on \p net (seeded at \p stage, sink \p out,
  /// evaluation order \p order); false when the record cannot be replayed
  /// exactly or cheaply — the caller then runs the plain sweep.
  static bool prepare(const ScheduleTrace& t, const Network& net, const SchedContext& ctx,
                      const PhaseAssignmentParams& params, const std::vector<Stage>& stage,
                      Stage out, const std::vector<NodeId>& order, Replay& rp) {
    if (!t.recorded_ || t.output_stage_ != out || t.params_.clk.phases != params.clk.phases ||
        t.params_.max_sweeps != params.max_sweeps ||
        t.params_.output_slack != params.output_slack || t.pos_.size() != net.num_pos()) {
      return false;
    }
    const std::size_t size = net.size();
    rp.to_current.resize(t.nodes_.size());
    for (NodeId o = 0; o < t.nodes_.size(); ++o) {
      const NodeId v = t.to_current_.empty() ? o : t.to_current_[o];
      const bool live = !t.nodes_[o].dead && v != kNullNode && v < size && !net.is_dead(v);
      rp.to_current[o] = live ? v : kNullNode;
    }
    std::vector<NodeId> from_prior(size, kNullNode);
    for (NodeId o = 0; o < t.nodes_.size(); ++o) {
      const NodeId v = rp.to_current[o];
      if (v == kNullNode) continue;
      if (from_prior[v] != kNullNode) return false;  // not a renumbering
      from_prior[v] = o;
    }
    // Survivors must be evaluated in the recorded relative order: then every
    // recorded move lands at the same point of the current sweep.
    std::vector<uint32_t> position(size, 0);
    for (uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    std::size_t next = 0;
    for (const NodeId o : t.order_) {
      const NodeId v = rp.to_current[o];
      if (v == kNullNode) continue;
      if (position[v] < next) return false;
      next = position[v] + 1;
    }

    // Structural footprint of the edit. A node is rewired when it has no
    // counterpart or its kind or fanins differ from its counterpart's: any
    // reader of its stage may decide differently. It is regrouped when only
    // its consumer set differs (a fanin of a rewired or removed node, a
    // re-pointed PO driver): only the readers of its spines may.
    std::vector<char> rewired(size, 0);
    std::vector<char> regrouped(size, 0);
    std::vector<NodeId> footprint;
    const auto add = [&](std::vector<char>& set, NodeId v) {
      if (v == kNullNode || set[v]) return;
      set[v] = 1;
      footprint.push_back(v);
    };
    const auto regroup_fanins = [&](const Node& node, bool recorded) {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        add(regrouped, recorded ? rp.to_current[node.fanin(i)] : node.fanin(i));
      }
    };
    for (NodeId v = 0; v < size; ++v) {
      if (net.is_dead(v)) continue;
      const Node& node = net.node(v);
      const NodeId o = from_prior[v];
      bool same = o != kNullNode;
      if (same) {
        const Node& rec = t.nodes_[o];
        same = rec.type == node.type && rec.num_fanins == node.num_fanins &&
               (node.type != GateType::T1Port || rec.port == node.port);
        for (uint8_t i = 0; same && i < node.num_fanins; ++i) {
          same = rp.to_current[rec.fanin(i)] == node.fanin(i);
        }
        if (!same) regroup_fanins(rec, true);
      }
      if (!same) {
        add(rewired, v);
        regroup_fanins(node, false);
      }
    }
    for (NodeId o = 0; o < t.nodes_.size(); ++o) {
      if (!t.nodes_[o].dead && rp.to_current[o] == kNullNode) {
        regroup_fanins(t.nodes_[o], true);  // removed: its fanins lost a consumer
      }
    }
    for (std::size_t i = 0; i < t.pos_.size(); ++i) {
      if (rp.to_current[t.pos_[i]] != net.po(i)) {
        add(regrouped, rp.to_current[t.pos_[i]]);
        add(regrouped, net.po(i));
      }
    }
    // Ports and buffers are traversed without their stage being read, and a
    // T1 body's pins are its ports, so an edit that reaches one is not
    // replayed at all.
    for (const NodeId w : footprint) {
      const GateType ty = net.node(w).type;
      if (ty == GateType::T1 || ty == GateType::T1Port || ty == GateType::Buf) return false;
    }
    // Margin: one more ring of clocked elements (producers and consumers)
    // counted as regrouped. PIs and constants are left out — their consumer
    // sets change only through the rules above.
    const std::size_t core = footprint.size();
    for (std::size_t k = 0; k < core; ++k) {
      const NodeId w = footprint[k];
      const Node& node = net.node(w);
      const auto ring = [&](NodeId v) {
        if (is_scheduled(net.node(v).type)) add(regrouped, v);
      };
      for (uint8_t i = 0; i < node.num_fanins; ++i) ring(node.fanin(i));
      for (const NodeId c : ctx.consumers[w]) {
        if (c != kNullNode) ring(c);
      }
    }

    rp.pinned.assign(size, 0);
    std::size_t pinned = 0;
    const auto pin = [&](NodeId v) {
      pinned += rp.pinned[v] == 0;
      rp.pinned[v] = 1;
    };
    for (NodeId v = 0; v < size; ++v) {
      if (rewired[v]) visit_stage_readers(net, ctx, v, pin);
      if (regrouped[v]) visit_spine_readers(net, ctx, v, pin);
    }
    if (pinned * 4 > size) return false;  // not local: the plain sweep is cheaper

    rp.has_prior.assign(size, 0);
    rp.prior_stage.assign(size, 0);
    rp.diverged_reads.assign(size, 0);
    rp.move_to.assign(size, Replay::kNoMove);
    for (NodeId v = 0; v < size; ++v) {
      const NodeId o = from_prior[v];
      if (o == kNullNode) continue;
      rp.has_prior[v] = 1;
      rp.prior_stage[v] = t.seed_[o];
    }
    for (NodeId v = 0; v < size; ++v) {
      if (rp.diverged(stage, v)) {
        visit_stage_readers(net, ctx, v, [&](NodeId r) { ++rp.diverged_reads[r]; });
      }
    }
    return true;
  }

  static void record(ScheduleTrace& t, const Network& net, const PhaseAssignmentParams& params,
                     const std::vector<Stage>& seed, Stage out, std::vector<NodeId> order,
                     std::vector<std::vector<std::pair<NodeId, Stage>>> sweeps) {
    t.recorded_ = true;
    t.nodes_.resize(net.size());
    for (NodeId v = 0; v < net.size(); ++v) t.nodes_[v] = net.node(v);
    t.pos_ = net.pos();
    t.order_ = std::move(order);
    t.seed_ = seed;
    t.output_stage_ = out;
    t.params_ = params;
    t.sweeps_ = std::move(sweeps);
    t.to_current_.clear();
  }

  static void clear(ScheduleTrace& t) { t = ScheduleTrace{}; }
};

void ScheduleTrace::rebind(const std::vector<NodeId>& old_to_new) {
  if (!recorded_) return;
  if (to_current_.empty()) {
    to_current_.resize(nodes_.size());
    for (NodeId o = 0; o < nodes_.size(); ++o) to_current_[o] = o;
  }
  for (NodeId& v : to_current_) {
    v = (v != kNullNode && v < old_to_new.size()) ? old_to_new[v] : kNullNode;
  }
}

namespace {

PhaseAssignment heuristic_assign(const Network& net, const PhaseAssignmentParams& params,
                                 const IncrementalView* view, ScheduleTrace* trace) {
  PhaseAssignment pa;
  pa.stage.assign(net.size(), 0);
  if (view) {
    // View-seeded: the maintained ASAP stages are the levels, already current.
    for (NodeId id = 0; id < net.size(); ++id) {
      pa.stage[id] = view->stage(id);
    }
  } else {
    const auto lvl = net.levels();
    for (NodeId id = 0; id < net.size(); ++id) {
      pa.stage[id] = static_cast<Stage>(lvl[id]);
    }
  }
  Stage out = 0;
  for (const NodeId po : net.pos()) {
    out = std::max(out, pa.stage[resolve_producer(net, po)] + 1);
  }
  out += params.output_slack;
  pa.output_stage = out;
  pa.feasible = assignment_feasible(net, pa.stage, out, params.clk);
  if (!pa.feasible) {
    pa.estimated_dffs = -1;
    if (trace) ScheduleTraceAccess::clear(*trace);
    return pa;
  }

  SchedContext ctx(net, params.clk, out);
  const Stage n = static_cast<Stage>(params.clk.phases);
  auto order = net.topo_order();
  std::reverse(order.begin(), order.end());

  // -- Trace replay (identical schedules, edit-local work). -------------------
  // The reference full sweep (incremental = false) never replays.
  ScheduleTraceAccess::Replay rp;
  const bool replay =
      trace && trace->recorded() && params.incremental &&
      ScheduleTraceAccess::prepare(*trace, net, ctx, params, pa.stage, out, order, rp);
  if (trace && trace->recorded()) {
    obs::count(replay ? "sched.replay.hits" : "sched.replay.fallbacks");
  }
  const std::vector<Stage> seed = trace ? pa.stage : std::vector<Stage>{};
  std::vector<std::vector<std::pair<NodeId, Stage>>> moves;  // recorded when tracing

  // -- Incremental sweep machinery (identical schedules, less work). ---------
  //
  // A node's evaluation is deterministic in the stages it reads (its move
  // window and the spines/dedicated counts of its cost scope). The full sweep
  // re-runs every evaluation every pass; here a node is evaluated only while
  // `dirty` — seeded by slack for the first sweep, then by exactly the
  // committed moves whose stage enters the node's read set. Within a sweep
  // the fixed reverse-topo order means a move can only dirty nodes that are
  // either later in the current pass (evaluated this pass, as the full sweep
  // would) or earlier (evaluated next pass, as the full sweep would).
  const bool incr = params.incremental && !replay;
  std::vector<char> dirty;
  const auto mark_affected = [&](NodeId w) {
    visit_stage_readers(net, ctx, w, [&](NodeId v) { dirty[v] = 1; });
  };
  if (incr) {
    dirty.assign(net.size(), 0);
    const std::vector<Stage> alap =
        (view && params.output_slack == 0)
            ? view->alap_stages()            // the view maintains exactly this
            : sched_alap(net, ctx, pa.stage, out);
    // Exact first-sweep window bound of \p u at the all-ASAP seed (where the
    // local lower bound IS the seed stage): the same bound the sweep itself
    // computes. Used where the conservative ALAP under-reports the window of
    // a T1 input (eq. 3 grants up to slot −1 where ALAP assumes −3).
    const auto sweep1_window_open = [&](NodeId u) {
      Stage hi = kInf;
      for (const NodeId p : ctx.pins[u]) {
        for (const NodeId j : ctx.consumers[p]) {
          if (j == kNullNode) {
            hi = std::min(hi, out - 1);
          } else if (net.node(j).type == GateType::T1) {
            hi = std::min(hi, sched_t1_max_input_stage(net, pa.stage, j, u));
          } else {
            hi = std::min(hi, pa.stage[j] - 1);
          }
        }
      }
      if (hi >= kInf) {
        hi = out - 1;
      }
      return hi > pa.stage[u];
    };
    for (const NodeId u : order) {
      if (!is_scheduled(net.node(u).type)) continue;
      bool open = alap[u] > pa.stage[u];
      bool coupled = false;  // eq.-3-coupled: ALAP is conservative here
      if (!open) {
        for (const NodeId p : ctx.pins[u]) {
          for (const NodeId c : ctx.consumers[p]) {
            coupled |= c != kNullNode && net.node(c).type == GateType::T1;
          }
        }
      }
      if (open || (coupled && sweep1_window_open(u))) {
        dirty[u] = 1;
      }
    }
  }

  // Sweep counters: plain locals, flushed to the obs registry once at the end
  // (the inner loop is the scheduler's hot path).
  uint64_t sweeps_run = 0;
  uint64_t nodes_evaluated = 0;
  uint64_t nodes_skipped = 0;
  uint64_t moves_committed = 0;

  // Per-evaluation scratch, reused across nodes.
  std::vector<NodeId> u_consumers;
  std::vector<NodeId> drivers;
  std::vector<NodeId> t1s;
  std::vector<Stage> candidates;
  // The spine of a pin owned by another driver d != u moves with stage[u]
  // only through the demands of u itself and of T1 bodies u feeds (their slot
  // permutation reads stage[u]). Every other demand is folded into `fixed`
  // once per evaluation, so a candidate rescans only the moving ones — the
  // same max, hence the same cost, without re-walking wide fanouts.
  struct PinSplit {
    NodeId key;
    Stage sd;
    Stage fixed;
    std::size_t begin, end;  ///< range of `moving`
  };
  std::vector<PinSplit> splits;
  std::vector<NodeId> moving;

  // Best stage for u under the current stages (pa.stage[u] is left as found).
  const auto evaluate = [&](NodeId u) -> Stage {
    const Node& node = net.node(u);
    const Stage original = pa.stage[u];
    const Stage lo = sched_local_lower_bound(net, pa.stage, u);
    Stage hi = kInf;
    u_consumers.clear();
    for (const NodeId pin : ctx.pins[u]) {
      u_consumers.insert(u_consumers.end(), ctx.consumers[pin].begin(),
                         ctx.consumers[pin].end());
    }
    for (const NodeId j : u_consumers) {
      if (j == kNullNode) {
        hi = std::min(hi, out - 1);
      } else if (net.node(j).type == GateType::T1) {
        hi = std::min(hi, sched_t1_max_input_stage(net, pa.stage, j, u));
      } else {
        hi = std::min(hi, pa.stage[j] - 1);
      }
    }
    if (hi >= kInf) {
      hi = out - 1;  // dead-end driver (shouldn't happen after sweep)
    }
    if (hi <= lo) {
      return original;
    }

    // Affected cost scope: u, u's fanin drivers, all drivers of u's T1
    // consumers; plus dedicated counts of adjacent T1s.
    drivers.assign(1, u);
    t1s.clear();
    if (node.type == GateType::T1) {
      t1s.push_back(u);
    }
    for (uint8_t i = 0; i < node.num_fanins; ++i) {
      drivers.push_back(resolve_producer(net, node.fanin(i)));
    }
    for (const NodeId j : u_consumers) {
      if (j != kNullNode && net.node(j).type == GateType::T1) {
        t1s.push_back(j);
        const Node& body = net.node(j);
        for (unsigned i = 0; i < 3; ++i) {
          drivers.push_back(resolve_producer(net, body.fanin(i)));
        }
      }
    }
    std::sort(drivers.begin(), drivers.end());
    drivers.erase(std::unique(drivers.begin(), drivers.end()), drivers.end());
    std::sort(t1s.begin(), t1s.end());
    t1s.erase(std::unique(t1s.begin(), t1s.end()), t1s.end());

    const auto moves_with_u = [&](NodeId j) {
      if (j == u) return true;
      if (j == kNullNode || net.node(j).type != GateType::T1) return false;
      const Node& body = net.node(j);
      for (unsigned i = 0; i < 3; ++i) {
        if (resolve_producer(net, body.fanin(i)) == u) return true;
      }
      return false;
    };
    splits.clear();
    moving.clear();
    for (const NodeId d : drivers) {
      if (d == u) continue;
      for (const NodeId key : ctx.pins[d]) {
        if (is_const(net, resolve_producer(net, key))) continue;  // spine 0
        PinSplit ps{key, ctx.stage_of(pa.stage, key), 0, moving.size(), 0};
        for (const NodeId j : ctx.consumers[key]) {
          if (moves_with_u(j)) {
            moving.push_back(j);
          } else {
            ps.fixed = std::max(ps.fixed, ctx.spine_demand(pa.stage, key, ps.sd, j));
          }
        }
        ps.end = moving.size();
        splits.push_back(ps);
      }
    }

    const auto local_cost = [&]() {
      int64_t c = ctx.element_spines(pa.stage, u);
      for (const PinSplit& ps : splits) {
        Stage req = ps.fixed;
        for (std::size_t k = ps.begin; k < ps.end; ++k) {
          req = std::max(req, ctx.spine_demand(pa.stage, ps.key, ps.sd, moving[k]));
        }
        c += req;
      }
      for (const NodeId j : t1s) {
        c += ctx.dedicated(pa.stage, j);
      }
      return c;
    };

    int64_t best_cost = local_cost();
    Stage best_stage = original;
    // Candidate window: full range when small, else both ends.
    candidates.clear();
    if (hi - lo <= 6 * n) {
      for (Stage x = lo; x <= hi; ++x) {
        candidates.push_back(x);
      }
    } else {
      for (Stage x = lo; x <= lo + 3 * n; ++x) {
        candidates.push_back(x);
      }
      for (Stage x = hi - 3 * n; x <= hi; ++x) {
        candidates.push_back(x);
      }
    }
    for (const Stage x : candidates) {
      if (x == original) continue;
      pa.stage[u] = x;
      if (node.type == GateType::T1 &&
          pa.stage[u] < sched_local_lower_bound(net, pa.stage, u)) {
        continue;  // eq. 3 must keep holding for u itself
      }
      const int64_t c = local_cost();
      if (c < best_cost) {
        best_cost = c;
        best_stage = x;
      }
    }
    pa.stage[u] = original;
    return best_stage;
  };

  const std::vector<std::vector<std::pair<NodeId, Stage>>>* recorded_sweeps =
      replay ? &ScheduleTraceAccess::sweeps(*trace) : nullptr;
  for (unsigned sweep = 0; sweep < params.max_sweeps; ++sweep) {
    bool changed = false;
    ++sweeps_run;
    if (trace) moves.emplace_back();
    if (replay && sweep < recorded_sweeps->size()) {
      for (const auto& [o, x] : (*recorded_sweeps)[sweep]) {
        const NodeId v = rp.to_current[o];
        if (v != kNullNode) rp.move_to[v] = x;
      }
    }
    for (const NodeId u : order) {
      if (!is_scheduled(net.node(u).type)) continue;
      bool eval = true;
      if (replay) {
        eval = rp.pinned[u] || rp.diverged_reads[u] > 0;
      } else if (incr) {
        eval = dirty[u];
        dirty[u] = 0;
      }
      const Stage original = pa.stage[u];
      Stage next = original;
      if (eval) {
        ++nodes_evaluated;
        next = evaluate(u);
      } else {
        ++nodes_skipped;
        if (replay && rp.move_to[u] != ScheduleTraceAccess::Replay::kNoMove) {
          next = rp.move_to[u];  // same reads, same decision as recorded
        }
      }
      if (replay) {
        const bool was = rp.diverged(pa.stage, u);
        if (rp.move_to[u] != ScheduleTraceAccess::Replay::kNoMove) {
          rp.prior_stage[u] = rp.move_to[u];
          rp.move_to[u] = ScheduleTraceAccess::Replay::kNoMove;
        }
        pa.stage[u] = next;
        const bool now = rp.diverged(pa.stage, u);
        if (was != now) {
          visit_stage_readers(net, ctx, u, [&](NodeId r) {
            rp.diverged_reads[r] += now ? 1u : static_cast<uint32_t>(-1);
          });
        }
      } else {
        pa.stage[u] = next;
      }
      if (next != original) {
        changed = true;
        ++moves_committed;
        if (trace) moves.back().emplace_back(u, next);
        if (incr) {
          mark_affected(u);
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  obs::count("sched.sweeps", sweeps_run);
  obs::count("sched.nodes_evaluated", nodes_evaluated);
  obs::count("sched.nodes_skipped", nodes_skipped);
  obs::count("sched.moves_committed", moves_committed);
  if (trace) {
    ScheduleTraceAccess::record(*trace, net, params, seed, out, std::move(order),
                                std::move(moves));
  }

  // Ports/bufs mirror their producer (consumers always resolve, but the
  // reported stage should be meaningful).
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1Port || node.type == GateType::Buf) {
      pa.stage[id] = pa.stage[resolve_producer(net, id)];
    }
  }
  assert(assignment_feasible(net, pa.stage, out, params.clk));
  pa.estimated_dffs = plan_dffs(net, pa.stage, out, params.clk).total_dffs();
  return pa;
}

PhaseAssignment milp_assign(const Network& net, const PhaseAssignmentParams& params,
                            const IncrementalView* view) {
  // Seed with the heuristic: it fixes the output stage and provides bounds
  // and a fallback result.
  PhaseAssignment seed = heuristic_assign(net, params, view, nullptr);
  if (!seed.feasible) {
    return seed;
  }
  const Stage out = seed.output_stage;
  const Stage n = static_cast<Stage>(params.clk.phases);
  const auto lvl = net.levels();

  LinearProgram lp;
  std::vector<int> var(net.size(), -1);
  std::vector<int> integer_vars;
  for (const NodeId id : net.topo_order()) {
    if (is_scheduled(net.node(id).type)) {
      var[id] = lp.add_variable(static_cast<double>(lvl[id]), static_cast<double>(out - 1), 0.0);
      integer_vars.push_back(var[id]);
    }
  }
  const auto stage_term = [&](NodeId d) -> std::pair<int, double> {
    // Returns (var index or -1, constant) for a producer's stage.
    if (var[d] >= 0) {
      return {var[d], 0.0};
    }
    return {-1, 0.0};  // PIs and constants sit at stage 0
  };

  SchedContext ctx(net, params.clk, out);
  // One m_d per physical pin with consumers.
  std::vector<int> m_var(net.size(), -1);
  for (NodeId d = 0; d < net.size(); ++d) {
    if (!ctx.consumers[d].empty() && !is_const(net, resolve_producer(net, d))) {
      m_var[d] = lp.add_variable(0.0, static_cast<double>(out), 1.0);
      integer_vars.push_back(m_var[d]);
    }
  }

  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (!is_scheduled(node.type)) continue;
    if (node.type == GateType::T1) {
      // Assignment binaries y[i][l]: fanin i takes slot l+1.
      int y[3][3];
      for (int i = 0; i < 3; ++i) {
        for (int l = 0; l < 3; ++l) {
          y[i][l] = lp.add_variable(0.0, 1.0, 0.0);
          integer_vars.push_back(y[i][l]);
        }
      }
      for (int i = 0; i < 3; ++i) {
        std::vector<std::pair<int, double>> row{{y[i][0], 1.0}, {y[i][1], 1.0}, {y[i][2], 1.0}};
        lp.add_row(row, 1.0, 1.0);
      }
      for (int l = 0; l < 3; ++l) {
        std::vector<std::pair<int, double>> col{{y[0][l], 1.0}, {y[1][l], 1.0}, {y[2][l], 1.0}};
        lp.add_row(col, 1.0, 1.0);
      }
      for (int i = 0; i < 3; ++i) {
        const NodeId sched = resolve_producer(net, node.fanin(i));
        const NodeId pin = driver_key(net, node.fanin(i));
        const auto [dv, dc] = stage_term(sched);
        // sigma_j - sigma_d - sum_l (l+1) y[i][l] >= 0.
        std::vector<std::pair<int, double>> row{{var[id], 1.0}};
        if (dv >= 0) {
          row.push_back({dv, -1.0});
        }
        for (int l = 0; l < 3; ++l) {
          row.push_back({y[i][l], -(l + 1.0)});
        }
        lp.add_row(row, dc, kLpInfinity);
        // Spine bound (T1 edge charged like a plain consumer).
        if (m_var[pin] >= 0) {
          std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)},
                                                 {var[id], -1.0}};
          if (dv >= 0) {
            mr.push_back({dv, 1.0});
          }
          lp.add_row(mr, -static_cast<double>(n) - dc, kLpInfinity);
        }
      }
    } else {
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        const NodeId sched = resolve_producer(net, node.fanin(i));
        const NodeId pin = driver_key(net, node.fanin(i));
        if (is_const(net, sched)) continue;
        const auto [dv, dc] = stage_term(sched);
        std::vector<std::pair<int, double>> row{{var[id], 1.0}};
        if (dv >= 0) {
          row.push_back({dv, -1.0});
        }
        lp.add_row(row, 1.0 + dc, kLpInfinity);
        if (m_var[pin] >= 0) {
          std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)},
                                                 {var[id], -1.0}};
          if (dv >= 0) {
            mr.push_back({dv, 1.0});
          }
          lp.add_row(mr, -static_cast<double>(n) - dc, kLpInfinity);
        }
      }
    }
  }
  for (const NodeId po : net.pos()) {
    const NodeId sched = resolve_producer(net, po);
    const NodeId pin = driver_key(net, po);
    if (is_const(net, sched) || m_var[pin] < 0) continue;
    const auto [dv, dc] = stage_term(sched);
    std::vector<std::pair<int, double>> mr{{m_var[pin], static_cast<double>(n)}};
    if (dv >= 0) {
      mr.push_back({dv, 1.0});
    }
    lp.add_row(mr, static_cast<double>(out - n) - dc, kLpInfinity);
  }

  MilpParams mp;
  mp.max_nodes = params.milp_max_nodes;
  const MilpSolution sol = solve_milp(lp, integer_vars, mp);
  if (sol.status != MilpStatus::Optimal) {
    return seed;  // fail soft: keep the heuristic assignment
  }
  PhaseAssignment pa;
  pa.stage.assign(net.size(), 0);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (var[id] >= 0) {
      pa.stage[id] = static_cast<Stage>(std::llround(sol.x[var[id]]));
    }
  }
  // Aliases (ports/bufs) mirror their producer for reporting convenience.
  for (const NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.type == GateType::T1Port || node.type == GateType::Buf) {
      pa.stage[id] = pa.stage[resolve_producer(net, id)];
    }
  }
  pa.output_stage = out;
  pa.feasible = assignment_feasible(net, pa.stage, out, params.clk);
  if (!pa.feasible) {
    return seed;
  }
  pa.estimated_dffs = plan_dffs(net, pa.stage, out, params.clk).total_dffs();
  // The MILP objective ignores dedicated landings; keep whichever assignment
  // is better under the exact cost model.
  return pa.estimated_dffs <= seed.estimated_dffs ? pa : seed;
}

}  // namespace

PhaseAssignment assign_phases(const Network& net, const PhaseAssignmentParams& params) {
  switch (params.engine) {
    case PhaseEngine::ExactMilp:
      return milp_assign(net, params, nullptr);
    case PhaseEngine::Heuristic:
    default:
      return heuristic_assign(net, params, nullptr, nullptr);
  }
}

PhaseAssignment assign_phases(const IncrementalView& view,
                              const PhaseAssignmentParams& params, ScheduleTrace* trace) {
  switch (params.engine) {
    case PhaseEngine::ExactMilp:
      if (trace) ScheduleTraceAccess::clear(*trace);  // only heuristic runs replay
      return milp_assign(view.net(), params, &view);
    case PhaseEngine::Heuristic:
    default:
      return heuristic_assign(view.net(), params, &view, trace);
  }
}

}  // namespace t1sfq
