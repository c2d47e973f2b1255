#include "service/session.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/dff_insertion.hpp"
#include "core/t1_detection.hpp"
#include "incr/incremental_view.hpp"
#include "network/io.hpp"
#include "obs/metrics.hpp"
#include "opt/pass.hpp"
#include "service/canonical.hpp"
#include "verify/physics_check.hpp"

namespace t1sfq::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

uint64_t request_key(const std::string& config_sig, const Network& clean) {
  return fnv1a(config_sig, exact_signature(clean));
}

}  // namespace

const char* to_string(EcoFallback fallback) {
  switch (fallback) {
    case EcoFallback::None: return "none";
    case EcoFallback::ConfigChanged: return "config_changed";
    case EcoFallback::OptEnabled: return "opt_enabled";
    case EcoFallback::NotComparable: return "not_comparable";
    case EcoFallback::PoReroute: return "po_reroute";
    case EcoFallback::TooLarge: return "too_large";
    case EcoFallback::T1Region: return "t1_region";
    case EcoFallback::ConstEdit: return "const_edit";
    case EcoFallback::Absorbed: return "absorbed";
    case EcoFallback::Mismatch: return "mismatch";
  }
  return "none";
}

/// Mapped network + the view pinned to it. Heap-held (unique_ptr) so the
/// view's Network& stays valid for the session's lifetime; the view is
/// destroyed before the network by member order.
struct EcoSession::State {
  explicit State(const CostModel& m) : model(m) {}
  Network mapped;
  CostModel model;
  std::optional<IncrementalView> view;
  /// Record of the last phase assignment: an ECO replays it and re-evaluates
  /// only where the edit reaches.
  ScheduleTrace trace;
  /// Last served physical netlist; its BLIF is rendered only for
  /// `return_netlist`, its canonical text only for the verify comparison.
  PhysicalNetlist physical;
};

EcoSession::EcoSession(std::string id) : id_(std::move(id)) {}
EcoSession::~EcoSession() = default;

SessionServe EcoSession::serve(const FlowRequest& request, const SessionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedEnable obs_scope(request.observe);
  SessionServe out;
  out.response.tier = FlowTier::Cold;
  try {
    if (established_ && request.config_signature() != config_sig_) {
      established_ = false;
      out.fallback = EcoFallback::ConfigChanged;
    }
    if (!established_) {
      establish_(request, out.response);
    } else if (!eco_capable_) {
      out.fallback = EcoFallback::OptEnabled;
      establish_(request, out.response);
    } else {
      Network clean = request.network.cleanup();
      const uint64_t key = request_key(config_sig_, clean);
      if (key == last_key_) {
        out.response = last_;
        out.response.tier = FlowTier::Warm;
      } else {
        const NetDiff d = diff_networks(base_, clean);
        const EcoFallback why = eligibility_(d, clean, cfg);
        if (why != EcoFallback::None) {
          out.fallback = why;
          establish_(request, out.response);
        } else if (d.identical()) {
          // Pure renumbering: the session's held result is served (a from-
          // scratch run on the renumbered input could tie-break differently;
          // the session's answer is the one its base numbering produced).
          last_key_ = key;
          out.response = last_;
          out.response.tier = FlowTier::Warm;
        } else {
          apply_eco_(d, clean, out.response);
          last_key_ = key;
          if (cfg.verify) {
            const FlowResult cold = run_flow(base_, params_);
            if (canonical_text(cold.physical) != canonical_text(state_->physical)) {
              out.fallback = EcoFallback::Mismatch;
              establish_(request, out.response);
            }
          }
        }
      }
    }
    out.response.cache_key = last_key_;
    if (request.return_netlist) {
      std::ostringstream blif;
      write_blif(state_->physical.net, blif);
      out.response.netlist_blif = blif.str();
    }
  } catch (const std::exception& e) {
    established_ = false;  // state may be half-updated; next request rebuilds
    out.response = FlowResponse{};
    out.response.ok = false;
    out.response.error = error_code_of(e);
    out.response.message = e.what();
  }
  return out;
}

void EcoSession::establish_(const FlowRequest& request, FlowResponse& resp) {
  resp.tier = FlowTier::Cold;
  params_ = request.to_flow_params();
  config_sig_ = request.config_signature();
  if (params_.use_t1 && params_.clk.phases < 4) {
    throw std::invalid_argument(
        "run_flow: T1 cells need >= 4 clock phases (three distinct landing slots)");
  }

  FlowTimings tm;
  FlowMetrics metrics;
  const Clock::time_point t0 = Clock::now();
  Network clean = request.network.cleanup();
  tm.cleanup_ms = ms_since(t0);

  eco_capable_ = !params_.opt.enable;
  state_.reset();  // old view dies before its network
  state_ = std::make_unique<State>(params_.cost());
  state_->mapped = clean;

  metrics.pre_opt_gates = state_->mapped.num_gates();
  metrics.pre_opt_depth = state_->mapped.depth();
  metrics.pre_opt_area_jj = state_->model.network_breakdown(state_->mapped).total();
  if (params_.opt.enable) {
    const Clock::time_point t1 = Clock::now();
    OptParams op = params_.opt;
    op.clk = params_.clk;
    op.lib = params_.lib;
    op.area = params_.area;
    const OptSummary opt = optimize(state_->mapped, op);
    metrics.opt_applied = opt.total_applied;
    tm.opt_ms = ms_since(t1);
  }
  metrics.opt_gates = state_->mapped.num_gates();
  metrics.opt_depth = state_->mapped.depth();
  metrics.opt_area_jj = state_->model.network_breakdown(state_->mapped).total();

  det_ = T1DetectionStats{};
  if (params_.use_t1) {
    const Clock::time_point t1 = Clock::now();
    state_->view.emplace(state_->mapped, state_->model, /*track_plan=*/true);
    det_ = detect_and_replace_t1(state_->mapped, state_->model, params_.detection,
                                 &*state_->view);
    tm.detect_ms = ms_since(t1);
  } else {
    // View-seeded assignment is pinned identical to the from-scratch
    // scheduler, so the no-T1 session path may share the code below.
    state_->view.emplace(state_->mapped, state_->model, /*track_plan=*/true);
  }
  metrics.t1_found = det_.found;
  metrics.t1_used = det_.used;

  base_ = std::move(clean);
  if (eco_capable_) {
    // Recover the base→mapped correspondence: to the matcher, the T1 rewrite
    // is just a set of replacements, so surviving nodes pair up exactly.
    base_map_ = diff_networks(base_, state_->mapped).old_to_new;
  } else {
    base_map_.clear();
  }

  finish_flow_(base_, metrics, tm, resp);
  last_key_ = request_key(config_sig_, base_);
  resp.cache_key = last_key_;
  established_ = true;
}

EcoFallback EcoSession::eligibility_(const NetDiff& d, const Network& clean,
                                     const SessionConfig& cfg) const {
  if (!d.comparable) return EcoFallback::NotComparable;
  if (d.po_reroute) return EcoFallback::PoReroute;
  if (d.identical()) return EcoFallback::None;

  std::size_t live = 0;
  for (NodeId n = 0; n < clean.size(); ++n) {
    if (!clean.is_dead(n)) ++live;
  }
  const double dirty = static_cast<double>(d.dirty_new.size() + d.dead_old.size());
  if (live == 0 || dirty > cfg.max_dirty_fraction * static_cast<double>(live)) {
    return EcoFallback::TooLarge;
  }

  const Network& mapped = state_->mapped;
  std::vector<NodeId> seeds;  // mapped-side nodes the patch will touch
  for (const NodeId n : d.dirty_new) {
    const GateType t = clean.node(n).type;
    if (t == GateType::T1 || t == GateType::T1Port) return EcoFallback::T1Region;
    if (t == GateType::Const0 || t == GateType::Const1) return EcoFallback::ConstEdit;
    const Node& nn = clean.node(n);
    for (uint8_t i = 0; i < nn.num_fanins; ++i) {
      const NodeId old = d.new_to_old[nn.fanin(i)];
      if (old == kNullNode) continue;  // dirty fanin: created by the patch
      const NodeId m = base_map_[old];
      if (m == kNullNode || mapped.is_dead(m)) return EcoFallback::Absorbed;
      seeds.push_back(m);
    }
  }
  for (const NodeId o : d.dead_old) {
    const GateType t = base_.node(o).type;
    if (t == GateType::T1 || t == GateType::T1Port) return EcoFallback::T1Region;
    const NodeId m = base_map_[o];
    if (m == kNullNode || mapped.is_dead(m)) return EcoFallback::Absorbed;
    seeds.push_back(m);
  }

  // The reused detection decisions are exact only if the edit stays away
  // from T1 logic: scan a radius-2 neighborhood (fanins + consumers) of
  // every touched mapped node.
  const IncrementalView& view = *state_->view;
  std::unordered_set<NodeId> seen(seeds.begin(), seeds.end());
  std::vector<NodeId> frontier = seeds;
  for (int radius = 0; radius < 2; ++radius) {
    std::vector<NodeId> next;
    for (const NodeId m : frontier) {
      const Node& node = mapped.node(m);
      if (node.type == GateType::T1 || node.type == GateType::T1Port) {
        return EcoFallback::T1Region;
      }
      for (uint8_t i = 0; i < node.num_fanins; ++i) {
        if (seen.insert(node.fanin(i)).second) next.push_back(node.fanin(i));
      }
      for (const NodeId c : view.consumers(m)) {
        if (seen.insert(c).second) next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  for (const NodeId m : frontier) {
    const Node& node = mapped.node(m);
    if (node.type == GateType::T1 || node.type == GateType::T1Port) {
      return EcoFallback::T1Region;
    }
  }
  return EcoFallback::None;
}

void EcoSession::apply_eco_(const NetDiff& d, Network& clean, FlowResponse& resp) {
  Network& mapped = state_->mapped;
  IncrementalView& view = *state_->view;

  FlowTimings tm;
  FlowMetrics metrics;
  metrics.pre_opt_gates = clean.num_gates();
  metrics.pre_opt_depth = clean.depth();
  metrics.pre_opt_area_jj = state_->model.network_breakdown(clean).total();
  metrics.opt_gates = metrics.pre_opt_gates;  // eco sessions run with opt off
  metrics.opt_depth = metrics.pre_opt_depth;
  metrics.opt_area_jj = metrics.pre_opt_area_jj;
  metrics.t1_found = det_.found;
  metrics.t1_used = det_.used;

  const Clock::time_point t0 = Clock::now();
  std::vector<NodeId> created(clean.size(), kNullNode);
  const auto to_mapped = [&](NodeId n) {
    return d.new_to_old[n] != kNullNode ? base_map_[d.new_to_old[n]] : created[n];
  };
  for (const NodeId n : d.dirty_new) {
    const Node& nn = clean.node(n);
    std::vector<NodeId> fanins;
    fanins.reserve(nn.num_fanins);
    for (uint8_t i = 0; i < nn.num_fanins; ++i) {
      fanins.push_back(to_mapped(nn.fanin(i)));
    }
    created[n] = mapped.add_raw_gate(nn.type, fanins);
  }
  view.sync();
  for (const auto& [o, n] : d.replacements) {
    view.replace(base_map_[o], to_mapped(n));
  }
  std::vector<NodeId> cone;
  cone.reserve(d.dead_old.size());
  for (const NodeId o : d.dead_old) cone.push_back(base_map_[o]);
  view.kill_cone(cone);

  // Compact like detection does, carrying the view across the remap, so DFF
  // insertion sees a dense network and the session never accretes corpses.
  std::vector<NodeId> old_to_new;
  mapped = mapped.cleanup(&old_to_new);
  view.rebind_after_cleanup(old_to_new);
  state_->trace.rebind(old_to_new);

  std::vector<NodeId> base_map(clean.size(), kNullNode);
  for (NodeId n = 0; n < clean.size(); ++n) {
    if (clean.is_dead(n)) continue;
    const NodeId m = to_mapped(n);
    if (m != kNullNode) base_map[n] = old_to_new[m];
  }
  base_map_ = std::move(base_map);
  base_ = std::move(clean);
  tm.detect_ms = ms_since(t0);  // diff+patch replaces the detection stage

  finish_flow_(base_, metrics, tm, resp);
  resp.tier = FlowTier::Eco;
}

void EcoSession::finish_flow_(const Network& golden, FlowMetrics metrics,
                              FlowTimings tm, FlowResponse& resp) {
  const Clock::time_point t_start = Clock::now();
  metrics.detect_area_jj = state_->model.network_breakdown(state_->mapped).total();

  PhaseAssignmentParams pp;
  pp.clk = params_.clk;
  pp.engine = params_.engine;
  pp.max_sweeps = params_.max_sweeps;
  pp.milp_max_nodes = params_.milp_max_nodes;
  pp.output_slack = params_.output_slack;
  const Clock::time_point t0 = Clock::now();
  const PhaseAssignment assignment = assign_phases(*state_->view, pp, &state_->trace);
  tm.assign_ms = ms_since(t0);
  if (!assignment.feasible) {
    throw InfeasibleScheduleError("run_flow: no feasible phase assignment");
  }

  const Clock::time_point t1 = Clock::now();
  state_->physical = insert_dffs(state_->mapped, assignment, params_.clk);
  const PhysicalNetlist& physical = state_->physical;
  tm.insert_ms = ms_since(t1);

  metrics.num_dffs = physical.num_dffs;
  metrics.num_splitters = physical.num_splitters;
  metrics.num_gates = physical.net.num_gates() - physical.num_dffs;
  metrics.breakdown =
      state_->model.physical_breakdown(physical.net, physical.num_splitters);
  metrics.area_jj = metrics.breakdown.total();
  metrics.depth_cycles = params_.clk.cycles(assignment.output_stage - 1);

  if (params_.physics_check) {
    const Clock::time_point t2 = Clock::now();
    const verify::PhysicsReport report =
        verify::physics_check(physical, params_.clk, golden, params_.physics);
    tm.physics_ms = ms_since(t2);
    if (!report.ok) {
      throw PhysicsViolationError("run_flow: " + report.summary());
    }
  }
  tm.total_ms = tm.cleanup_ms + tm.opt_ms + tm.detect_ms + ms_since(t_start);

  resp.ok = true;
  resp.error = ErrorCode::Internal;
  resp.message.clear();
  resp.metrics = metrics;
  resp.timings = tm;

  last_ = resp;
  last_.netlist_blif.clear();
  obs::count("service.session.flows");
}

}  // namespace t1sfq::service
