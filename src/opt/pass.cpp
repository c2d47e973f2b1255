#include "opt/pass.hpp"

#include <algorithm>

#include "core/phase_assignment.hpp"
#include "network/equivalence.hpp"
#include "obs/trace.hpp"
#include "opt/balancing.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/resubstitution.hpp"

namespace t1sfq {

bool is_opt_gate(GateType type) {
  switch (type) {
    case GateType::Not:
    case GateType::And2:
    case GateType::Or2:
    case GateType::Xor2:
    case GateType::Nand2:
    case GateType::Nor2:
    case GateType::Xnor2:
    case GateType::And3:
    case GateType::Or3:
    case GateType::Xor3:
    case GateType::Maj3:
      return true;
    default:
      return false;
  }
}

int64_t estimate_plan_dffs(const Network& net, const MultiphaseConfig& clk) {
  const auto lvl = net.levels();
  std::vector<Stage> stage(lvl.size(), 0);
  Stage max_po = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    stage[id] = static_cast<Stage>(lvl[id]);
  }
  for (const NodeId po : net.pos()) {
    max_po = std::max(max_po, stage[po]);
  }
  return plan_dffs(net, stage, max_po + 1, clk).total_dffs();
}

OptSummary PassManager::run(Network& net) {
  OptSummary summary;
  summary.gates_before = net.num_gates();
  summary.depth_before = net.depth();
  summary.plan_dffs_before = estimate_plan_dffs(net, params_.clk);

  const CostModel model = params_.cost();
  summary.jj_before = model.network_breakdown(net).total();

  for (unsigned round = 0; round < params_.rounds; ++round) {
    std::size_t round_applied = 0;
    for (const auto& pass : passes_) {
      PassStats ps;
      ps.name = pass->name();
      ps.round = round;
      ps.gates_before = net.num_gates();
      ps.depth_before = net.depth();
      ps.plan_dffs_before = estimate_plan_dffs(net, params_.clk);
      ps.jj_before = model.network_breakdown(net).total();

      Network before;
      if (params_.verify) {
        before = net;  // only the guard needs the pre-pass snapshot
      }
      {
        obs::Span span(pass->name());
        ps.applied = pass->run(net);
        span.arg("applied", static_cast<int64_t>(ps.applied));
      }
      net.sweep_dangling();
      net = net.cleanup();

      if (params_.verify && ps.applied > 0) {
        obs::Span span("opt.verify");
        obs::count("opt.verify.checks");
        const EquivalenceCheck check =
            check_equivalence(net, before, /*sim_rounds=*/8, params_.verify_conflict_budget);
        if (check.result == EquivalenceResult::NotEquivalent) {
          net = before.cleanup();
          ps.applied = 0;
          ps.verdict = PassVerdict::Reverted;
          obs::count("opt.pass.reverted");
        } else if (check.result == EquivalenceResult::Equivalent) {
          ps.verdict = PassVerdict::Proved;
        } else {
          ps.verdict = PassVerdict::Unknown;
        }
      }
      if (obs::enabled()) {
        obs::count(std::string("opt.") + pass->name() + ".applied", ps.applied);
        obs::count("opt.pass.runs");
      }

      ps.gates_after = net.num_gates();
      ps.depth_after = net.depth();
      ps.plan_dffs_after = estimate_plan_dffs(net, params_.clk);
      ps.jj_after = model.network_breakdown(net).total();
      round_applied += ps.applied;
      summary.passes.push_back(std::move(ps));
    }
    if (round_applied == 0) {
      break;  // fixed point
    }
  }

  summary.gates_after = net.num_gates();
  summary.depth_after = net.depth();
  summary.plan_dffs_after = estimate_plan_dffs(net, params_.clk);
  summary.jj_after = model.network_breakdown(net).total();
  for (const PassStats& ps : summary.passes) {
    summary.total_applied += ps.applied;
  }
  return summary;
}

PassManager PassManager::standard(const OptParams& params) {
  PassManager manager(params);
  if (params.cut_rewriting) {
    manager.add(std::make_unique<CutRewritingPass>(params));
  }
  if (params.balancing) {
    manager.add(std::make_unique<BalancingPass>(params));
  }
  if (params.resubstitution) {
    manager.add(std::make_unique<ResubstitutionPass>(params));
  }
  return manager;
}

OptSummary optimize(Network& net, const OptParams& params) {
  if (!params.enable || net.num_gates() == 0) {
    OptSummary summary;
    summary.gates_before = summary.gates_after = net.num_gates();
    summary.depth_before = summary.depth_after = net.depth();
    summary.jj_before = summary.jj_after = params.cost().network_breakdown(net).total();
    return summary;
  }
  PassManager manager = PassManager::standard(params);
  return manager.run(net);
}

}  // namespace t1sfq
