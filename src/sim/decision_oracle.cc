#include "sim/decision_oracle.h"

#include "mwis/branch_and_bound.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"

namespace mhca {

DistributedPtasConfig to_engine_config(const SimulationConfig& cfg) {
  DistributedPtasConfig dcfg;
  dcfg.r = cfg.r;
  dcfg.max_mini_rounds = cfg.D;
  dcfg.local_solver = cfg.local_solver;
  dcfg.bnb_node_cap = cfg.bnb_node_cap;
  dcfg.count_messages = cfg.count_messages;
  dcfg.local_solve_parallelism = cfg.local_solve_parallelism;
  return dcfg;
}

DecisionOracle::DecisionOracle(const Graph& h, const SimulationConfig& cfg)
    : h_(h), engine_cfg_(to_engine_config(cfg)) {
  switch (cfg.solver) {
    case SolverKind::kDistributedPtas:
      engine_ = std::make_unique<DistributedRobustPtas>(h_, engine_cfg_);
      break;
    case SolverKind::kCentralizedPtas:
      central_ = std::make_unique<RobustPtasSolver>(cfg.ptas_epsilon, 4,
                                                    cfg.bnb_node_cap);
      break;
    case SolverKind::kGreedy:
      central_ = std::make_unique<GreedyMwisSolver>();
      break;
    case SolverKind::kExact:
      central_ = std::make_unique<BranchAndBoundMwisSolver>(cfg.bnb_node_cap);
      break;
  }
}

DistributedPtasResult DecisionOracle::decide(std::span<const double> weights,
                                             std::span<const char> active) {
  if (engine_) return engine_->run(weights, active);
  MwisResult res;
  if (active.empty()) {
    res = central_->solve_all(h_, weights);
  } else {
    // Centralized oracles see only the live part of H.
    active_list_.clear();
    for (int v = 0; v < h_.size(); ++v)
      if (active[static_cast<std::size_t>(v)]) active_list_.push_back(v);
    res = central_->solve(h_, weights, active_list_);
  }
  DistributedPtasResult out;
  out.winners = std::move(res.vertices);
  out.weight = res.weight;
  return out;
}

void DecisionOracle::on_graph_delta(std::span<const int> touched,
                                    bool incremental) {
  if (!engine_) return;
  if (incremental)
    engine_->on_graph_delta(touched);
  else
    engine_ = std::make_unique<DistributedRobustPtas>(h_, engine_cfg_);
}

std::int64_t DecisionOracle::weight_broadcast_messages(
    std::span<const int> prev_winners) {
  return engine_ ? engine_->weight_broadcast_messages(prev_winners) : 0;
}

}  // namespace mhca
