#include "sim/simulator.h"

#include <chrono>

#include "dynamics/dynamic_network.h"
#include "sim/decision_oracle.h"
#include "sim/prune.h"
#include "util/assert.h"
#include "util/rng.h"

namespace mhca {

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDistributedPtas: return "distributed-ptas";
    case SolverKind::kCentralizedPtas: return "centralized-ptas";
    case SolverKind::kGreedy: return "greedy";
    case SolverKind::kExact: return "exact";
  }
  return "?";
}

Simulator::Simulator(const ExtendedConflictGraph& ecg,
                     const ChannelModel& model, const IndexPolicy& policy,
                     SimulationConfig cfg, dynamics::DynamicNetwork* dyn)
    : ecg_(ecg), model_(model), policy_(policy), cfg_(cfg), dyn_(dyn) {
  MHCA_ASSERT(ecg.num_nodes() == model.num_nodes() &&
                  ecg.num_channels() == model.num_channels(),
              "graph/model dimension mismatch");
  MHCA_ASSERT(cfg_.slots >= 1, "need at least one slot");
  MHCA_ASSERT(cfg_.update_period >= 1, "update period must be positive");
  MHCA_ASSERT(cfg_.series_stride >= 1, "series stride must be positive");
  MHCA_ASSERT(dyn_ == nullptr || &dyn_->ecg() == &ecg_,
              "dynamic simulation must run over the DynamicNetwork's graph");
}

SimulationResult Simulator::run() {
  using Clock = std::chrono::steady_clock;
  const Graph& h = ecg_.graph();
  const int k_arms = ecg_.num_vertices();

  ArmEstimates est(k_arms);
  Rng rng(cfg_.seed);

  DecisionOracle oracle(h, cfg_);

  SimulationResult out;
  out.theta = cfg_.timing.theta();

  std::vector<double> weights;
  std::vector<int> strategy;
  double estimated_sum = 0.0;  // index-sum W_x of the current strategy
  double sum_observed = 0.0, sum_effective = 0.0, sum_estimated = 0.0;
  double sum_expected = 0.0, sum_strategy_size = 0.0;
  const bool is_dynamic = dyn_ != nullptr && dyn_->dynamic();

  for (std::int64_t t = 1; t <= cfg_.slots; ++t) {
    if (is_dynamic && t > 1) {
      const dynamics::SlotChange& ch = dyn_->advance(t);
      if (ch.changed) {
        oracle.on_graph_delta(ch.touched_vertices, dyn_->incremental());
        // A strategy carried across non-decision slots must stay feasible
        // on the new graph (sim/prune.h).
        prune_carried_strategy(h, dyn_->active_vertex_mask(), weights,
                               strategy, estimated_sum);
      }
    }
    const bool decision_slot = ((t - 1) % cfg_.update_period) == 0;
    if (decision_slot) {
      const auto t0 = Clock::now();
      if (policy_.randomize_round(t, rng)) {
        weights.resize(static_cast<std::size_t>(k_arms));
        for (auto& w : weights) w = rng.uniform();
      } else {
        policy_.compute_indices(est, t, weights);
      }
      const std::span<const char> mask =
          is_dynamic ? dyn_->active_vertex_mask() : std::span<const char>{};
      if (cfg_.count_messages && !strategy.empty())
        out.total_messages += oracle.weight_broadcast_messages(strategy);
      DistributedPtasResult dres = oracle.decide(weights, mask);
      strategy = std::move(dres.winners);
      out.total_messages += dres.total_messages;
      out.total_mini_timeslots += dres.total_mini_timeslots;
      estimated_sum = 0.0;
      for (int v : strategy)
        estimated_sum += weights[static_cast<std::size_t>(v)];
      out.decision_seconds +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      ++out.decisions;
    }
    sum_strategy_size += static_cast<double>(strategy.size());

    // Data transmission + observation.
    double observed = 0.0, expected = 0.0;
    for (int v : strategy) {
      const int node = ecg_.master_of(v);
      const int chan = ecg_.channel_of(v);
      const double x = model_.sample(node, chan, t);
      est.observe(v, x);
      observed += x;
      expected += model_.mean(node, chan, t);
    }
    const double factor = decision_slot ? cfg_.timing.theta() : 1.0;
    sum_observed += observed;
    sum_effective += factor * observed;
    sum_estimated += factor * estimated_sum;
    sum_expected += expected;

    if ((t - 1) % cfg_.series_stride == 0 || t == cfg_.slots) {
      const double td = static_cast<double>(t);
      out.slots.push_back(t);
      out.cumavg_effective.push_back(sum_effective / td);
      out.cumavg_estimated.push_back(sum_estimated / td);
      out.cumavg_observed.push_back(sum_observed / td);
      out.cum_expected.push_back(sum_expected);
    }
  }

  out.total_slots = cfg_.slots;
  out.total_observed = sum_observed;
  out.total_effective = sum_effective;
  out.total_expected = sum_expected;
  out.avg_strategy_size =
      sum_strategy_size / static_cast<double>(cfg_.slots);
  out.final_means = est.means();
  out.final_counts = est.counts();
  out.last_strategy = strategy;
  return out;
}

}  // namespace mhca
