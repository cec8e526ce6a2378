// The strategy-decision oracle a SimulationConfig selects — the one place
// SolverKind is dispatched on. The lockstep Simulator and the step API
// (core/channel_access.h) both decide through it, so the same weights give
// the same strategy whichever of them asks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mwis/distributed_ptas.h"
#include "mwis/mwis.h"
#include "sim/config.h"

namespace mhca {

/// The lockstep-engine configuration a SimulationConfig denotes (the one
/// SimulationConfig -> DistributedPtasConfig mapping).
DistributedPtasConfig to_engine_config(const SimulationConfig& cfg);

class DecisionOracle {
 public:
  /// `h` must outlive the oracle. Only the selected oracle is built: the
  /// distributed engine precomputes its NeighborhoodCache, which the
  /// centralized, greedy and exact oracles never need.
  DecisionOracle(const Graph& h, const SimulationConfig& cfg);

  /// One strategy decision over `weights`. `active` masks out inactive
  /// vertices (dynamics; empty = all active). The centralized oracles fill
  /// only `winners` and `weight`; the message bill is the distributed
  /// engine's.
  DistributedPtasResult decide(std::span<const double> weights,
                               std::span<const char> active = {});

  /// H changed at `touched` (src/dynamics): the distributed engine follows
  /// by scoped invalidation, or by a full rebuild when `incremental` is
  /// off. The centralized oracles keep no per-graph state.
  void on_graph_delta(std::span<const int> touched, bool incremental);

  /// The Weight-Broadcast message bill of `prev_winners` (0 for the
  /// centralized oracles, which have no protocol).
  std::int64_t weight_broadcast_messages(std::span<const int> prev_winners);

 private:
  const Graph& h_;
  DistributedPtasConfig engine_cfg_;  ///< Kept for full rebuilds.
  std::unique_ptr<DistributedRobustPtas> engine_;
  std::unique_ptr<MwisSolver> central_;
  std::vector<int> active_list_;  ///< Central-solver candidates when masked.
};

}  // namespace mhca
