// Carried-strategy prune after a topology change.
//
// Between decisions the engine keeps transmitting the last strategy. When H
// changes under it (src/dynamics), the strategy must stay an independent
// set of live vertices: members that went inactive are dropped, then every
// member that now conflicts with an earlier kept one (strategy order, which
// is ascending id for the oracles' winners). Deterministic, so incremental
// and rebuild maintenance prune identically.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mhca {

/// Prune `strategy` in place, in order: keep v iff it is active (`active`
/// empty = all active) and adjacent to no member kept before it. Each
/// dropped v subtracts weights[v] from `estimated_sum`, in strategy order.
/// Costs O(Σ deg(v)) over the strategy: kept members are marked in a byte
/// array and only each candidate's neighbor span is scanned.
void prune_carried_strategy(const Graph& h, std::span<const char> active,
                            std::span<const double> weights,
                            std::vector<int>& strategy, double& estimated_sum);

}  // namespace mhca
