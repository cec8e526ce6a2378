// Test-only reference for the distributed robust PTAS (paper Algorithm 3).
//
// This is an ORACLE, not a second engine: the equivalence suites run it
// side by side with DistributedRobustPtas and demand byte-identical
// results. Code under src/ must never include it.
//
// It re-derives everything per decision, exactly as the protocol's floods
// would: leaders come from (2r+1) rounds of max-relaxation over the
// adjacency lists (ties broken by the lower vertex id), each leader's
// candidate set is a fresh BFS r-ball, and flood sizes are fresh BFS balls.
// The local solves use the production BranchAndBoundMwisSolver with default
// options, and status application and message accounting follow the
// engine's rules. What the engine adds on top — the NeighborhoodCache, the
// incremental SoA election, stage timers, the per-leader thread fan-out —
// is absent here, so any divergence points at it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/hop.h"
#include "mwis/branch_and_bound.h"
#include "mwis/distributed_ptas.h"

namespace mhca::reference {

class SeedPtas {
 public:
  /// Honors r, max_mini_rounds, bnb_node_cap and count_messages; the
  /// local solver must be exact.
  SeedPtas(const Graph& h, DistributedPtasConfig cfg);

  DistributedPtasResult run(std::span<const double> weights,
                            std::span<const char> active = {});

  /// Σ |J_{2r+1}(v)| over the previous strategy (Weight-Broadcast floods).
  std::int64_t weight_broadcast_messages(std::span<const int> prev_winners);

 private:
  int ball_size(int v, int radius);
  std::vector<int> elect(std::span<const double> weights,
                         const std::vector<VertexStatus>& status);

  const Graph& h_;
  DistributedPtasConfig cfg_;
  BranchAndBoundMwisSolver solver_;
  BfsScratch bfs_;
  std::vector<int> ball_;
  std::vector<std::pair<double, int>> relax_;
  std::vector<std::pair<double, int>> relax_next_;
};

}  // namespace mhca::reference
