// Test-only helper: the same graph left in the build phase.
//
// BranchAndBoundMwisSolver reads neighbor rows from wherever the graph keeps
// them — CSR once finalized, per-vertex vectors before. Suites that
// cross-check the two solve on the finalized graph and on this copy and
// demand identical results, node counts included. Oracle code:
// src/ must never include it.
#pragma once

#include "graph/graph.h"

namespace mhca::reference {

inline Graph unfinalized_copy(const Graph& g) {
  Graph raw(g.size());
  for (int v = 0; v < g.size(); ++v)
    for (int u : g.neighbors(v))
      if (u > v) raw.add_edge(v, u);
  return raw;
}

}  // namespace mhca::reference
