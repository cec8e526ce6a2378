// Test-only reference: induced subgraphs with parent-index bookkeeping.
// Code under src/ must never include it.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mhca::reference {

/// A subgraph induced by a vertex subset, remembering the original ids.
struct InducedSubgraph {
  Graph graph;                 ///< Local graph on 0..k-1.
  std::vector<int> to_parent;  ///< Local index -> original vertex id.
};

/// Build the subgraph of `g` induced by `vertices` (need not be sorted;
/// duplicates are rejected).
InducedSubgraph induced_subgraph(const Graph& g, std::span<const int> vertices);

}  // namespace mhca::reference
