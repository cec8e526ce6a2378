// Test-only reference: hop distances by a plain std::queue BFS that shares
// no code with src/graph/hop, so BfsScratch::walk and everything built on
// it are checked against an independent oracle
// (tests/graph_property_test.cc). Oracle code: src/ must never include it.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace mhca::reference {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Hop distance from the nearest of `sources` (duplicates allowed) to every
/// vertex of g, -1 where no path exists.
std::vector<int> hop_distances(const Graph& g, std::span<const int> sources);

/// Hop distance between u and v, or kUnreachable if no path within `cap`
/// hops exists.
int hop_distance(const Graph& g, int u, int v, int cap = kUnreachable);

}  // namespace mhca::reference
