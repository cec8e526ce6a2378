// Test-only reference: greedy vertex coloring and chromatic bounds.
//
// §III of the paper observes that the independence number of the extended
// graph H equals N exactly when the conflict graph G can be colored with at
// most M colors (each color class = a channel). These helpers compute
// constructive upper bounds on χ(G) and the induced full-occupancy channel
// assignment. Code under src/ must never include it.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mhca::reference {

/// Greedy coloring in the given vertex order; returns per-vertex colors
/// (0-based). Uses at most max_degree+1 colors.
std::vector<int> greedy_coloring(const Graph& g, std::span<const int> order);

/// Welsh–Powell: greedy coloring in decreasing-degree order.
std::vector<int> welsh_powell_coloring(const Graph& g);

/// Number of distinct colors used by a coloring.
int num_colors(const std::vector<int>& coloring);

/// True iff `coloring` assigns different colors to every edge's endpoints.
bool is_proper_coloring(const Graph& g, std::span<const int> coloring);

}  // namespace mhca::reference
