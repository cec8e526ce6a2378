// Test-only reference: the seed ("classic") exact MWIS branch and bound.
//
// This is an ORACLE, not a second solver: suites run it beside the
// production BranchAndBoundMwisSolver above brute force's vertex cap, where
// exhaustive enumeration is out of reach. It shares no code with src/mwis/
// (an oracle that calls the code it checks checks nothing) and reads the
// graph only through Graph::has_edge. Code under src/ must never include it.
//
// The algorithm is the seed one: order the candidates by weight descending
// (ties by ascending id), cover them greedily with cliques (each vertex
// joins the first clique it is fully adjacent to), sort the cliques by
// their heaviest member, seed the incumbent with one greedy pass, then DFS
// clique by clique (take one non-conflicting member or leave the clique
// empty) under the static bound "current + Σ per-clique maxima of the
// cliques left". Like the seed it assumes the paper's positive weights: a
// negative-weight vertex may stay in the greedy incumbent.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "mwis/mwis.h"

namespace mhca::reference {

/// Exact when `exact` is set; past `node_cap` DFS nodes it returns the best
/// set found so far with `exact = false`. `nodes_explored` counts DFS nodes.
/// Weights are indexed by original vertex id; `vertices` come back sorted.
MwisResult classic_bnb(const Graph& g, std::span<const double> weights,
                       std::span<const int> candidates,
                       std::int64_t node_cap = 5'000'000);

}  // namespace mhca::reference
