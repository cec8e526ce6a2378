// Test-only reference for Graph::is_independent_set (src/graph/graph.h).
//
// The quadratic check the winner validation used before the O(Σ deg)
// neighbor-mark scan: every pair is probed with has_edge, O(|vs|²), and a
// repeated vertex counts as a conflict. Kept as the fuzz oracle for
// tests/graph_property_test.cc. Oracle code: src/ must never include it.
#pragma once

#include <cstddef>
#include <span>

#include "graph/graph.h"

namespace mhca::reference {

inline bool is_independent_set_pairwise(const Graph& g,
                                        std::span<const int> vs) {
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      if (vs[i] == vs[j] || g.has_edge(vs[i], vs[j])) return false;
  return true;
}

}  // namespace mhca::reference
