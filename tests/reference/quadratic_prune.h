// Test-only reference for the carried-strategy prune (src/sim/prune.h).
//
// The loop the lockstep simulator used before the O(Σ deg) prune: every
// candidate is tested against every member kept before it with has_edge,
// O(|strategy|²). Kept as the oracle for the randomized equivalence test.
// Oracle code: src/ must never include it.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace mhca::reference {

inline void quadratic_prune(const Graph& h, std::span<const char> active,
                            std::span<const double> weights,
                            std::vector<int>& strategy,
                            double& estimated_sum) {
  std::vector<int> kept;
  kept.reserve(strategy.size());
  for (int v : strategy) {
    bool ok = active.empty() || active[static_cast<std::size_t>(v)] != 0;
    for (std::size_t i = 0; ok && i < kept.size(); ++i)
      ok = !h.has_edge(v, kept[i]);
    if (ok)
      kept.push_back(v);
    else
      estimated_sum -= weights[static_cast<std::size_t>(v)];
  }
  strategy = std::move(kept);
}

}  // namespace mhca::reference
