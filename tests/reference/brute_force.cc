#include "reference/brute_force.h"

#include <algorithm>

#include "util/assert.h"

namespace mhca::reference {

BruteForceMwisSolver::BruteForceMwisSolver(int max_vertices)
    : max_vertices_(max_vertices) {
  MHCA_ASSERT(max_vertices >= 0 && max_vertices <= 31,
              "brute force enumerates 32-bit masks: max_vertices must lie in "
              "[0, 31]");
}

MwisResult BruteForceMwisSolver::solve(const Graph& g,
                                       std::span<const double> weights,
                                       std::span<const int> candidates) {
  MHCA_ASSERT(static_cast<int>(candidates.size()) <= max_vertices_,
              "brute force limited to small instances");
  std::vector<int> cands(candidates.begin(), candidates.end());
  std::sort(cands.begin(), cands.end());

  const std::size_t n = cands.size();
  MwisResult best;
  best.weight = 0.0;
  // Adjacency masks among candidates.
  std::vector<std::uint32_t> adj(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && g.has_edge(cands[i], cands[j]))
        adj[i] |= (1u << j);

  const std::uint32_t limit = (1u << n) - 1u;  // n <= 31 by construction
  for (std::uint32_t mask = 0;; ++mask) {
    ++best.nodes_explored;
    bool independent = true;
    double w = 0.0;
    for (std::size_t i = 0; i < n && independent; ++i) {
      if (!(mask & (1u << i))) continue;
      if (adj[i] & mask) independent = false;
      else w += weights[static_cast<std::size_t>(cands[i])];
    }
    if (independent && w > best.weight) {
      best.weight = w;
      best.vertices.clear();
      for (std::size_t i = 0; i < n; ++i)
        if (mask & (1u << i)) best.vertices.push_back(cands[i]);
    }
    if (mask == limit) break;
  }
  best.exact = true;
  return best;
}

}  // namespace mhca::reference
