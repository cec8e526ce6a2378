#include "mwis/robust_ptas.h"

#include <algorithm>

#include "util/assert.h"

namespace mhca {
namespace {

/// BFS ball J_r(v) restricted to alive vertices (the "remaining graph"),
/// sorted.
std::vector<int> restricted_ball(const Graph& g, const std::vector<char>& alive,
                                 int v, int r, BfsScratch& scratch) {
  std::vector<int> out;
  scratch.walk(
      g, {&v, 1}, r,
      [&](int u, int) { return alive[static_cast<std::size_t>(u)] != 0; },
      [&](int x, int) {
        out.push_back(x);
        return false;
      });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

RobustPtasSolver::RobustPtasSolver(double epsilon, int r_cap,
                                   std::int64_t bnb_node_cap)
    : rho_(1.0 + epsilon), r_cap_(r_cap), inner_(bnb_node_cap) {
  MHCA_ASSERT(epsilon > 0.0, "epsilon must be positive");
  MHCA_ASSERT(r_cap >= 1, "r_cap must be at least 1");
}

MwisResult RobustPtasSolver::solve(const Graph& g,
                                   std::span<const double> weights,
                                   std::span<const int> candidates) {
  std::vector<char> alive(static_cast<std::size_t>(g.size()), 0);
  int alive_count = 0;
  for (int v : candidates) {
    MHCA_ASSERT(v >= 0 && v < g.size(), "candidate out of range");
    if (!alive[static_cast<std::size_t>(v)]) {
      alive[static_cast<std::size_t>(v)] = 1;
      ++alive_count;
    }
  }

  MwisResult result;
  result.exact = false;
  last_max_radius_ = 0;

  while (alive_count > 0) {
    // Max-weight remaining vertex (ties by id for determinism).
    int vmax = -1;
    for (int v = 0; v < g.size(); ++v) {
      if (!alive[static_cast<std::size_t>(v)]) continue;
      if (vmax < 0 ||
          weights[static_cast<std::size_t>(v)] >
              weights[static_cast<std::size_t>(vmax)])
        vmax = v;
    }

    // Grow the ball until the robustness criterion is violated.
    MwisResult cur;
    cur.vertices = {vmax};
    cur.weight = weights[static_cast<std::size_t>(vmax)];
    int r = 0;
    while (r < r_cap_) {
      const std::vector<int> ball =
          restricted_ball(g, alive, vmax, r + 1, scratch_);
      MwisResult next = inner_.solve(g, weights, ball);
      result.nodes_explored += next.nodes_explored;
      if (next.weight <= rho_ * cur.weight) break;  // r̄ found, harvest cur
      cur = std::move(next);
      ++r;
    }
    last_max_radius_ = std::max(last_max_radius_, r);

    // Harvest cur and delete its closed neighborhood from the graph.
    for (int v : cur.vertices) {
      result.vertices.push_back(v);
      result.weight += weights[static_cast<std::size_t>(v)];
      auto vi = static_cast<std::size_t>(v);
      if (alive[vi]) {
        alive[vi] = 0;
        --alive_count;
      }
      for (int u : g.neighbors(v)) {
        auto ui = static_cast<std::size_t>(u);
        if (alive[ui]) {
          alive[ui] = 0;
          --alive_count;
        }
      }
    }
  }
  std::sort(result.vertices.begin(), result.vertices.end());
  return result;
}

}  // namespace mhca
