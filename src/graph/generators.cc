#include "graph/generators.h"

#include <cmath>
#include <numbers>
#include <string>

#include "util/assert.h"

namespace mhca {

ConflictGraph random_geometric(int n, double side, double radius, Rng& rng,
                               bool force_connected, int max_attempts) {
  MHCA_ASSERT(n >= 1, "need at least one node");
  MHCA_ASSERT(side > 0.0 && radius > 0.0, "side and radius must be positive");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<Point> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      pts.push_back(Point{rng.uniform(0.0, side), rng.uniform(0.0, side)});
    ConflictGraph cg = ConflictGraph::from_positions(std::move(pts), radius);
    if (!force_connected || cg.graph().is_connected()) return cg;
  }
  // Below the connectivity threshold (avg degree ~ ln n) almost no sample
  // is connected, and more nodes at the same density make it worse: the
  // fix is to stop rejecting, not to retry.
  MHCA_ASSERT(false, "no connected random geometric graph in " +
                         std::to_string(max_attempts) + " attempts (n = " +
                         std::to_string(n) +
                         "); large sparse geometric graphs are almost never "
                         "connected — set topology.force_connected = false "
                         "in the scenario, or raise avg_degree / radius");
}

ConflictGraph random_geometric_avg_degree(int n, double avg_degree, Rng& rng,
                                          bool force_connected) {
  MHCA_ASSERT(avg_degree > 0.0, "average degree must be positive");
  const double side = std::sqrt(static_cast<double>(n));
  // E[deg] ~= (n-1) * pi r^2 / side^2  =>  r = side * sqrt(d / (pi (n-1))).
  const double denom = std::numbers::pi * static_cast<double>(std::max(1, n - 1));
  const double radius = side * std::sqrt(avg_degree / denom);
  return random_geometric(n, side, radius, rng, force_connected);
}

ConflictGraph linear_network(int n) {
  MHCA_ASSERT(n >= 1, "need at least one node");
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(Point{static_cast<double>(i), 0.0});
  return ConflictGraph::from_positions(std::move(pts), 1.0);
}

ConflictGraph grid_network(int rows, int cols) {
  MHCA_ASSERT(rows >= 1 && cols >= 1, "grid dimensions must be positive");
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      pts.push_back(Point{static_cast<double>(c), static_cast<double>(r)});
  return ConflictGraph::from_positions(std::move(pts), 1.0);
}

ConflictGraph complete_network(int n) {
  MHCA_ASSERT(n >= 1, "need at least one node");
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return ConflictGraph::from_edges(n, edges);
}

ConflictGraph erdos_renyi(int n, double p, Rng& rng) {
  MHCA_ASSERT(n >= 1, "need at least one node");
  MHCA_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.bernoulli(p)) edges.emplace_back(i, j);
  return ConflictGraph::from_edges(n, edges);
}

}  // namespace mhca
