// Coverage for the non-dense-matrix code paths: graphs larger than
// Graph::kAdjacencyMatrixLimit get sharded sparse rows instead of the n^2
// bitset matrix, and unfinalized graphs answer every query through
// build-phase vectors. The solver's sparse-row gather, its list-scan
// fallback, and the NeighborhoodCache must all behave identically to the
// dense bitset/CSR fast paths in every situation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/branch_and_bound.h"
#include "mwis/brute_force.h"
#include "reference/unfinalized_copy.h"
#include "util/rng.h"

namespace mhca {
namespace {

std::vector<double> random_weights(int n, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  return w;
}

TEST(NoBitsetFallback, SolverMatchesBruteForceBeyondMatrixLimit) {
  // n > kAdjacencyMatrixLimit: finalize() builds CSR but skips the matrix,
  // so every solve runs the list-scan adjacency build. Embed a nontrivial
  // instance in the first 20 vertices plus edges to high-id vertices so the
  // candidate filter is exercised against the full id range.
  const int n = Graph::kAdjacencyMatrixLimit + 8;
  Rng rng(31);
  Graph big(n);
  Graph small(20);
  for (int i = 0; i < 20; ++i)
    for (int j = i + 1; j < 20; ++j)
      if (rng.uniform() < 0.3) {
        big.add_edge(i, j);
        small.add_edge(i, j);
      }
  for (int i = 0; i < 20; ++i) big.add_edge(i, n - 1 - i);
  big.finalize();
  small.finalize();
  ASSERT_FALSE(big.has_adjacency_matrix());
  ASSERT_TRUE(big.has_sparse_rows());
  ASSERT_TRUE(big.finalized());
  ASSERT_TRUE(small.has_adjacency_matrix());

  std::vector<double> w_small = random_weights(20, rng);
  std::vector<double> w_big(static_cast<std::size_t>(n), 0.0);
  std::copy(w_small.begin(), w_small.end(), w_big.begin());
  std::vector<int> cands(20);
  for (int v = 0; v < 20; ++v) cands[static_cast<std::size_t>(v)] = v;

  BruteForceMwisSolver brute(24);
  const MwisResult ref = brute.solve(small, w_small, cands);
  // Default path: gathers local adjacency from the sharded sparse rows.
  BranchAndBoundMwisSolver solver;
  const MwisResult got = solver.solve(big, w_big, cands);
  EXPECT_TRUE(got.exact);
  EXPECT_EQ(got.vertices, ref.vertices);
  EXPECT_NEAR(got.weight, ref.weight, 1e-12);
  // The list-scan build (an unfinalized copy) must agree bit for bit (same
  // search tree).
  const Graph big_lists = reference::unfinalized_copy(big);
  SolveScratch scratch;
  const MwisResult got_lists =
      solver.solve_with_scratch(big_lists, w_big, cands, scratch);
  EXPECT_EQ(got_lists.vertices, got.vertices);
  EXPECT_EQ(got_lists.nodes_explored, got.nodes_explored);
  // And the classic search over the list build.
  BnbSolveOptions classic;
  classic.enhanced = false;
  const MwisResult got_classic =
      solver.solve_with_scratch(big_lists, w_big, cands, scratch, classic);
  EXPECT_EQ(got_classic.vertices, ref.vertices);
}

TEST(NoBitsetFallback, SparseRowsMatchReferenceQueries) {
  // A graph just past the limit with structured + random edges: has_edge
  // through the sparse rows must agree with binary search over the CSR
  // rows, including the high-id columns that stress block indexing.
  const int n = Graph::kAdjacencyMatrixLimit + 70;
  Rng rng(53);
  Graph g(n);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < 120; ++i) edges.emplace_back(i, i + 1);
  for (int t = 0; t < 800; ++t) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  ASSERT_TRUE(g.has_sparse_rows());

  // Every present edge answers true (both directions)...
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(g.has_edge(u, v)) << u << "," << v;
    ASSERT_TRUE(g.has_edge(v, u)) << v << "," << u;
  }
  // ... and random non-edges answer false.
  std::set<std::pair<int, int>> present(edges.begin(), edges.end());
  for (int t = 0; t < 2000; ++t) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (present.count({u, v})) continue;
    ASSERT_FALSE(g.has_edge(u, v)) << u << "," << v;
  }
  // Degenerate queries stay false.
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(-1, 5));
  EXPECT_FALSE(g.has_edge(5, n));
}

TEST(NoBitsetFallback, UnfinalizedGraphSolvesIdenticalToFinalized) {
  Rng rng(37);
  ConflictGraph cg = erdos_renyi(24, 0.3, rng);
  const Graph& fin = cg.graph();  // factories finalize
  ASSERT_TRUE(fin.has_adjacency_matrix());

  Graph raw(fin.size());
  for (int v = 0; v < fin.size(); ++v)
    for (int u : fin.neighbors(v))
      if (u > v) raw.add_edge(v, u);
  ASSERT_FALSE(raw.finalized());

  BranchAndBoundMwisSolver solver;
  SolveScratch scratch;
  std::vector<int> all(static_cast<std::size_t>(fin.size()));
  for (int v = 0; v < fin.size(); ++v) all[static_cast<std::size_t>(v)] = v;
  for (int round = 0; round < 5; ++round) {
    const auto w = random_weights(fin.size(), rng);
    // Same scratch serves both: bitset-rows on the finalized graph, list
    // scan on the raw one — identical trees, identical results.
    const MwisResult a = solver.solve_with_scratch(fin, w, all, scratch);
    const MwisResult b = solver.solve_with_scratch(raw, w, all, scratch);
    ASSERT_EQ(a.vertices, b.vertices);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
    EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  }
}

TEST(NoBitsetFallback, NeighborhoodCacheMatchesOnUnfinalizedAndHugeGraphs) {
  // Unfinalized graph: cache builds through build-phase adjacency.
  Rng rng(41);
  ConflictGraph cg = random_geometric_avg_degree(30, 5.0, rng);
  const Graph& fin = cg.graph();
  Graph raw(fin.size());
  for (int v = 0; v < fin.size(); ++v)
    for (int u : fin.neighbors(v))
      if (u > v) raw.add_edge(v, u);
  ASSERT_FALSE(raw.finalized());

  NeighborhoodCache cache_fin(fin, 2);
  NeighborhoodCache cache_raw(raw, 2);
  for (int v = 0; v < fin.size(); ++v) {
    const auto a = cache_fin.r_ball(v);
    const auto b = cache_raw.r_ball(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    const auto ea = cache_fin.election_ball(v);
    const auto eb = cache_raw.election_ball(v);
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()));
  }

  // Beyond the matrix limit: balls still match a reference BFS.
  const int n = Graph::kAdjacencyMatrixLimit + 5;
  Graph big(n);
  for (int i = 0; i < 200; ++i) big.add_edge(i, i + 1);  // path prefix
  big.add_edge(0, n - 1);
  big.finalize();
  ASSERT_FALSE(big.has_adjacency_matrix());
  NeighborhoodCache cache_big(big, 2);
  BfsScratch scratch(n);
  for (int v : {0, 1, 100, 199, 200, n - 1, n - 2}) {
    const auto ball = scratch.k_hop_neighborhood(big, v, 2);
    const auto cached = cache_big.r_ball(v);
    ASSERT_TRUE(
        std::equal(ball.begin(), ball.end(), cached.begin(), cached.end()))
        << "vertex " << v;
  }
}

}  // namespace
}  // namespace mhca
