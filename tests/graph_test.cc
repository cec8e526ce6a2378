// Tests for src/graph: Graph, hop BFS, independence, induced subgraphs,
// conflict graphs, the extended conflict graph H (paper §III, Fig. 1) and
// the topology generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/conflict_graph.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/hop.h"
#include "graph/independence.h"
#include "graph/neighborhood_cache.h"
#include "reference/hop_distance.h"
#include "reference/induced.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace mhca {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(Graph, EdgesAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 2);  // duplicate ignored
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
}

TEST(Graph, RejectsSelfLoopAndOutOfRange) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::logic_error);
  EXPECT_THROW(g.add_edge(0, 5), std::logic_error);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto& nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
}

TEST(Graph, IndependentSetCheck) {
  Graph g = path_graph(4);
  const std::vector<int> good{0, 2};
  const std::vector<int> bad{0, 1};
  const std::vector<int> dup{0, 0};
  EXPECT_TRUE(g.is_independent_set(good));
  EXPECT_FALSE(g.is_independent_set(bad));
  EXPECT_FALSE(g.is_independent_set(dup));
}

TEST(Graph, FinalizedGraphHoldsOnlyCsr) {
  // Every finalized graph, below and just above the e-ball tier limit,
  // holds exactly its CSR arrays: n + 1 offsets and 2|E| neighbor ids. The
  // three finalizing builds (finalize, from_claims, apply_delta) agree.
  const auto csr_bytes = [](const Graph& g) {
    return static_cast<std::int64_t>(
        (static_cast<std::size_t>(g.size()) + 1) * sizeof(std::int64_t) +
        2 * static_cast<std::size_t>(g.num_edges()) * sizeof(int));
  };
  for (const int n : {100, NeighborhoodCache::kExplicitTierLimit + 1}) {
    SCOPED_TRACE("n " + std::to_string(n));
    Rng rng(static_cast<std::uint64_t>(n));
    const ConflictGraph cg = random_geometric_avg_degree(
        n, 5.0, rng, /*force_connected=*/false);
    const Graph& g = cg.graph();
    ASSERT_TRUE(g.finalized());
    ASSERT_GT(g.num_edges(), 0);
    EXPECT_EQ(g.resident_bytes(), csr_bytes(g));

    std::vector<std::int64_t> offsets{0};
    std::vector<int> claims;
    for (int v = 0; v < n; ++v) {
      for (int u : g.neighbors(v)) claims.push_back(u);
      offsets.push_back(static_cast<std::int64_t>(claims.size()));
    }
    const Graph claimed = Graph::from_claims(n, offsets, claims);
    EXPECT_EQ(claimed.resident_bytes(), csr_bytes(g));

    Graph patched = claimed;
    int v = 0;
    while (patched.degree(v) == 0) ++v;
    const std::pair<int, int> gone{v, patched.neighbors(v).front()};
    patched.apply_delta({}, {&gone, 1});
    EXPECT_EQ(patched.resident_bytes(),
              csr_bytes(g) - static_cast<std::int64_t>(2 * sizeof(int)));
  }
}

TEST(Hop, NeighborhoodsOnPath) {
  Graph g = path_graph(7);
  EXPECT_EQ(k_hop_neighborhood(g, 3, 0), (std::vector<int>{3}));
  EXPECT_EQ(k_hop_neighborhood(g, 3, 1), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(k_hop_neighborhood(g, 3, 2), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(k_hop_neighborhood(g, 0, 100).size(), 7u);
}

TEST(Hop, Distances) {
  Graph g = path_graph(6);
  EXPECT_EQ(reference::hop_distance(g, 0, 5), 5);
  EXPECT_EQ(reference::hop_distance(g, 2, 2), 0);
  EXPECT_EQ(reference::hop_distance(g, 0, 5, 3), reference::kUnreachable);
  Graph h(3);
  h.add_edge(0, 1);
  EXPECT_EQ(reference::hop_distance(h, 0, 2), reference::kUnreachable);
}

TEST(Hop, ScratchReuseConsistent) {
  Graph g = path_graph(50);
  BfsScratch scratch(g.size());
  for (int v = 0; v < g.size(); v += 7)
    for (int k = 0; k < 4; ++k)
      EXPECT_EQ(scratch.k_hop_neighborhood(g, v, k), k_hop_neighborhood(g, v, k));
}

TEST(Independence, SetWeight) {
  const std::vector<double> w{0.5, 1.5, 2.0};
  const std::vector<int> vs{0, 2};
  EXPECT_DOUBLE_EQ(set_weight(vs, w), 2.5);
}

TEST(Independence, MaximalSetsOfTriangle) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  std::vector<std::vector<int>> sets;
  EXPECT_TRUE(enumerate_maximal_independent_sets(g, 100, sets));
  ASSERT_EQ(sets.size(), 3u);  // each single vertex
  for (auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

TEST(Independence, MaximalSetsOfPath4) {
  Graph g = path_graph(4);
  std::vector<std::vector<int>> sets;
  EXPECT_TRUE(enumerate_maximal_independent_sets(g, 100, sets));
  // Maximal ISs of P4: {0,2}, {0,3}, {1,3}.
  std::set<std::set<int>> got;
  for (auto& s : sets) got.insert(std::set<int>(s.begin(), s.end()));
  EXPECT_EQ(got, (std::set<std::set<int>>{{0, 2}, {0, 3}, {1, 3}}));
}

TEST(Independence, EnumerationCapTruncates) {
  Graph g(10);  // edgeless: exactly one maximal IS (everything)
  std::vector<std::vector<int>> sets;
  EXPECT_TRUE(enumerate_maximal_independent_sets(g, 5, sets));
  EXPECT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].size(), 10u);
}

TEST(Independence, IndependenceNumber) {
  EXPECT_EQ(independence_number(path_graph(5)), 3);
  Graph k4(4);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) k4.add_edge(i, j);
  EXPECT_EQ(independence_number(k4), 1);
  EXPECT_EQ(independence_number(Graph(6)), 6);
}

TEST(Induced, SubgraphStructure) {
  Graph g = path_graph(5);
  const std::vector<int> keep{0, 1, 3, 4};
  reference::InducedSubgraph sub = reference::induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.size(), 4);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));   // 0-1
  EXPECT_TRUE(sub.graph.has_edge(2, 3));   // 3-4
  EXPECT_FALSE(sub.graph.has_edge(1, 2));  // 1-3 not an edge of P5
  EXPECT_EQ(sub.to_parent, (std::vector<int>{0, 1, 3, 4}));
}

TEST(Induced, RejectsDuplicates) {
  Graph g = path_graph(3);
  const std::vector<int> dup{0, 0};
  EXPECT_THROW(reference::induced_subgraph(g, dup), std::logic_error);
}

TEST(ConflictGraph, UnitDiskEdges) {
  std::vector<Point> pts{{0, 0}, {1.5, 0}, {10, 0}};
  ConflictGraph cg = ConflictGraph::from_positions(pts, 2.0);
  EXPECT_TRUE(cg.graph().has_edge(0, 1));
  EXPECT_FALSE(cg.graph().has_edge(0, 2));
  EXPECT_TRUE(cg.has_positions());
  EXPECT_DOUBLE_EQ(cg.radius(), 2.0);
}

TEST(ConflictGraph, FromEdges) {
  ConflictGraph cg = ConflictGraph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(cg.num_nodes(), 3);
  EXPECT_FALSE(cg.has_positions());
  EXPECT_TRUE(cg.graph().has_edge(1, 2));
}

// --- Extended conflict graph: the paper's Fig. 1 example (3 nodes in a
// triangle, 3 channels). ---
class ExtendedGraphFig1 : public ::testing::Test {
 protected:
  ExtendedGraphFig1()
      : cg_(ConflictGraph::from_edges(3, {{0, 1}, {0, 2}, {1, 2}})),
        h_(cg_, 3) {}
  ConflictGraph cg_;
  ExtendedConflictGraph h_;
};

TEST_F(ExtendedGraphFig1, Dimensions) {
  EXPECT_EQ(h_.num_vertices(), 9);
  EXPECT_EQ(h_.num_nodes(), 3);
  EXPECT_EQ(h_.num_channels(), 3);
}

TEST_F(ExtendedGraphFig1, MasterCliques) {
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      for (int k = j + 1; k < 3; ++k)
        EXPECT_TRUE(
            h_.graph().has_edge(h_.vertex_of(i, j), h_.vertex_of(i, k)));
}

TEST_F(ExtendedGraphFig1, SameChannelConflictEdges) {
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(h_.graph().has_edge(h_.vertex_of(0, j), h_.vertex_of(1, j)));
    EXPECT_TRUE(h_.graph().has_edge(h_.vertex_of(1, j), h_.vertex_of(2, j)));
  }
  // Different channels of different nodes never conflict.
  EXPECT_FALSE(h_.graph().has_edge(h_.vertex_of(0, 0), h_.vertex_of(1, 1)));
}

TEST_F(ExtendedGraphFig1, VertexMapRoundTrip) {
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      const int v = h_.vertex_of(i, j);
      EXPECT_EQ(h_.master_of(v), i);
      EXPECT_EQ(h_.channel_of(v), j);
    }
}

TEST_F(ExtendedGraphFig1, StrategyConversion) {
  // Triangle with 3 channels: all three nodes can transmit on distinct
  // channels — an IS of size 3.
  const std::vector<int> is{h_.vertex_of(0, 0), h_.vertex_of(1, 1),
                            h_.vertex_of(2, 2)};
  EXPECT_TRUE(h_.graph().is_independent_set(is));
  const Strategy s = h_.to_strategy(is);
  EXPECT_EQ(s.channel_of_node, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(h_.is_feasible(s));
  auto back = h_.to_vertices(s);
  std::sort(back.begin(), back.end());
  auto sorted = is;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(back, sorted);
}

TEST_F(ExtendedGraphFig1, InfeasibleStrategyDetected) {
  Strategy s;
  s.channel_of_node = {0, 0, 1};  // nodes 0,1 share channel 0 but conflict
  EXPECT_FALSE(h_.is_feasible(s));
}

TEST_F(ExtendedGraphFig1, ToStrategyRejectsTwoChannelsPerNode) {
  const std::vector<int> bad{h_.vertex_of(0, 0), h_.vertex_of(0, 1)};
  EXPECT_THROW(h_.to_strategy(bad), std::logic_error);
}

TEST(ExtendedGraph, IndependenceNumberMatchesTheory) {
  // Paper §III: the independence number of H is N when the chromatic number
  // of G is <= M, and < N otherwise.
  ConflictGraph triangle = ConflictGraph::from_edges(3, {{0, 1}, {0, 2}, {1, 2}});
  // Triangle needs 3 colors; with M = 2 < 3 not all nodes can transmit.
  ExtendedConflictGraph h2(triangle, 2);
  EXPECT_LT(independence_number(h2.graph()), 3);
  // With M = 3 all 3 can.
  ExtendedConflictGraph h3(triangle, 3);
  EXPECT_EQ(independence_number(h3.graph()), 3);
}

TEST(ExtendedGraph, GrowthBoundTheorem2) {
  // Theorem 2: independent vertices within J_{H,r}(v) <= M * (2r+1)^2.
  Rng rng(5);
  ConflictGraph cg = random_geometric_avg_degree(30, 5.0, rng);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  const Graph& h = ecg.graph();
  for (int v = 0; v < h.size(); v += 9) {
    for (int r = 1; r <= 2; ++r) {
      const auto ball = k_hop_neighborhood(h, v, r);
      reference::InducedSubgraph sub = reference::induced_subgraph(h, ball);
      const int alpha = independence_number(sub.graph);
      EXPECT_LE(alpha, m_channels * (2 * r + 1) * (2 * r + 1));
    }
  }
}

TEST(Generators, LinearNetworkIsPath) {
  ConflictGraph cg = linear_network(6);
  EXPECT_EQ(cg.graph().num_edges(), 5);
  for (int i = 0; i + 1 < 6; ++i) EXPECT_TRUE(cg.graph().has_edge(i, i + 1));
  EXPECT_FALSE(cg.graph().has_edge(0, 2));
}

TEST(Generators, GridNetwork) {
  ConflictGraph cg = grid_network(3, 4);
  EXPECT_EQ(cg.num_nodes(), 12);
  // 4-neighborhood grid: edges = 3*(4-1) + 4*(3-1) = 17... rows*(cols-1) +
  // cols*(rows-1) = 9 + 8 = 17.
  EXPECT_EQ(cg.graph().num_edges(), 17);
  EXPECT_TRUE(cg.graph().is_connected());
}

TEST(Generators, CompleteNetwork) {
  ConflictGraph cg = complete_network(5);
  EXPECT_EQ(cg.graph().num_edges(), 10);
  EXPECT_EQ(independence_number(cg.graph()), 1);
}

TEST(Generators, RandomGeometricConnectedAndDegree) {
  Rng rng(1);
  ConflictGraph cg = random_geometric_avg_degree(100, 6.0, rng);
  EXPECT_TRUE(cg.graph().is_connected());
  // Expected degree ~6; allow broad tolerance (connectivity filter biases up).
  EXPECT_GT(cg.graph().average_degree(), 3.0);
  EXPECT_LT(cg.graph().average_degree(), 12.0);
}

TEST(Generators, ErdosRenyiDensity) {
  Rng rng(2);
  ConflictGraph cg = erdos_renyi(60, 0.2, rng);
  const double expected = 0.2 * 60 * 59 / 2;
  EXPECT_NEAR(static_cast<double>(cg.graph().num_edges()), expected,
              0.35 * expected);
}

TEST(Generators, Deterministic) {
  Rng a(9), b(9);
  ConflictGraph g1 = random_geometric_avg_degree(40, 5.0, a);
  ConflictGraph g2 = random_geometric_avg_degree(40, 5.0, b);
  EXPECT_EQ(g1.graph().num_edges(), g2.graph().num_edges());
}

// Property sweep: generated geometric graphs are valid unit-disk graphs.
class GeometricSweep : public ::testing::TestWithParam<int> {};

TEST_P(GeometricSweep, UnitDiskConsistency) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ConflictGraph cg = random_geometric_avg_degree(50, 6.0, rng, false);
  const auto& pts = cg.positions();
  const double r2 = cg.radius() * cg.radius();
  for (int i = 0; i < cg.num_nodes(); ++i)
    for (int j = i + 1; j < cg.num_nodes(); ++j)
      EXPECT_EQ(cg.graph().has_edge(i, j),
                squared_distance(pts[static_cast<std::size_t>(i)],
                                 pts[static_cast<std::size_t>(j)]) <= r2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometricSweep, ::testing::Range(0, 8));

TEST(NeighborhoodCacheTier, EnvOverrideRejectsUnknownValues) {
  // A typo must not silently fall back to the size rule while a test
  // believes it forced a tier.
  EXPECT_EQ(NeighborhoodCache::select_eball_tier(10),
            NeighborhoodCache::EballTier::kExplicit);
  {
    const ScopedEnv env("MHCA_EBALL_TIER", "implicit");
    EXPECT_EQ(NeighborhoodCache::select_eball_tier(10),
              NeighborhoodCache::EballTier::kImplicit);
  }
  for (const char* bad : {"Explicit", "", "dense"}) {
    SCOPED_TRACE(bad);
    const ScopedEnv env("MHCA_EBALL_TIER", bad);
    try {
      NeighborhoodCache::select_eball_tier(10);
      ADD_FAILURE() << "no error for MHCA_EBALL_TIER='" << bad << "'";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("explicit, implicit"), std::string::npos) << msg;
    }
  }
}

TEST(NeighborhoodCacheWorkers, EnvOverrideRejectsUnknownValues) {
  // A typo must not silently mean "all hardware threads".
  {
    const ScopedEnv env("MHCA_CACHE_BUILD_WORKERS", "2");
    EXPECT_EQ(NeighborhoodCache::build_workers(0, 100), 2);
    EXPECT_EQ(NeighborhoodCache::build_workers(3, 100), 3);  // not read
    EXPECT_EQ(NeighborhoodCache::build_workers(0, 1), 1);    // clamped to n
  }
  {
    const ScopedEnv env("MHCA_CACHE_BUILD_WORKERS", "0");
    EXPECT_GE(NeighborhoodCache::build_workers(0, 100), 1);
  }
  for (const char* bad : {"abc", "2x", "-3", "", " 4", "+4", "1e3",
                          "99999999999"}) {
    SCOPED_TRACE(bad);
    const ScopedEnv env("MHCA_CACHE_BUILD_WORKERS", bad);
    try {
      NeighborhoodCache::build_workers(0, 100);
      ADD_FAILURE() << "no error for MHCA_CACHE_BUILD_WORKERS='" << bad
                    << "'";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("MHCA_CACHE_BUILD_WORKERS='" + std::string(bad) +
                         "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("[0, 2147483647]"), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace mhca
