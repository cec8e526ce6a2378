// Randomized property tests over the graph substrate: BFS hop utilities
// against a reference implementation, ball monotonicity/nesting, induced
// subgraphs preserving structure, growth-bounded sweeps of H across (M, r),
// and maximal-IS enumeration cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/hop.h"
#include "graph/independence.h"
#include "graph/neighborhood_cache.h"
#include "graph/spatial_grid.h"
#include "mwis/distributed_ptas.h"
#include "reference/hop_distance.h"
#include "reference/induced.h"
#include "reference/pairwise_independence.h"
#include "util/rng.h"

namespace mhca {
namespace {

/// Reference unbounded BFS distances from one source.
std::vector<int> reference_distances(const Graph& g, int src) {
  return reference::hop_distances(g, {&src, 1});
}

/// Sorted vertices at oracle distance 0..k.
std::vector<int> within(const std::vector<int>& dist, int k) {
  std::vector<int> out;
  for (std::size_t u = 0; u < dist.size(); ++u)
    if (dist[u] >= 0 && dist[u] <= k) out.push_back(static_cast<int>(u));
  return out;
}

class RandomGraphSweep : public ::testing::TestWithParam<int> {
 protected:
  Graph make_graph() {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
    ConflictGraph cg = erdos_renyi(35, 0.12, rng);
    return cg.graph();
  }
};

TEST_P(RandomGraphSweep, KHopMatchesReferenceDistances) {
  const Graph g = make_graph();
  BfsScratch scratch(g.size());
  for (int src : {0, 10, 34}) {
    const auto dist = reference_distances(g, src);
    for (int k : {0, 1, 2, 3, 5}) {
      const auto ball = scratch.k_hop_neighborhood(g, src, k);
      std::set<int> got(ball.begin(), ball.end());
      for (int v = 0; v < g.size(); ++v) {
        const bool inside = dist[static_cast<std::size_t>(v)] >= 0 &&
                            dist[static_cast<std::size_t>(v)] <= k;
        EXPECT_EQ(got.count(v) == 1, inside)
            << "src=" << src << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST_P(RandomGraphSweep, BallsAreNested) {
  const Graph g = make_graph();
  BfsScratch scratch(g.size());
  for (int v = 0; v < g.size(); v += 7) {
    std::vector<int> prev = scratch.k_hop_neighborhood(g, v, 0);
    for (int k = 1; k <= 4; ++k) {
      const auto ball = scratch.k_hop_neighborhood(g, v, k);
      EXPECT_TRUE(std::includes(ball.begin(), ball.end(), prev.begin(),
                                prev.end()))
          << "J_" << k << " must contain J_" << k - 1;
      prev = ball;
    }
  }
}

TEST_P(RandomGraphSweep, InducedSubgraphPreservesEdgesExactly) {
  const Graph g = make_graph();
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  std::vector<int> keep;
  for (int v = 0; v < g.size(); ++v)
    if (rng.bernoulli(0.5)) keep.push_back(v);
  if (keep.size() < 2) return;
  const reference::InducedSubgraph sub = reference::induced_subgraph(g, keep);
  for (int a = 0; a < sub.graph.size(); ++a)
    for (int b = a + 1; b < sub.graph.size(); ++b)
      EXPECT_EQ(sub.graph.has_edge(a, b),
                g.has_edge(sub.to_parent[static_cast<std::size_t>(a)],
                           sub.to_parent[static_cast<std::size_t>(b)]));
}

TEST_P(RandomGraphSweep, MaximalIndependentSetsAreMaximalAndIndependent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  ConflictGraph cg = erdos_renyi(12, 0.3, rng);
  const Graph& g = cg.graph();
  std::vector<std::vector<int>> sets;
  ASSERT_TRUE(enumerate_maximal_independent_sets(g, 100000, sets));
  ASSERT_FALSE(sets.empty());
  for (const auto& s : sets) {
    EXPECT_TRUE(g.is_independent_set(s));
    // Maximality: every vertex outside s has a neighbor in s or is in s.
    std::set<int> in(s.begin(), s.end());
    for (int v = 0; v < g.size(); ++v) {
      if (in.count(v)) continue;
      bool blocked = false;
      for (int u : s)
        if (g.has_edge(u, v)) {
          blocked = true;
          break;
        }
      EXPECT_TRUE(blocked) << "set not maximal at vertex " << v;
    }
  }
  // No duplicates.
  std::set<std::vector<int>> uniq(sets.begin(), sets.end());
  EXPECT_EQ(uniq.size(), sets.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep, ::testing::Range(0, 6));

// Every BfsScratch::walk-based routine against the independent oracle
// (tests/reference/hop_distance.h): single- and multi-source balls with
// their distances, two-radius balls, the cache's counted sizes, the
// k_hop_find verdict, an admit-filtered ball and is_connected. Graphs run
// from n = 1 to sparse and disconnected; radii include 0; source lists
// repeat vertices.
TEST(GraphProperty, WalkRoutinesMatchOracleBfs) {
  Rng rng(2025);
  std::vector<Graph> graphs;
  graphs.emplace_back(1);
  graphs.back().finalize();
  graphs.emplace_back(5);  // no edges: five components
  graphs.back().finalize();
  for (const auto& [n, p] : std::vector<std::pair<int, double>>{
           {2, 1.0}, {12, 0.3}, {30, 0.04}, {40, 0.08}, {60, 0.05}})
    graphs.push_back(erdos_renyi(n, p, rng).graph());
  BfsScratch scratch;
  int disconnected = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const int n = g.size();
    SCOPED_TRACE("graph " + std::to_string(gi) + " n=" + std::to_string(n));
    std::vector<std::vector<int>> dist;
    for (int v = 0; v < n; ++v) dist.push_back(reference_distances(g, v));

    const bool connected = std::none_of(dist[0].begin(), dist[0].end(),
                                        [](int d) { return d < 0; });
    EXPECT_EQ(g.is_connected(), connected);
    if (!connected) ++disconnected;

    for (const int k : {0, 1, 2, 3, BfsScratch::kUnbounded}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      std::vector<int> out, inner, outer;
      for (int v = 0; v < n; ++v) {
        const auto& dv = dist[static_cast<std::size_t>(v)];
        scratch.k_hop_neighborhood(g, v, k, out);
        EXPECT_EQ(out, within(dv, k)) << "v=" << v;
        for (const int ki : {0, 1}) {
          if (ki > k) continue;
          scratch.two_radius_neighborhood(g, v, ki, k, inner, outer);
          EXPECT_EQ(inner, within(dv, ki)) << "v=" << v << " ki=" << ki;
          EXPECT_EQ(outer, within(dv, k)) << "v=" << v << " ki=" << ki;
        }

        // k_hop_find: some vertex of the ball whose label is 0 mod 3 (v
        // excluded), at the least distance any such vertex has.
        const auto pred = [&](int u) { return u != v && u % 3 == 0; };
        const auto d = [&](int u) { return dv[static_cast<std::size_t>(u)]; };
        int nearest = -1;
        for (int u : within(dv, k))
          if (pred(u) && (nearest < 0 || d(u) < d(nearest))) nearest = u;
        const int found = scratch.k_hop_find(g, v, k, pred);
        if (nearest < 0) {
          EXPECT_EQ(found, -1) << "v=" << v;
        } else {
          ASSERT_GE(found, 0) << "v=" << v;
          EXPECT_TRUE(pred(found));
          EXPECT_EQ(d(found), d(nearest)) << "v=" << v;
        }
      }

      // Multi-source reach from 0-4 sources plus a repeat, sorted and
      // unsorted.
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> sources;
        const int count = rng.uniform_int(0, 4);
        for (int i = 0; i < count; ++i)
          sources.push_back(rng.uniform_int(0, n - 1));
        if (!sources.empty()) sources.push_back(sources.front());
        const auto ds = reference::hop_distances(g, sources);
        scratch.multi_source_k_hop(g, sources, k, out);
        EXPECT_EQ(out, within(ds, k));
        for (int u : out)
          EXPECT_EQ(scratch.distance(u), ds[static_cast<std::size_t>(u)]);
        scratch.multi_source_k_hop_unsorted(g, sources, k, out);
        int prev = 0;
        for (int u : out) {
          EXPECT_EQ(scratch.distance(u), ds[static_cast<std::size_t>(u)]);
          EXPECT_GE(scratch.distance(u), prev) << "not in BFS order";
          prev = scratch.distance(u);
        }
        std::sort(out.begin(), out.end());
        EXPECT_EQ(out, within(ds, k));
      }

      // Admit-filtered walk (the robust PTAS's restricted ball): only alive
      // vertices expand, so the ball is the alive subgraph's ball.
      std::vector<char> alive(static_cast<std::size_t>(n));
      std::vector<int> alive_ids;
      for (int u = 0; u < n; ++u) {
        alive[static_cast<std::size_t>(u)] = rng.bernoulli(0.7) ? 1 : 0;
        if (alive[static_cast<std::size_t>(u)]) alive_ids.push_back(u);
      }
      if (alive_ids.empty()) continue;
      const reference::InducedSubgraph sub =
          reference::induced_subgraph(g, alive_ids);
      const int src_local = rng.uniform_int(0, sub.graph.size() - 1);
      const int src = sub.to_parent[static_cast<std::size_t>(src_local)];
      std::vector<int> want;
      for (int u : within(reference_distances(sub.graph, src_local), k))
        want.push_back(sub.to_parent[static_cast<std::size_t>(u)]);
      out.clear();
      scratch.walk(
          g, {&src, 1}, k,
          [&](int u, int) { return alive[static_cast<std::size_t>(u)] != 0; },
          [&](int x, int) {
            out.push_back(x);
            return false;
          });
      std::sort(out.begin(), out.end());
      EXPECT_EQ(out, want) << "restricted ball of " << src;
    }

    // Two-radius sizes: the cache's count-then-fill build (its count pass
    // is a counting walk) and the flood-size memo.
    for (const int r : {1, 2}) {
      const NeighborhoodCache cache(g, r, 2);
      std::vector<int> all(static_cast<std::size_t>(n));
      std::iota(all.begin(), all.end(), 0);
      FloodSizes e_sizes(2 * r + 1);
      std::int64_t e_total = 0;
      for (int v = 0; v < n; ++v) {
        const auto& dv = dist[static_cast<std::size_t>(v)];
        const auto r_ball = cache.r_ball(v);
        EXPECT_EQ(std::vector<int>(r_ball.begin(), r_ball.end()),
                  within(dv, r));
        if (cache.eball_tier() == NeighborhoodCache::EballTier::kExplicit) {
          const auto e_ball = cache.election_ball(v);
          EXPECT_EQ(std::vector<int>(e_ball.begin(), e_ball.end()),
                    within(dv, 2 * r + 1));
        }
        e_total += static_cast<std::int64_t>(within(dv, 2 * r + 1).size());
      }
      EXPECT_EQ(e_sizes.sum(g, all, scratch), e_total) << "r=" << r;
    }
  }
  EXPECT_GE(disconnected, 2) << "the sweep must include disconnected graphs";
}

// Growth-bound sweep across channels and radii (Theorem 2 generalization).
class GrowthBoundSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GrowthBoundSweep, ExtendedGraphIndependenceWithinPigeonholeBound) {
  const int m_channels = std::get<0>(GetParam());
  const int r = std::get<1>(GetParam());
  Rng rng(static_cast<std::uint64_t>(m_channels * 10 + r));
  ConflictGraph cg = random_geometric_avg_degree(24, 5.0, rng, false);
  ExtendedConflictGraph ecg(cg, m_channels);
  const Graph& h = ecg.graph();
  BfsScratch scratch(h.size());
  for (int v = 0; v < h.size(); v += std::max(1, h.size() / 6)) {
    const auto ball = scratch.k_hop_neighborhood(h, v, r);
    const reference::InducedSubgraph sub = reference::induced_subgraph(h, ball);
    EXPECT_LE(independence_number(sub.graph),
              m_channels * (2 * r + 1) * (2 * r + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GrowthBoundSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2)));

TEST(GraphProperty, ExtendedGraphDegreeStructure) {
  // deg_H(v_{i,j}) = (M-1) + deg_G(i): the master clique plus same-channel
  // conflict edges.
  Rng rng(99);
  ConflictGraph cg = random_geometric_avg_degree(15, 4.0, rng, false);
  for (int m : {1, 2, 5}) {
    ExtendedConflictGraph ecg(cg, m);
    for (int i = 0; i < cg.num_nodes(); ++i)
      for (int j = 0; j < m; ++j)
        EXPECT_EQ(ecg.graph().degree(ecg.vertex_of(i, j)),
                  (m - 1) + cg.graph().degree(i));
  }
}

TEST(GraphProperty, ExtendedGraphEdgeCount) {
  // |E_H| = N * C(M,2) + M * |E_G|.
  Rng rng(100);
  ConflictGraph cg = erdos_renyi(20, 0.2, rng);
  for (int m : {2, 3, 6}) {
    ExtendedConflictGraph ecg(cg, m);
    const std::int64_t expected =
        static_cast<std::int64_t>(20) * m * (m - 1) / 2 +
        static_cast<std::int64_t>(m) * cg.graph().num_edges();
    EXPECT_EQ(ecg.graph().num_edges(), expected);
  }
}

TEST(GraphProperty, SpatialGridPairSweepMatchesAllPairs) {
  // The unit-disk hot paths (from_positions, waypoint re-derivation) lean
  // on the grid emitting exactly the naive O(n^2) sweep's pairs. Fuzz over
  // point distributions: uniform, clustered (many points per cell),
  // collinear, and coincident points; radii from "nothing close" to
  // "everything close".
  Rng rng(314);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + trial % 40;
    std::vector<Point> pts;
    pts.reserve(static_cast<std::size_t>(n));
    const int dist_kind = trial % 4;
    for (int i = 0; i < n; ++i) {
      switch (dist_kind) {
        case 0:  // uniform square
          pts.push_back(Point{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
          break;
        case 1:  // two tight clusters
          pts.push_back(Point{rng.uniform(0.0, 0.5) + (i % 2) * 8.0,
                              rng.uniform(0.0, 0.5)});
          break;
        case 2:  // collinear (degenerate rows of cells)
          pts.push_back(Point{0.37 * i, 2.0});
          break;
        default:  // coincident + jitter
          pts.push_back(Point{1.0 + 1e-9 * i, 1.0});
          break;
      }
    }
    const double radius = 0.05 + rng.uniform() * 5.0;
    std::vector<std::pair<int, int>> naive;
    const double r2 = radius * radius;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (squared_distance(pts[static_cast<std::size_t>(i)],
                             pts[static_cast<std::size_t>(j)]) <= r2)
          naive.emplace_back(i, j);

    const SpatialGrid grid(pts, radius);
    std::vector<std::pair<int, int>> from_grid;
    grid.for_each_pair_within(
        pts, radius, [&](int i, int j) { from_grid.emplace_back(i, j); });
    std::sort(from_grid.begin(), from_grid.end());
    ASSERT_EQ(from_grid, naive) << "trial " << trial;

    // Radius query around a random center (possibly outside the bbox).
    const Point center{rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 12.0)};
    std::vector<int> naive_in;
    for (int i = 0; i < n; ++i)
      if (squared_distance(pts[static_cast<std::size_t>(i)], center) <= r2)
        naive_in.push_back(i);
    std::vector<int> grid_in;
    grid.for_each_within(pts, center, radius,
                         [&](int i) { grid_in.push_back(i); });
    std::sort(grid_in.begin(), grid_in.end());
    ASSERT_EQ(grid_in, naive_in) << "trial " << trial;
  }
}

TEST(GraphProperty, GridBackedFromPositionsMatchesNaiveSweep) {
  // ConflictGraph::from_positions now derives edges through the grid; the
  // resulting graph must equal the direct all-pairs construction.
  Rng rng(2718);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 30 + trial * 7;
    std::vector<Point> pts;
    for (int i = 0; i < n; ++i)
      pts.push_back(Point{rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)});
    const double radius = 0.3 + 0.15 * (trial % 5);
    const ConflictGraph cg = ConflictGraph::from_positions(pts, radius);
    const double r2 = radius * radius;
    std::vector<std::pair<int, int>> naive;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (squared_distance(pts[static_cast<std::size_t>(i)],
                             pts[static_cast<std::size_t>(j)]) <= r2)
          naive.emplace_back(i, j);
    ASSERT_EQ(cg.graph().num_edges(),
              static_cast<std::int64_t>(naive.size()));
    for (const auto& [u, v] : naive)
      ASSERT_TRUE(cg.graph().has_edge(u, v)) << u << "," << v;
  }
}

TEST(GraphProperty, IndependentSetCheckMatchesPairwiseOracle) {
  // The O(|vs| + Σ deg) neighbor-mark validator (the one the engine assert
  // and the net conflict detector run per decision) must return exactly the
  // pairwise oracle's verdict on every input: random subsets both
  // independent and conflicting, shuffled order, duplicate vertices, empty
  // and singleton sets.
  Rng rng(4242);
  for (int trial = 0; trial < 150; ++trial) {
    const int n = 1 + trial % 60;
    ConflictGraph cg =
        erdos_renyi(n, 0.05 + 0.12 * (trial % 4), rng);
    const Graph& g = cg.graph();
    for (int s = 0; s < 10; ++s) {
      std::vector<int> vs;
      const double keep = rng.uniform(0.05, 0.6);
      for (int v = 0; v < n; ++v)
        if (rng.bernoulli(keep)) vs.push_back(v);
      std::shuffle(vs.begin(), vs.end(), rng.engine());
      if (s % 3 == 2 && !vs.empty()) {
        // Duplicate a member — the mark check must catch the second
        // occurrence exactly like the pairwise vs[i] == vs[j] probe.
        vs.push_back(vs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(vs.size()) - 1))]);
        std::shuffle(vs.begin(), vs.end(), rng.engine());
      }
      ASSERT_EQ(g.is_independent_set(vs),
                reference::is_independent_set_pairwise(g, vs))
          << "trial " << trial << " subset " << s;
    }
    // Exercise the accepting branch deliberately: every maximal IS must
    // pass both checks (random subsets of a dense graph almost never do).
    std::vector<std::vector<int>> sets;
    if (enumerate_maximal_independent_sets(g, 2000, sets)) {
      for (std::size_t i = 0; i < sets.size(); i += sets.size() / 4 + 1) {
        ASSERT_TRUE(g.is_independent_set(sets[i]));
        ASSERT_TRUE(reference::is_independent_set_pairwise(g, sets[i]));
      }
    }
  }
}

TEST(GraphProperty, IndependentSetCheckMatchesOracleOnLargeGraphs) {
  // Same agreement on a graph of 8,256 vertices. Structure lives in a
  // low-id core plus deliberate edges to top-of-range ids so subsets span
  // the full universe.
  const int n = 8192 + 64;
  Rng rng(777);
  Graph g(n);
  const int core = 120;
  for (int i = 0; i < core; ++i)
    for (int j = i + 1; j < core; ++j)
      if (rng.bernoulli(0.08)) g.add_edge(i, j);
  for (int i = 0; i < core; ++i) g.add_edge(i, n - 1 - i);
  g.finalize();

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<int> vs;
    const int picks = rng.uniform_int(0, 24);
    for (int p = 0; p < picks; ++p) {
      // Mix core vertices (where the edges are), their high-id partners,
      // and isolated mid-range ids.
      switch (rng.uniform_int(0, 2)) {
        case 0: vs.push_back(rng.uniform_int(0, core - 1)); break;
        case 1: vs.push_back(n - 1 - rng.uniform_int(0, core - 1)); break;
        default: vs.push_back(rng.uniform_int(core, n - core - 1)); break;
      }
    }
    if (trial % 4 == 3 && !vs.empty())
      vs.push_back(vs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(vs.size()) - 1))]);
    std::shuffle(vs.begin(), vs.end(), rng.engine());
    ASSERT_EQ(g.is_independent_set(vs),
              reference::is_independent_set_pairwise(g, vs))
        << "trial " << trial;
  }
}

TEST(GraphProperty, IndependentSetCheckOnSignedZeroWeightWinnerSets) {
  // Decisions whose weights include +0.0/-0.0 produce winner sets through
  // the election key path that collapses the two zeros; the winner set the
  // engine validates must satisfy both checks, and perturbed versions
  // (duplicated winner, winner plus one of its neighbors) must fail both
  // identically.
  Rng rng(909);
  ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng, false);
  ExtendedConflictGraph ecg(cg, 2);
  const Graph& h = ecg.graph();
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    switch (i % 4) {
      case 0: w[i] = 0.0; break;
      case 1: w[i] = -0.0; break;
      default: w[i] = rng.uniform(0.05, 1.0); break;
    }
  }
  DistributedPtasConfig cfg;
  cfg.r = 2;
  DistributedRobustPtas engine(h, cfg);
  const auto res = engine.run(w);
  ASSERT_TRUE(h.is_independent_set(res.winners));
  ASSERT_TRUE(reference::is_independent_set_pairwise(h, res.winners));
  ASSERT_FALSE(res.winners.empty());

  std::vector<int> dup = res.winners;
  dup.push_back(res.winners[res.winners.size() / 2]);
  EXPECT_FALSE(h.is_independent_set(dup));
  EXPECT_FALSE(reference::is_independent_set_pairwise(h, dup));

  for (int v : res.winners) {
    for (int u : h.neighbors(v)) {
      std::vector<int> bad = res.winners;
      bad.push_back(u);
      ASSERT_EQ(h.is_independent_set(bad),
                reference::is_independent_set_pairwise(h, bad));
      ASSERT_FALSE(h.is_independent_set(bad));
      break;  // one conflicting extension per winner is plenty
    }
    break;
  }
}

}  // namespace
}  // namespace mhca
