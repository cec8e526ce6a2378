// Large-n smoke: the decision path past the dense-matrix limit.
//
// Everything here runs on graphs with more than Graph::kAdjacencyMatrixLimit
// vertices, where finalize() builds sharded sparse rows instead of the n^2
// bitset matrix. The claims: (1) the representation selection is what the
// README's rule says, (2) the cached decision path (NeighborhoodCache +
// sparse-row gather + incremental SoA election) takes byte-identical
// decisions to the seed re-derivation reference (tests/reference/) at
// n ≈ 10k and 250k, (3) incremental
// apply_delta keeps the sharded structures exact, and (4) a default
// geometric scenario scaled to 50k vertices builds and runs.
//
// ctest label "large": runs in the Release CI job only (Debug/ASan jobs
// filter it out with -LE large — an unoptimized 10k-vertex decision is
// minutes, not seconds).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/distributed_ptas.h"
#include "reference/seed_ptas.h"
#include "scenario/runner.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace mhca {
namespace {

TEST(LargeN, DefaultGeometricScenarioRunsAtFiftyThousandVertices) {
  // quickstart.ini leaves topology.force_connected unset. Rejection-sampling
  // a connected 6,250-node geometric graph would exhaust max_attempts, so
  // above the registry's node threshold the default keeps the first sample.
  scenario::Scenario s = scenario::parse_scenario_file(
      std::string(MHCA_SOURCE_DIR) + "/examples/scenarios/quickstart.ini");
  ASSERT_FALSE(s.topology.params.has("force_connected"));
  scenario::apply_override(s, "topology.nodes=6250");
  scenario::apply_override(s, "run.slots=2");
  const scenario::ScenarioRunner runner(s);
  EXPECT_EQ(runner.extended_graph().num_vertices(), 50'000);
  const SimulationResult res = runner.run();
  EXPECT_EQ(res.total_slots, 2);
  EXPECT_FALSE(res.last_strategy.empty());
}

TEST(LargeN, RepresentationSelectionRule) {
  Rng rng(5);
  ConflictGraph small = random_geometric_avg_degree(
      100, 5.0, rng, /*force_connected=*/false);
  EXPECT_TRUE(small.graph().has_adjacency_matrix());
  EXPECT_FALSE(small.graph().has_sparse_rows());

  ConflictGraph big = random_geometric_avg_degree(
      Graph::kAdjacencyMatrixLimit + 100, 5.0, rng, /*force_connected=*/false);
  EXPECT_FALSE(big.graph().has_adjacency_matrix());
  EXPECT_TRUE(big.graph().has_sparse_rows());

  // Sparse rows agree with the CSR row for every vertex.
  const Graph& g = big.graph();
  std::vector<int> from_sparse;
  for (int v = 0; v < g.size(); v += 97) {
    from_sparse.clear();
    const auto blocks = g.sparse_row_blocks(v);
    const auto words = g.sparse_row_words(v);
    ASSERT_EQ(blocks.size(), words.size());
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      ASSERT_NE(words[k], 0u) << "stored zero block";
      if (k > 0) ASSERT_LT(blocks[k - 1], blocks[k]) << "blocks not ascending";
      for (int b = 0; b < 64; ++b)
        if ((words[k] >> b) & 1u) from_sparse.push_back(blocks[k] * 64 + b);
    }
    const auto nb = g.neighbors(v);
    ASSERT_TRUE(std::equal(nb.begin(), nb.end(), from_sparse.begin(),
                           from_sparse.end()))
        << "vertex " << v;
  }
}

TEST(LargeN, EballTierSelectionRule) {
  // The election-ball layer is tiered by the same n <= kAdjacencyMatrixLimit
  // threshold that picks the dense adjacency matrix, with MHCA_EBALL_TIER
  // as a per-construction override — and the two tiers describe the same
  // balls: identical r-ball spans, identical election-ball sizes, and the
  // implicit tier's sizes match a fresh BFS enumeration.
  Rng rng(91);
  ConflictGraph small_cg = random_geometric_avg_degree(
      300, 5.0, rng, /*force_connected=*/false);
  const Graph& small = small_cg.graph();
  EXPECT_EQ(NeighborhoodCache::select_eball_tier(small.size()),
            NeighborhoodCache::EballTier::kExplicit);
  EXPECT_EQ(
      NeighborhoodCache::select_eball_tier(Graph::kAdjacencyMatrixLimit + 1),
      NeighborhoodCache::EballTier::kImplicit);

  const NeighborhoodCache exp(small, 2, /*parallelism=*/1);
  ASSERT_EQ(exp.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
  EXPECT_EQ(exp.explicit_layout_bytes(), exp.resident_bytes());

  EballTierOverride force(NeighborhoodCache::EballTier::kImplicit);
  const NeighborhoodCache imp(small, 2, /*parallelism=*/1);
  ASSERT_EQ(imp.eball_tier(), NeighborhoodCache::EballTier::kImplicit);
  EXPECT_LT(imp.resident_bytes(), exp.resident_bytes());
  EXPECT_EQ(imp.explicit_layout_bytes(), exp.resident_bytes());

  BfsScratch scratch(small.size());
  std::vector<int> ball;
  for (int v = 0; v < small.size(); ++v) {
    const auto re = exp.r_ball(v), ri = imp.r_ball(v);
    ASSERT_TRUE(std::equal(re.begin(), re.end(), ri.begin(), ri.end()))
        << "r-ball of " << v;
    ASSERT_EQ(imp.election_ball_size(v), exp.election_ball_size(v))
        << "e-ball size of " << v;
    scratch.k_hop_neighborhood(small, v, 2 * 2 + 1, ball);
    ASSERT_EQ(imp.election_ball_size(v), static_cast<int>(ball.size()))
        << "e-ball size of " << v << " vs BFS";
  }
}

TEST(LargeN, CachedDecisionPathMatchesSeedPathAtTenThousandVertices) {
  // 2500 users x 4 channels = 10000 H vertices — past the matrix limit, so
  // both paths' local solves gather adjacency from sparse rows.
  Rng rng(2026);
  ConflictGraph cg = random_geometric_avg_degree(
      2500, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_GT(h.size(), Graph::kAdjacencyMatrixLimit);
  ASSERT_TRUE(h.has_sparse_rows());

  DistributedPtasConfig cached_cfg;
  cached_cfg.r = 2;
  cached_cfg.local_solve_parallelism = 0;  // fan out; determinism is claimed

  reference::SeedPtas seed_engine(h, cached_cfg);
  DistributedRobustPtas cached_engine(h, cached_cfg);

  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (int decision = 0; decision < 2; ++decision) {
    for (auto& x : w) x = rng.uniform(0.05, 1.0);
    const DistributedPtasResult a = seed_engine.run(w);
    const DistributedPtasResult b = cached_engine.run(w);
    ASSERT_EQ(a.winners, b.winners) << "decision " << decision;
    ASSERT_EQ(a.weight, b.weight) << "decision " << decision;
    ASSERT_EQ(a.mini_rounds_used, b.mini_rounds_used);
    ASSERT_TRUE(h.is_independent_set(b.winners));
  }
}

TEST(LargeN, StageTimesCoverWholeDecisionAtTwelveThousandVertices) {
  // Regression for the untimed-742ms bug: the four original stage buckets
  // accounted for ~3% of a 50k-vertex decision while the O(W²) winner
  // validation burned the rest off the books. With setup/validate/other
  // buckets the accounting must be total: Σ buckets ≥ 95% of the wall
  // clock an external caller measures around run(). 3200 users x 4
  // channels = 12800 H vertices keeps the test seconds-long while well
  // past the dense-matrix limit.
  Rng rng(1212);
  ConflictGraph cg = random_geometric_avg_degree(
      3200, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_GT(h.size(), Graph::kAdjacencyMatrixLimit);

  DistributedPtasConfig cfg;
  cfg.r = 2;
  cfg.collect_stage_times = true;
  cfg.local_solve_parallelism = 1;
  DistributedRobustPtas engine(h, cfg);

  std::vector<double> w(static_cast<std::size_t>(h.size()));
  using Clock = std::chrono::steady_clock;
  double external_ms = 0.0;
  for (int decision = 0; decision < 3; ++decision) {
    for (auto& x : w) x = rng.uniform(0.05, 1.0);
    const auto t0 = Clock::now();
    engine.run(w);
    external_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }
  const DecisionStageTimes& st = engine.stage_times();
  EXPECT_GE(st.total_ms(), 0.95 * external_ms)
      << "setup=" << st.setup_ms << " election=" << st.election_ms
      << " gather=" << st.gather_ms << " solve=" << st.solve_ms
      << " apply=" << st.apply_ms << " validate=" << st.validate_ms
      << " other=" << st.other_ms << " external=" << external_ms;
  // And the buckets are real measurements, not padding: the named protocol
  // stages must hold most of the time (`other` is loop bookkeeping only).
  EXPECT_LT(st.other_ms, 0.5 * st.total_ms());
}

TEST(LargeN, ParallelCacheBuildByteIdenticalAcrossWorkerCounts) {
  // The count-then-fill parallel build writes every vertex's balls into
  // offset slots fixed by a worker-count-independent prefix sum, so any
  // parallelism must reproduce the serial single-pass build byte for byte.
  Rng rng(33);
  ConflictGraph cg = random_geometric_avg_degree(
      2300, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_GT(h.size(), Graph::kAdjacencyMatrixLimit);

  // This graph is past the matrix limit, so both tiers are exercised: the
  // default implicit tier here, the explicit tier forced below.
  const NeighborhoodCache serial(h, 2, /*parallelism=*/1);
  ASSERT_EQ(serial.eball_tier(), NeighborhoodCache::EballTier::kImplicit);
  const auto check = [&](const NeighborhoodCache& par, int workers) {
    ASSERT_EQ(par.size(), serial.size());
    const bool spans =
        par.eball_tier() == NeighborhoodCache::EballTier::kExplicit &&
        serial.eball_tier() == NeighborhoodCache::EballTier::kExplicit;
    for (int v = 0; v < h.size(); ++v) {
      const auto rs = serial.r_ball(v), rp = par.r_ball(v);
      ASSERT_TRUE(std::equal(rs.begin(), rs.end(), rp.begin(), rp.end()))
          << "r-ball of " << v << " at workers=" << workers;
      ASSERT_EQ(serial.election_ball_size(v), par.election_ball_size(v))
          << "election ball size of " << v << " at workers=" << workers;
      if (spans) {
        const auto es = serial.election_ball(v), ep = par.election_ball(v);
        ASSERT_TRUE(std::equal(es.begin(), es.end(), ep.begin(), ep.end()))
            << "election ball of " << v << " at workers=" << workers;
      }
    }
  };
  for (int workers : {2, 4}) {
    const NeighborhoodCache par(h, 2, workers);
    ASSERT_EQ(par.eball_tier(), serial.eball_tier());
    check(par, workers);
  }
  {
    // Same claim with explicit e-ball spans: the count-then-fill layout is
    // worker-count independent on both tiers.
    EballTierOverride force(NeighborhoodCache::EballTier::kExplicit);
    const NeighborhoodCache eser(h, 2, /*parallelism=*/1);
    ASSERT_EQ(eser.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
    const NeighborhoodCache epar(h, 2, /*parallelism=*/4);
    ASSERT_EQ(epar.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
    for (int v = 0; v < h.size(); ++v) {
      const auto es = eser.election_ball(v), ep = epar.election_ball(v);
      ASSERT_TRUE(std::equal(es.begin(), es.end(), ep.begin(), ep.end()))
          << "explicit election ball of " << v;
      ASSERT_EQ(serial.election_ball_size(v), eser.election_ball_size(v))
          << "tiers disagree on e-ball size of " << v;
    }
  }
}

TEST(LargeN, CachedDecisionMatchesSeedAtQuarterMillionVertices) {
  // 62500 users x 4 channels = 250k H vertices. One decision, seed
  // reference (max-relaxation election + per-leader BFS) against the engine
  // (implicit-tier NeighborhoodCache + SoA election): byte-identical
  // winners and weight. This is the scale gate on the road to 1M — the
  // explicit e-ball spans would hold ~10^8 entries here; the implicit tier
  // stores 4 bytes per vertex.
  Rng rng(250250);
  ConflictGraph cg = random_geometric_avg_degree(
      62500, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_EQ(h.size(), 250000);

  DistributedPtasConfig cached_cfg;
  cached_cfg.r = 2;
  cached_cfg.local_solve_parallelism = 0;

  reference::SeedPtas seed_engine(h, cached_cfg);
  DistributedRobustPtas cached_engine(h, cached_cfg);
  ASSERT_EQ(cached_engine.neighborhood_cache().eball_tier(),
            NeighborhoodCache::EballTier::kImplicit);

  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  const DistributedPtasResult a = seed_engine.run(w);
  const DistributedPtasResult b = cached_engine.run(w);
  ASSERT_EQ(a.winners, b.winners);
  ASSERT_EQ(a.weight, b.weight);
  ASSERT_EQ(a.mini_rounds_used, b.mini_rounds_used);
  ASSERT_TRUE(h.is_independent_set(b.winners));
}

TEST(LargeN, ApplyDeltaKeepsSparseRowsExact) {
  Rng rng(77);
  const int n = Graph::kAdjacencyMatrixLimit + 50;
  Graph g(n);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 4000; ++i) {
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

  // Remove a slice, add a fresh batch, and compare against a cold rebuild.
  std::vector<std::pair<int, int>> removed(edges.begin(), edges.begin() + 200);
  std::vector<std::pair<int, int>> added;
  for (int i = 0; i < 300; ++i) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (g.has_edge(u, v)) continue;
    added.emplace_back(u, v);
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  // Re-adding a just-removed edge would make the delta inexact.
  std::vector<std::pair<int, int>> clean_added;
  std::set_difference(added.begin(), added.end(), removed.begin(),
                      removed.end(), std::back_inserter(clean_added));
  g.apply_delta(clean_added, removed);

  std::vector<std::pair<int, int>> now(edges.begin() + 200, edges.end());
  now.insert(now.end(), clean_added.begin(), clean_added.end());
  std::sort(now.begin(), now.end());
  Graph rebuilt(n);
  for (const auto& [u, v] : now) rebuilt.add_edge(u, v);
  rebuilt.finalize();

  ASSERT_EQ(g.num_edges(), rebuilt.num_edges());
  for (int v = 0; v < n; ++v) {
    const auto ba = g.sparse_row_blocks(v);
    const auto bb = rebuilt.sparse_row_blocks(v);
    ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()))
        << "blocks of row " << v;
    const auto wa = g.sparse_row_words(v);
    const auto wb = rebuilt.sparse_row_words(v);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << "words of row " << v;
  }
}

}  // namespace
}  // namespace mhca
