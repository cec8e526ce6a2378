// Large-n smoke: the decision path past the explicit e-ball tier.
//
// Everything here runs on graphs with more than
// NeighborhoodCache::kExplicitTierLimit vertices, where the cache keeps
// only election-ball sizes. The claims: (1) the tier selection is what the
// README's rule says, (2) the cached decision path (NeighborhoodCache +
// CSR gather + incremental SoA election) takes byte-identical decisions
// to the seed re-derivation reference (tests/reference/) at n ≈ 10k and
// 250k, (3) incremental apply_delta keeps the CSR rows exact, (4) a
// default geometric scenario scaled to 50k vertices builds and runs, and
// (5) BfsScratch's 32-bit walk epoch survives wrap-around (2^32 walks).
//
// ctest label "large": runs in the Release CI job only (Debug/ASan jobs
// filter it out with -LE large — an unoptimized 10k-vertex decision is
// minutes, not seconds).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
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

// BfsScratch stamps visited vertices with a 32-bit epoch, one per walk.
// After 2^32 walks the epoch wraps; a stamp left by an old walk must not
// alias the new one. Vertex 0 is stamped by walk 1 (epoch 1), 2^32 - 1
// walks without sources follow, and then walk 1's epoch would recur:
// without the refill on wrap, vertex 0 would look visited and the last
// walk would visit nothing.
TEST(LargeN, WalkEpochWrapRefillsStamps) {
  Graph g(1);
  g.finalize();
  BfsScratch scratch;
  const int v = 0;
  int visits = 0;
  const auto count = [&](int, int) {
    ++visits;
    return false;
  };
  scratch.walk(g, {&v, 1}, 0, AdmitAll{}, count);
  for (std::uint64_t i = 1; i < (std::uint64_t{1} << 32); ++i)
    scratch.walk(g, {}, 0, AdmitAll{}, count);
  scratch.walk(g, {&v, 1}, 0, AdmitAll{}, count);
  EXPECT_EQ(visits, 2);
  EXPECT_TRUE(scratch.reached(v));
}

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

TEST(LargeN, EballTierSelectionRule) {
  // The election-ball layer is tiered by n <= kExplicitTierLimit, with
  // MHCA_EBALL_TIER as a per-construction override — and the two tiers
  // describe the same balls: identical r-ball spans, and the election-ball
  // sizes the message accounting charges (a FloodSizes memo at 2r+1) match
  // both the explicit spans and a fresh BFS enumeration.
  Rng rng(91);
  ConflictGraph small_cg = random_geometric_avg_degree(
      300, 5.0, rng, /*force_connected=*/false);
  const Graph& small = small_cg.graph();
  EXPECT_EQ(NeighborhoodCache::select_eball_tier(small.size()),
            NeighborhoodCache::EballTier::kExplicit);
  EXPECT_EQ(
      NeighborhoodCache::select_eball_tier(
          NeighborhoodCache::kExplicitTierLimit + 1),
      NeighborhoodCache::EballTier::kImplicit);

  const NeighborhoodCache exp(small, 2, /*parallelism=*/1);
  ASSERT_EQ(exp.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
  EXPECT_EQ(exp.explicit_layout_bytes(small), exp.resident_bytes());

  EballTierOverride force(NeighborhoodCache::EballTier::kImplicit);
  const NeighborhoodCache imp(small, 2, /*parallelism=*/1);
  ASSERT_EQ(imp.eball_tier(), NeighborhoodCache::EballTier::kImplicit);
  EXPECT_LT(imp.resident_bytes(), exp.resident_bytes());
  EXPECT_EQ(imp.explicit_layout_bytes(small), exp.resident_bytes());

  BfsScratch scratch(small.size());
  FloodSizes e_sizes(2 * 2 + 1);
  std::vector<int> ball;
  for (int v = 0; v < small.size(); ++v) {
    const auto re = exp.r_ball(v), ri = imp.r_ball(v);
    ASSERT_TRUE(std::equal(re.begin(), re.end(), ri.begin(), ri.end()))
        << "r-ball of " << v;
    const std::int64_t e_size = e_sizes.sum(small, {{v}}, scratch);
    ASSERT_EQ(e_size, static_cast<std::int64_t>(exp.election_ball(v).size()))
        << "e-ball size of " << v;
    scratch.k_hop_neighborhood(small, v, 2 * 2 + 1, ball);
    ASSERT_EQ(e_size, static_cast<std::int64_t>(ball.size()))
        << "e-ball size of " << v << " vs BFS";
  }
}

TEST(LargeN, CachedDecisionPathMatchesSeedPathAtTenThousandVertices) {
  // 2500 users x 4 channels = 10000 H vertices — past the tier limit, so
  // the cached path runs the implicit e-ball tier.
  Rng rng(2026);
  ConflictGraph cg = random_geometric_avg_degree(
      2500, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_GT(h.size(), NeighborhoodCache::kExplicitTierLimit);

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
  // past the tier limit.
  Rng rng(1212);
  ConflictGraph cg = random_geometric_avg_degree(
      3200, 6.0, rng, /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  ASSERT_GT(h.size(), NeighborhoodCache::kExplicitTierLimit);

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
  ASSERT_GT(h.size(), NeighborhoodCache::kExplicitTierLimit);

  // This graph is past the tier limit, so both tiers are exercised: the
  // default implicit tier here (r-balls only), the explicit tier forced
  // below.
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
    // worker-count independent on both tiers. The spans' sizes are the
    // flood sizes the message accounting counts on demand.
    EballTierOverride force(NeighborhoodCache::EballTier::kExplicit);
    BfsScratch scratch(h.size());
    FloodSizes e_sizes(2 * 2 + 1);
    std::vector<int> all(static_cast<std::size_t>(h.size()));
    std::iota(all.begin(), all.end(), 0);
    e_sizes.sum(h, all, scratch);
    const NeighborhoodCache eser(h, 2, /*parallelism=*/1);
    ASSERT_EQ(eser.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
    const NeighborhoodCache epar(h, 2, /*parallelism=*/4);
    ASSERT_EQ(epar.eball_tier(), NeighborhoodCache::EballTier::kExplicit);
    for (int v = 0; v < h.size(); ++v) {
      const auto es = eser.election_ball(v), ep = epar.election_ball(v);
      ASSERT_TRUE(std::equal(es.begin(), es.end(), ep.begin(), ep.end()))
          << "explicit election ball of " << v;
      ASSERT_EQ(e_sizes.cached(v), static_cast<int>(es.size()))
          << "flood size disagrees with the e-ball of " << v;
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

TEST(LargeN, ApplyDeltaKeepsRowsExact) {
  Rng rng(77);
  const int n = NeighborhoodCache::kExplicitTierLimit + 50;
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
    const auto na = g.neighbors(v);
    const auto nb = rebuilt.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "row " << v;
  }
}

}  // namespace
}  // namespace mhca
