// Differential fuzz for the e-ball tier of the cached decision path
// (explicit CSR spans vs implicit BFS re-enumeration, forced either way via
// MHCA_EBALL_TIER). The election's tier-2 scan walks a stored span on one
// tier and an early-exit BFS on the other, and decisions must be
// byte-identical because the blocker verdict is scan-order independent
// (see src/graph/README.md).
//
// Both tiers must reproduce the seed reference's decision
// (tests/reference/seed_ptas.h) bit for bit, and apply_delta must stay
// identical to a fresh rebuild on both tiers. ctest label "fuzz" (name
// matches *differential*).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/distributed_ptas.h"
#include "reference/seed_ptas.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace mhca {
namespace {

// ------------------------------------------------- engine-level differential

TEST(TieredDifferential, DecisionsByteIdenticalAcrossTiers) {
  for (int c = 0; c < 6; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(9100 + static_cast<std::uint64_t>(c) * 131);
    const int users = 120 + c * 40;
    const int channels = 2 + c % 3;
    const double degree = 5.0 + (c % 3);
    const int r = 1 + c % 2;
    ConflictGraph cg = random_geometric_avg_degree(
        users, degree, rng, /*force_connected=*/false);
    ExtendedConflictGraph ecg(cg, channels);
    const Graph& h = ecg.graph();

    DistributedPtasConfig cached_cfg;
    cached_cfg.r = r;
    cached_cfg.local_solve_parallelism = 1;
    reference::SeedPtas seed_engine(h, cached_cfg);

    // One cached engine per tier, each fed every decision.
    const NeighborhoodCache::EballTier tiers[] = {
        NeighborhoodCache::EballTier::kExplicit,
        NeighborhoodCache::EballTier::kImplicit,
    };
    std::vector<DistributedRobustPtas> engines;
    engines.reserve(2);
    for (const auto tier : tiers) {
      EballTierOverride force(tier);
      engines.emplace_back(h, cached_cfg);
      ASSERT_EQ(engines.back().neighborhood_cache().eball_tier(), tier);
    }

    std::vector<double> w(static_cast<std::size_t>(h.size()));
    for (int decision = 0; decision < 3; ++decision) {
      for (auto& x : w) x = rng.uniform(0.05, 1.0);
      const DistributedPtasResult want = seed_engine.run(w);
      for (std::size_t t = 0; t < engines.size(); ++t) {
        const DistributedPtasResult got = engines[t].run(w);
        ASSERT_EQ(got.winners, want.winners)
            << "tier " << eball_tier_name(tiers[t]) << " decision "
            << decision;
        ASSERT_EQ(got.weight, want.weight);
        ASSERT_EQ(got.mini_rounds_used, want.mini_rounds_used);
      }
    }
  }
}

// ------------------------------------------------- apply_delta differential

TEST(TieredDifferential, ApplyDeltaMatchesFreshBuildOnBothTiers) {
  for (const auto tier : {NeighborhoodCache::EballTier::kExplicit,
                          NeighborhoodCache::EballTier::kImplicit}) {
    SCOPED_TRACE(std::string("tier ") + eball_tier_name(tier));
    EballTierOverride force(tier);
    Rng rng(4400);
    const int n = 60;
    const int r = 2;
    ConflictGraph base = random_geometric_avg_degree(
        n, 4.0, rng, /*force_connected=*/false);
    std::set<std::pair<int, int>> present;
    for (int v = 0; v < n; ++v)
      for (int u : base.graph().neighbors(v))
        if (v < u) present.insert({v, u});
    Graph g(n);
    for (const auto& [u, v] : present) g.add_edge(u, v);
    g.finalize();
    NeighborhoodCache cache(g, r);
    const bool expl = cache.eball_tier() ==
                      NeighborhoodCache::EballTier::kExplicit;

    // The election-ball sizes the message accounting charges live in a
    // FloodSizes memo, invalidated by the same deltas.
    BfsScratch scratch(n);
    FloodSizes e_sizes(2 * r + 1);
    std::vector<int> all(static_cast<std::size_t>(n)), reach, ball;
    std::iota(all.begin(), all.end(), 0);
    e_sizes.sum(g, all, scratch);
    for (int d = 0; d < 25; ++d) {
      std::vector<std::pair<int, int>> added, removed;
      for (int t = 0; t < 3; ++t) {
        int u = static_cast<int>(rng.uniform_int(0, n - 1));
        int v = static_cast<int>(rng.uniform_int(0, n - 1));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (present.count({u, v})) {
          removed.push_back({u, v});
          present.erase({u, v});
        } else {
          added.push_back({u, v});
          present.insert({u, v});
        }
      }
      if (added.empty() && removed.empty()) continue;
      std::vector<int> touched;
      for (const auto& [u, v] : added) {
        touched.push_back(u);
        touched.push_back(v);
      }
      for (const auto& [u, v] : removed) {
        touched.push_back(u);
        touched.push_back(v);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      g.apply_delta(added, removed);
      cache.apply_delta(g, touched);
      scratch.multi_source_k_hop_unsorted(g, touched, e_sizes.stale_radius(),
                                          reach);
      e_sizes.invalidate(reach, scratch);
      e_sizes.sum(g, all, scratch);

      Graph rebuilt(n);
      for (const auto& [u, v] : present) rebuilt.add_edge(u, v);
      rebuilt.finalize();
      const NeighborhoodCache fresh(rebuilt, r);
      ASSERT_EQ(fresh.eball_tier(), cache.eball_tier());
      for (int v = 0; v < n; ++v) {
        const auto ra = cache.r_ball(v), rb = fresh.r_ball(v);
        ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
            << "r-ball " << v << " at delta " << d;
        scratch.k_hop_neighborhood(rebuilt, v, 2 * r + 1, ball);
        ASSERT_EQ(e_sizes.cached(v), static_cast<int>(ball.size()))
            << "e-ball size " << v << " at delta " << d;
        if (expl) {
          const auto ea = cache.election_ball(v), eb = fresh.election_ball(v);
          ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
              << "e-ball " << v << " at delta " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mhca
