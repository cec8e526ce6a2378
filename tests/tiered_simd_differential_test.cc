// Differential fuzz for the two dispatch axes of the cached decision path:
//
//   - e-ball tier (explicit CSR spans vs implicit BFS re-enumeration,
//     forced either way via MHCA_EBALL_TIER) — the election's tier-2 scan
//     walks a stored span on one tier and an early-exit BFS on the other,
//     and decisions must be byte-identical because the blocker verdict is
//     scan-order independent (see src/graph/README.md).
//   - SIMD dispatch level (scalar / AVX2 / AVX-512, switched in-process via
//     util::set_simd_level, clamped to what the CPU supports) — the vector
//     kernels are pure block filters re-inspected scalar, so blocker
//     positions and the winner-validation verdict cannot differ.
//
// Every (tier x level) combination must reproduce the seed reference's
// decision (tests/reference/seed_ptas.h) bit for bit, and apply_delta must stay identical to a fresh rebuild on
// both tiers. ctest label "fuzz" (name matches *differential*); the CI
// Release job also runs the whole suite once under MHCA_FORCE_SCALAR=1.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "util/cpufeatures.h"
#include "util/rng.h"
#include "util/simd_scan.h"

namespace mhca {
namespace {

/// Restores the ambient dispatch level when a sweep ends.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(util::simd_level()) {}
  ~SimdLevelGuard() { util::set_simd_level(saved_); }

 private:
  util::SimdLevel saved_;
};

std::vector<util::SimdLevel> available_levels() {
  std::vector<util::SimdLevel> levels{util::SimdLevel::kScalar};
  if (util::max_simd_level() >= util::SimdLevel::kAvx2)
    levels.push_back(util::SimdLevel::kAvx2);
  if (util::max_simd_level() >= util::SimdLevel::kAvx512)
    levels.push_back(util::SimdLevel::kAvx512);
  return levels;
}

// ------------------------------------------------- kernel-level differential

TEST(TieredSimdDifferential, SkipBelowKernelsAgreeWithScalarScan) {
  // The kernel contract is a *filter*: it may stop early (at a block
  // containing a key >= kv) but must never skip past one. Driving the
  // filter + scalar-inspect loop to completion must find the exact first
  // position with key >= kv at every level.
  Rng rng(7001);
  for (int c = 0; c < 200; ++c) {
    const int n = 1 + static_cast<int>(rng.uniform_int(1, 400));
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    for (auto& k : keys)
      k = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20))
          << (c % 2 ? 40 : 0);
    std::vector<int> arr(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) arr[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(arr[static_cast<std::size_t>(i)],
                arr[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    const std::uint64_t kv =
        keys[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] | 1u;

    const auto first_ge = [&](util::SimdLevel lvl) -> std::size_t {
      const std::size_t sz = arr.size();
      const std::size_t bw = util::simd_block_width(lvl);
      std::size_t i = 0;
      if (bw != 0) {
        while (true) {
          i = util::simd_skip_below(keys.data(), arr.data(), i, sz, kv, lvl);
          if (i + bw > sz) break;
          for (std::size_t j = i; j < i + bw; ++j)
            if (keys[static_cast<std::size_t>(
                    arr[j])] >= kv)
              return j;
          i += bw;
        }
      }
      for (; i < sz; ++i)
        if (keys[static_cast<std::size_t>(arr[i])] >= kv) return i;
      return sz;
    };

    const std::size_t want = first_ge(util::SimdLevel::kScalar);
    for (const auto lvl : available_levels())
      ASSERT_EQ(first_ge(lvl), want)
          << "case " << c << " level " << util::simd_level_name(lvl);
  }
}

TEST(TieredSimdDifferential, AnyStampEqualAgreesWithScalarScan) {
  Rng rng(7002);
  for (int c = 0; c < 200; ++c) {
    const int n = 1 + static_cast<int>(rng.uniform_int(1, 300));
    const std::uint32_t epoch =
        static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
    std::vector<std::uint32_t> stamp(static_cast<std::size_t>(n));
    for (auto& s : stamp) {
      s = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
      // Make hits rare but present across cases.
      if (rng.uniform(0.0, 1.0) < 0.02) s = epoch;
    }
    std::vector<int> arr;
    const int row = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < row; ++i)
      arr.push_back(static_cast<int>(rng.uniform_int(0, n - 1)));

    bool want = false;
    for (const int u : arr)
      if (stamp[static_cast<std::size_t>(u)] == epoch) want = true;
    for (const auto lvl : available_levels())
      ASSERT_EQ(util::simd_any_stamp_equal(stamp.data(), arr.data(),
                                           arr.size(), epoch, lvl),
                want)
          << "case " << c << " level " << util::simd_level_name(lvl);
  }
}

// ------------------------------------------------- engine-level differential

TEST(TieredSimdDifferential, DecisionsByteIdenticalAcrossTiersAndSimdLevels) {
  SimdLevelGuard guard;
  const auto levels = available_levels();
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

    // One cached engine per tier; the SIMD level is swept per decision
    // (simd_level() is re-read every election and every validation).
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
      util::set_simd_level(util::SimdLevel::kScalar);
      const DistributedPtasResult want = seed_engine.run(w);
      for (std::size_t t = 0; t < engines.size(); ++t) {
        for (const auto lvl : levels) {
          util::set_simd_level(lvl);
          const DistributedPtasResult got = engines[t].run(w);
          ASSERT_EQ(got.winners, want.winners)
              << "tier " << eball_tier_name(tiers[t]) << " level "
              << util::simd_level_name(lvl) << " decision " << decision;
          ASSERT_EQ(got.weight, want.weight);
          ASSERT_EQ(got.mini_rounds_used, want.mini_rounds_used);
        }
      }
    }
  }
}

// ------------------------------------------------- apply_delta differential

TEST(TieredSimdDifferential, ApplyDeltaMatchesFreshBuildOnBothTiers) {
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

    BfsScratch scratch(n);
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

      Graph rebuilt(n);
      for (const auto& [u, v] : present) rebuilt.add_edge(u, v);
      rebuilt.finalize();
      const NeighborhoodCache fresh(rebuilt, r);
      ASSERT_EQ(fresh.eball_tier(), cache.eball_tier());
      for (int v = 0; v < n; ++v) {
        const auto ra = cache.r_ball(v), rb = fresh.r_ball(v);
        ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
            << "r-ball " << v << " at delta " << d;
        ASSERT_EQ(cache.election_ball_size(v), fresh.election_ball_size(v))
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
