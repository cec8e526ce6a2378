// Whole-cache identity of NeighborhoodCache::apply_delta.
//
// apply_delta recomputes r-balls only within r hops of the touched vertices
// and election balls only within 2r+1. The claim: after any delta the
// patched cache equals a fresh build of the new graph byte for byte. This
// suite checks every vertex — r-ball span, election-ball size, election-ball
// span on the explicit tier — after every random delta, on both e-ball tiers
// (forced via MHCA_EBALL_TIER), starting from caches built with 1, 2 and 4
// workers and with 0 = MHCA_CACHE_BUILD_WORKERS. It also pins
// last_invalidated() to the size of the (2r+1)-hop reach.
#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace mhca {
namespace {

using Edge = std::pair<int, int>;
using Tier = NeighborhoodCache::EballTier;

Graph from_edges(int n, const std::set<Edge>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

/// Draw an exact delta of up to `max_changes` removals and as many
/// additions against `present` (mutated to the new truth); returns the
/// touched vertices, sorted and unique.
std::vector<int> random_delta(int n, int max_changes, std::set<Edge>& present,
                              Rng& rng, std::vector<Edge>& added,
                              std::vector<Edge>& removed) {
  added.clear();
  removed.clear();
  const int removals = rng.uniform_int(0, max_changes);
  const int additions = rng.uniform_int(0, max_changes);
  for (int i = 0; i < removals && !present.empty(); ++i) {
    auto it = present.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int>(present.size()) - 1));
    removed.push_back(*it);
    present.erase(it);
  }
  const std::set<Edge> just_removed(removed.begin(), removed.end());
  for (int i = 0; i < additions; ++i) {
    for (int tries = 0; tries < 50; ++tries) {
      int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (present.count({u, v}) || just_removed.count({u, v})) continue;
      present.insert({u, v});
      added.emplace_back(u, v);
      break;
    }
  }
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());
  std::vector<int> touched;
  for (const auto* list : {&added, &removed})
    for (const auto& [u, v] : *list) {
      touched.push_back(u);
      touched.push_back(v);
    }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

template <class A, class B>
bool same(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

::testing::AssertionResult same_cache(const NeighborhoodCache& patched,
                                      const NeighborhoodCache& fresh) {
  if (patched.eball_tier() != fresh.eball_tier() ||
      patched.size() != fresh.size())
    return ::testing::AssertionFailure() << "cache shape differs";
  const bool is_explicit = fresh.eball_tier() == Tier::kExplicit;
  for (int v = 0; v < fresh.size(); ++v) {
    if (!same(patched.r_ball(v), fresh.r_ball(v)))
      return ::testing::AssertionFailure() << "r-ball of " << v;
    if (patched.election_ball_size(v) != fresh.election_ball_size(v))
      return ::testing::AssertionFailure() << "e-ball size of " << v;
    if (is_explicit &&
        !same(patched.election_ball(v), fresh.election_ball(v)))
      return ::testing::AssertionFailure() << "e-ball of " << v;
  }
  if (patched.total_entries() != fresh.total_entries())
    return ::testing::AssertionFailure() << "stored entry count differs";
  return ::testing::AssertionSuccess();
}

/// Patch a cache through `deltas` random deltas and compare it with a
/// fresh build after each one.
void check_sequence(Graph g, std::set<Edge> present, int r, int workers,
                    int deltas, int max_changes, Rng& rng) {
  const int n = g.size();
  NeighborhoodCache cache(g, r, workers);
  BfsScratch scratch(n);
  std::vector<Edge> added, removed;
  std::vector<int> reach;
  for (int d = 0; d < deltas; ++d) {
    SCOPED_TRACE("delta " + std::to_string(d));
    const std::vector<int> touched =
        random_delta(n, max_changes, present, rng, added, removed);
    if (touched.empty()) continue;
    g.apply_delta(added, removed);
    cache.apply_delta(g, touched);
    ASSERT_TRUE(same_cache(cache, NeighborhoodCache(g, r, 1)));
    scratch.multi_source_k_hop(g, touched, 2 * r + 1, reach);
    ASSERT_EQ(cache.last_invalidated(), static_cast<int>(reach.size()));
  }
}

TEST(CacheDeltaDifferential, EveryVertexMatchesFreshBuildOnBothTiers) {
  for (const Tier tier : {Tier::kExplicit, Tier::kImplicit}) {
    const EballTierOverride force(tier);
    for (const int workers : {1, 2, 4, 0}) {
      for (int c = 0; c < 6; ++c) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)) +
                     " workers " + std::to_string(workers) + " case " +
                     std::to_string(c));
        Rng rng(77000 + static_cast<std::uint64_t>(c) * 131 +
                static_cast<std::uint64_t>(workers));
        // Sizes and radii where the (2r+1)-reach spans a few hundred
        // vertices, so the patch moves long suffixes.
        const int n = 300 + (c % 3) * 300;
        const int r = 1 + c % 3;
        const ConflictGraph base = random_geometric_avg_degree(
            n, 5.0, rng, /*force_connected=*/false);
        std::set<Edge> present;
        for (int v = 0; v < n; ++v)
          for (int u : base.graph().neighbors(v))
            if (u > v) present.insert({v, u});
        const Graph g = from_edges(n, present);
        ASSERT_EQ(NeighborhoodCache::select_eball_tier(n), tier);
        check_sequence(g, present, r, workers, /*deltas=*/8,
                       /*max_changes=*/6, rng);
      }
    }
  }
}

TEST(CacheDeltaDifferential, EveryVertexMatchesFreshBuildPastTheMatrixLimit) {
  // The sparse-row graph representation with the tier the size rule picks
  // (implicit): every vertex, not a sample.
  const int n = Graph::kAdjacencyMatrixLimit + 40;
  Rng rng(4343);
  std::set<Edge> present;
  for (int i = 0; i + 1 < n; ++i) present.insert({i, i + 1});
  for (int t = 0; t < 600; ++t) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    present.insert({u, v});
  }
  const Graph g = from_edges(n, present);
  ASSERT_TRUE(g.has_sparse_rows());
  ASSERT_EQ(NeighborhoodCache::select_eball_tier(n), Tier::kImplicit);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    check_sequence(g, present, /*r=*/2, workers, /*deltas=*/6,
                   /*max_changes=*/20, rng);
  }
}

}  // namespace
}  // namespace mhca
