// Differential fuzz for the flood-size memo (FloodSizes, graph/hop.h) and
// the engine's message accounting through it.
//
// The accounting charges |J_{2r+1}(v)| per LD and weight-broadcast flood and
// |J_{3r+2}(v)| per LB flood. A FloodSizes memo counts an entry when a sum()
// first asks for it, and again only after an invalidation marked it stale.
// The claims checked here:
//   - after every random delta, every size a memo returns equals a fresh
//     BFS ball's, at both radii and r in {1, 2, 3}, for query sets with
//     duplicates and with vertices inside and outside the delta's reach;
//     entries nobody asked for stay uncounted;
//   - an engine kept alive across churn with count_messages on reports the
//     message counts of the seed reference (a fresh BFS per flood) on both
//     e-ball tiers, weight broadcasts over inactive vertices included, and
//     every size its memos hold matches a fresh BFS;
//   - with count_messages off the engine allocates and counts nothing.
// ctest label "fuzz" (name matches *differential*).
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "mwis/distributed_ptas.h"
#include "reference/seed_ptas.h"
#include "scoped_env.h"
#include "util/rng.h"

namespace mhca {
namespace {

using Edge = std::pair<int, int>;
using Tier = NeighborhoodCache::EballTier;

/// Apply a random exact delta of up to `max_changes` removals and as many
/// additions to g (and `present`); returns the touched vertices, sorted and
/// unique.
std::vector<int> random_delta(Graph& g, std::set<Edge>& present,
                              int max_changes, Rng& rng) {
  const int n = g.size();
  std::vector<Edge> added, removed;
  const int removals = rng.uniform_int(0, max_changes);
  const int additions = rng.uniform_int(0, max_changes);
  for (int i = 0; i < removals && !present.empty(); ++i) {
    auto it = present.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int>(present.size()) - 1));
    removed.push_back(*it);
    present.erase(it);
  }
  for (int i = 0; i < additions; ++i) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (present.count({u, v}) ||
        std::find(removed.begin(), removed.end(), Edge{u, v}) != removed.end())
      continue;
    present.insert({u, v});
    added.emplace_back(u, v);
  }
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());
  g.apply_delta(added, removed);
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

std::int64_t fresh_sum(const Graph& g, std::span<const int> vs, int k) {
  BfsScratch scratch(g.size());
  std::int64_t total = 0;
  for (const int v : vs)
    total += static_cast<std::int64_t>(
        scratch.k_hop_neighborhood(g, v, k).size());
  return total;
}

/// Every size `memo` holds equals a fresh BFS ball's.
::testing::AssertionResult cached_sizes_fresh(const Graph& g,
                                              const FloodSizes& memo) {
  BfsScratch scratch(g.size());
  std::vector<int> ball;
  for (int v = 0; v < g.size(); ++v) {
    if (memo.cached(v) < 0) continue;
    scratch.k_hop_neighborhood(g, v, memo.radius(), ball);
    if (memo.cached(v) != static_cast<int>(ball.size()))
      return ::testing::AssertionFailure()
             << "|J_" << memo.radius() << "(" << v << ")| cached "
             << memo.cached(v) << ", BFS " << ball.size();
  }
  return ::testing::AssertionSuccess();
}

TEST(FloodSizeDifferential, MemoSizesMatchFreshBfsAfterEveryDelta) {
  for (int c = 0; c < 9; ++c) {
    const int r = 1 + c % 3;
    SCOPED_TRACE("case " + std::to_string(c) + " r " + std::to_string(r));
    Rng rng(31000 + static_cast<std::uint64_t>(c) * 97);
    const int n = 200 + (c / 3) * 150;
    const ConflictGraph base = random_geometric_avg_degree(
        n, 4.0, rng, /*force_connected=*/false);
    std::set<Edge> present;
    for (int v = 0; v < n; ++v)
      for (int u : base.graph().neighbors(v))
        if (u > v) present.insert({v, u});
    Graph g(n);
    for (const auto& [u, v] : present) g.add_edge(u, v);
    g.finalize();

    // The engine's arrangement: one reach to the larger radius serves both.
    BfsScratch scratch(n);
    FloodSizes ld(2 * r + 1), lb(3 * r + 2);
    std::vector<int> reach, near;
    for (int d = 0; d < 12; ++d) {
      SCOPED_TRACE("delta " + std::to_string(d));
      const std::vector<int> touched = random_delta(g, present, 5, rng);
      if (touched.empty()) continue;
      scratch.multi_source_k_hop_unsorted(g, touched, lb.stale_radius(),
                                          reach);
      ld.invalidate(reach, scratch);
      lb.invalidate(reach, scratch);

      // Query: random vertices, a few listed twice or thrice, touched ones,
      // and vertices beyond the reach (whose entries must survive).
      std::vector<int> q;
      for (int i = 0; i < 30; ++i) q.push_back(rng.uniform_int(0, n - 1));
      q.push_back(q[0]);
      q.push_back(q[0]);
      q.push_back(q[1]);
      q.insert(q.end(), touched.begin(), touched.end());
      near.assign(reach.begin(), reach.end());
      std::sort(near.begin(), near.end());
      for (int v = 0, far = 0; v < n && far < 5; ++v)
        if (!std::binary_search(near.begin(), near.end(), v)) {
          q.push_back(v);
          ++far;
        }
      std::shuffle(q.begin(), q.end(), rng.engine());

      for (FloodSizes* memo : {&ld, &lb}) {
        SCOPED_TRACE("radius " + std::to_string(memo->radius()));
        const std::int64_t before = memo->recounted();
        ASSERT_EQ(memo->sum(g, q, scratch), fresh_sum(g, q, memo->radius()));
        const std::set<int> asked(q.begin(), q.end());
        ASSERT_LE(memo->recounted() - before,
                  static_cast<std::int64_t>(asked.size()));
        ASSERT_TRUE(cached_sizes_fresh(g, *memo));
        // Only what was asked for is counted: a vertex in this delta's reach
        // that the query left out stays stale.
        for (const int v : reach) {
          if (scratch.distance(v) > memo->stale_radius()) break;
          if (!asked.count(v)) {
            ASSERT_LT(memo->cached(v), 0) << v;
          }
        }
      }
    }
  }
}

std::unique_ptr<dynamics::DynamicNetwork> churn_network(int nodes,
                                                        std::uint64_t seed) {
  Rng topo(seed);
  ConflictGraph base = random_geometric_avg_degree(
      nodes, 4.5, topo, /*force_connected=*/false);
  Rng rng(seed + 1);
  scenario::ParamMap p;
  p.set("leave_prob", "0.05");
  p.set("join_prob", "0.3");
  const dynamics::DynamicsBuildContext ctx{&base, 1000};
  auto model = dynamics::dynamics_registry().create("churn", p, ctx, rng);
  return std::make_unique<dynamics::DynamicNetwork>(base, 3, std::move(model),
                                                    /*incremental=*/true);
}

TEST(FloodSizeDifferential, LongLivedEngineCountsMatchSeedUnderChurn) {
  for (const Tier tier : {Tier::kExplicit, Tier::kImplicit}) {
    const EballTierOverride force(tier);
    for (int r = 1; r <= 3; ++r) {
      SCOPED_TRACE(std::string(eball_tier_name(tier)) + " r " +
                   std::to_string(r));
      auto net = churn_network(90, 700 + static_cast<std::uint64_t>(r));
      const Graph& h = net->ecg().graph();
      DistributedPtasConfig cfg;
      cfg.r = r;
      cfg.count_messages = true;
      cfg.local_solve_parallelism = 1;
      DistributedRobustPtas engine(h, cfg);
      ASSERT_EQ(engine.neighborhood_cache().eball_tier(), tier);
      reference::SeedPtas seed(h, cfg);

      Rng wrng(41 + static_cast<std::uint64_t>(r));
      std::vector<double> w(static_cast<std::size_t>(h.size()));
      std::vector<int> prev;
      int deltas = 0;
      for (std::int64_t t = 2; t <= 40; ++t) {
        SCOPED_TRACE("slot " + std::to_string(t));
        const dynamics::SlotChange& ch = net->advance(t);
        if (ch.changed) {
          engine.on_graph_delta(ch.touched_vertices);
          ++deltas;
        }
        const std::span<const char> mask = net->active_vertex_mask();
        // Weight broadcast over the previous strategy, vertices switched
        // off since, and a vertex listed twice.
        std::vector<int> wb = prev;
        for (std::size_t v = 0; v < mask.size(); ++v)
          if (!mask[v]) wb.push_back(static_cast<int>(v));
        if (!wb.empty()) wb.push_back(wb.front());
        ASSERT_EQ(engine.weight_broadcast_messages(wb),
                  seed.weight_broadcast_messages(wb));

        for (auto& x : w) x = wrng.uniform(0.05, 1.0);
        const DistributedPtasResult a = engine.run(w, mask);
        const DistributedPtasResult b = seed.run(w, mask);
        ASSERT_EQ(a.winners, b.winners);
        ASSERT_EQ(a.total_messages, b.total_messages);
        ASSERT_EQ(a.mini_rounds.size(), b.mini_rounds.size());
        for (std::size_t i = 0; i < a.mini_rounds.size(); ++i)
          ASSERT_EQ(a.mini_rounds[i].messages, b.mini_rounds[i].messages)
              << "mini-round " << i + 1;
        ASSERT_TRUE(cached_sizes_fresh(h, engine.ld_flood_sizes()));
        ASSERT_TRUE(cached_sizes_fresh(h, engine.lb_flood_sizes()));
        prev = a.winners;
      }
      ASSERT_GT(deltas, 10);
    }
  }
}

TEST(FloodSizeDifferential, CountMessagesOffAllocatesAndCountsNothing) {
  auto net = churn_network(120, 901);
  const Graph& h = net->ecg().graph();
  DistributedPtasConfig cfg;
  cfg.count_messages = false;
  cfg.local_solve_parallelism = 1;
  DistributedRobustPtas engine(h, cfg);
  Rng wrng(5);
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  int deltas = 0;
  for (std::int64_t t = 2; deltas < 50; ++t) {
    ASSERT_LT(t, 2000) << "churn produced too few deltas";
    const dynamics::SlotChange& ch = net->advance(t);
    if (!ch.changed) continue;
    engine.on_graph_delta(ch.touched_vertices);
    ++deltas;
    for (auto& x : w) x = wrng.uniform(0.05, 1.0);
    const DistributedPtasResult res = engine.run(w, net->active_vertex_mask());
    ASSERT_EQ(res.total_messages, 0);
  }
  for (const FloodSizes* memo :
       {&engine.ld_flood_sizes(), &engine.lb_flood_sizes()}) {
    EXPECT_TRUE(memo->empty());
    EXPECT_EQ(memo->resident_bytes(), 0);
    EXPECT_EQ(memo->recounted(), 0);
  }
}

}  // namespace
}  // namespace mhca
