// Tests for the lockstep distributed robust PTAS engine (Algorithm 3):
// protocol invariants (leaders far apart, winners independent, everyone
// marked), approximation quality, the Fig. 5 linear worst case, and message
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "mwis/branch_and_bound.h"
#include "mwis/distributed_ptas.h"
#include "reference/hop_distance.h"
#include "util/rng.h"

namespace mhca {
namespace {

std::vector<double> random_weights(int n, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  return w;
}

TEST(DistributedPtas, WinnersAreIndependentAndAllMarked) {
  Rng rng(1);
  ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedRobustPtas engine(ecg.graph(), {});  // until all marked
  const DistributedPtasResult res = engine.run(w);
  EXPECT_TRUE(res.all_marked);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.winners));
  EXPECT_GT(res.weight, 0.0);
  // Weight really is the sum over winners.
  double sum = 0.0;
  for (int v : res.winners) sum += w[static_cast<std::size_t>(v)];
  EXPECT_NEAR(sum, res.weight, 1e-9);
}

TEST(DistributedPtas, RetiredMemoizedCoversFlagIsRejected) {
  Rng rng(5);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  DistributedPtasConfig cfg;
  cfg.use_memoized_covers = true;
  EXPECT_THROW(DistributedRobustPtas(ecg.graph(), cfg), std::logic_error);
}

TEST(DistributedPtas, WinnersAreMaximal) {
  // No candidate should be left unmarked when run to completion, and the
  // result should be a *maximal* IS (every non-winner has a winner
  // neighbor or shares its master... in H: every vertex is Winner or has a
  // winner within its closed neighborhood is NOT guaranteed by Alg. 3;
  // but every vertex must be marked Winner or Loser).
  Rng rng(2);
  ConflictGraph cg = random_geometric_avg_degree(30, 4.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedRobustPtas engine(ecg.graph(), {});
  const DistributedPtasResult res = engine.run(w);
  EXPECT_TRUE(res.all_marked);
  EXPECT_EQ(res.mini_rounds.back().candidates_remaining, 0);
}

TEST(DistributedPtas, CumulativeWeightMonotone) {
  Rng rng(3);
  ConflictGraph cg = random_geometric_avg_degree(60, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 5);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedRobustPtas engine(ecg.graph(), {});
  const DistributedPtasResult res = engine.run(w);
  for (std::size_t i = 1; i < res.mini_rounds.size(); ++i)
    EXPECT_GE(res.mini_rounds[i].cumulative_weight,
              res.mini_rounds[i - 1].cumulative_weight);
  EXPECT_DOUBLE_EQ(res.mini_rounds.back().cumulative_weight, res.weight);
}

TEST(DistributedPtas, MiniRoundCapRespected) {
  Rng rng(4);
  ConflictGraph cg = random_geometric_avg_degree(50, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedPtasConfig cfg;
  cfg.max_mini_rounds = 2;
  DistributedRobustPtas engine(ecg.graph(), cfg);
  const DistributedPtasResult res = engine.run(w);
  EXPECT_LE(res.mini_rounds_used, 2);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.winners));
}

TEST(DistributedPtas, LinearWorstCaseNeedsManyMiniRounds) {
  // Paper Fig. 5: on a path with strictly decreasing weights only one new
  // LocalLeader can appear per mini-round (with r-hop balls, a leader marks
  // its whole r-ball, so it takes ~N/(2r+1) mini-rounds, still Θ(N)).
  const int n = 40;
  ConflictGraph cg = linear_network(n);
  ExtendedConflictGraph ecg(cg, 1);  // H == G for M = 1
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] = 1.0 - 0.01 * static_cast<double>(i);
  DistributedPtasConfig cfg;
  cfg.r = 2;
  DistributedRobustPtas engine(ecg.graph(), cfg);
  const DistributedPtasResult res = engine.run(w);
  EXPECT_TRUE(res.all_marked);
  // Each mini-round exactly one leader exists (the unmarked prefix vertex).
  for (const auto& mr : res.mini_rounds) EXPECT_EQ(mr.leaders, 1);
  EXPECT_GE(res.mini_rounds_used, n / (2 * cfg.r + 1));
}

TEST(DistributedPtas, RandomNetworksConvergeInFewMiniRounds) {
  // Theorem 4 / Fig. 6: on random geometric networks a small constant
  // number of mini-rounds marks everything.
  Rng rng(5);
  ConflictGraph cg = random_geometric_avg_degree(100, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 5);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedRobustPtas engine(ecg.graph(), {});
  const DistributedPtasResult res = engine.run(w);
  EXPECT_TRUE(res.all_marked);
  EXPECT_LE(res.mini_rounds_used, 12);
}

TEST(DistributedPtas, MessageAccountingPositiveAndBounded) {
  Rng rng(6);
  ConflictGraph cg = random_geometric_avg_degree(30, 4.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedPtasConfig cfg;
  cfg.count_messages = true;
  DistributedRobustPtas engine(ecg.graph(), cfg);
  const DistributedPtasResult res = engine.run(w);
  EXPECT_GT(res.total_messages, 0);
  // Every flood reaches at most the whole graph, and there are at most
  // (leaders per round) * 2 floods.
  std::int64_t leaders = 0;
  for (const auto& mr : res.mini_rounds) leaders += mr.leaders;
  EXPECT_LE(res.total_messages,
            2 * leaders * static_cast<std::int64_t>(ecg.num_vertices()));
  EXPECT_GT(res.total_mini_timeslots, 0);

  const std::int64_t wb = engine.weight_broadcast_messages(res.winners);
  EXPECT_GT(wb, static_cast<std::int64_t>(res.winners.size()));
}

TEST(DistributedPtas, DeterministicAcrossRuns) {
  Rng rng(7);
  ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedRobustPtas e1(ecg.graph(), {});
  DistributedRobustPtas e2(ecg.graph(), {});
  EXPECT_EQ(e1.run(w).winners, e2.run(w).winners);
}

TEST(DistributedPtas, GreedyLocalSolverStillIndependent) {
  Rng rng(8);
  ConflictGraph cg = random_geometric_avg_degree(50, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const auto w = random_weights(ecg.num_vertices(), rng);
  DistributedPtasConfig cfg;
  cfg.local_solver = LocalSolverKind::kGreedy;
  DistributedRobustPtas engine(ecg.graph(), cfg);
  const DistributedPtasResult res = engine.run(w);
  EXPECT_TRUE(res.all_marked);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.winners));
}

TEST(DistributedPtas, EqualWeightsTieBrokenDeterministically) {
  ConflictGraph cg = linear_network(10);
  ExtendedConflictGraph ecg(cg, 2);
  std::vector<double> w(static_cast<std::size_t>(ecg.num_vertices()), 0.5);
  DistributedRobustPtas e1(ecg.graph(), {});
  DistributedRobustPtas e2(ecg.graph(), {});
  const auto r1 = e1.run(w);
  EXPECT_EQ(r1.winners, e2.run(w).winners);
  EXPECT_TRUE(r1.all_marked);
}

// Approximation-quality sweep against the exact optimum on small graphs.
class DistributedQuality : public ::testing::TestWithParam<int> {};

TEST_P(DistributedQuality, WithinTheorem2RatioOfOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 17);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.0, rng, false);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  const auto w = random_weights(ecg.num_vertices(), rng);

  BranchAndBoundMwisSolver exact;
  const double opt = exact.solve_all(ecg.graph(), w).weight;

  DistributedPtasConfig cfg;  // r = 2
  DistributedRobustPtas engine(ecg.graph(), cfg);
  const DistributedPtasResult res = engine.run(w);

  // Theorem 2/3 bound: rho^r <= M (2r+1)^2 with r = 2 -> rho = sqrt(75 M/3)
  // ... conservatively: weight >= opt / rho with rho = (M(2r+1)^2)^(1/r).
  const double rho =
      std::sqrt(static_cast<double>(m_channels) * 25.0);
  EXPECT_GE(res.weight, opt / rho - 1e-9);
  // Empirically it is far better; sanity-check a much tighter factor too.
  EXPECT_GE(res.weight, opt / 2.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedQuality, ::testing::Range(0, 12));

// Leaders of the same mini-round are pairwise > 2r+1 hops apart — the core
// independence argument of Theorem 3. We verify it indirectly: re-run with
// max_mini_rounds = 1 and check all pairwise winner distances & that winner
// sets from distinct leaders don't conflict (already covered by the IS
// check), plus directly measure leader separation via the first record.
TEST(DistributedPtas, FirstMiniRoundLeaderSeparation) {
  Rng rng(9);
  ConflictGraph cg = random_geometric_avg_degree(60, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const auto w = random_weights(ecg.num_vertices(), rng);
  const int r = 2;

  // Reimplement the election criterion to recover the leader set.
  const Graph& h = ecg.graph();
  BfsScratch scratch(h.size());
  std::vector<int> leaders;
  for (int v = 0; v < h.size(); ++v) {
    const auto ball = scratch.k_hop_neighborhood(h, v, 2 * r + 1);
    bool is_max = true;
    for (int u : ball) {
      if (u == v) continue;
      const auto ku = std::make_pair(w[static_cast<std::size_t>(u)], -u);
      const auto kv = std::make_pair(w[static_cast<std::size_t>(v)], -v);
      if (ku > kv) {
        is_max = false;
        break;
      }
    }
    if (is_max) leaders.push_back(v);
  }

  DistributedPtasConfig cfg;
  cfg.r = r;
  cfg.max_mini_rounds = 1;
  DistributedRobustPtas engine(h, cfg);
  const DistributedPtasResult res = engine.run(w);
  ASSERT_EQ(res.mini_rounds.size(), 1u);
  EXPECT_EQ(res.mini_rounds[0].leaders, static_cast<int>(leaders.size()));

  for (std::size_t i = 0; i < leaders.size(); ++i)
    for (std::size_t j = i + 1; j < leaders.size(); ++j)
      EXPECT_GT(reference::hop_distance(h, leaders[i], leaders[j], 2 * r + 2),
                2 * r + 1);
}

}  // namespace
}  // namespace mhca
