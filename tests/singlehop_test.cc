// Single-hop reduction tests: when the conflict graph is complete (every
// pair of users conflicts), the multi-hop formulation collapses to the
// classic multi-user MAB of the paper's related work [1]-[7]: at most one
// user per channel, at most min(N, M) transmitters per slot. The general
// machinery must reproduce that special case exactly. Also includes
// Thompson-sampling extension tests (deterministic posterior draws).
#include <gtest/gtest.h>

#include <set>

#include "bandit/thompson.h"
#include "channel/gaussian.h"
#include "core/channel_access.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/independence.h"
#include "scenario/runner.h"
#include "sim/optimum.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mhca {
namespace {

TEST(SingleHop, IndependenceNumberIsMinNM) {
  for (int n : {3, 5, 8}) {
    for (int m : {1, 2, 4, 10}) {
      ConflictGraph cg = complete_network(n);
      ExtendedConflictGraph ecg(cg, m);
      EXPECT_EQ(independence_number(ecg.graph()), std::min(n, m))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(SingleHop, StrategyNeverReusesAChannel) {
  Rng rng(5);
  ConflictGraph cg = complete_network(6);
  scenario::Scenario sc;
  sc.num_channels = 4;
  ChannelAccessScheme scheme = scenario::ScenarioRunner(sc, cg).make_scheme();
  GaussianChannelModel model(6, 4, rng);
  for (std::int64_t t = 1; t <= 30; ++t) {
    const Strategy& s = scheme.decide();
    std::set<int> used;
    int transmitters = 0;
    for (int node = 0; node < 6; ++node) {
      const int c = s.channel_of_node[static_cast<std::size_t>(node)];
      if (c == Strategy::kNoChannel) continue;
      ++transmitters;
      EXPECT_TRUE(used.insert(c).second)
          << "channel " << c << " assigned twice in a single-hop network";
      scheme.report(node, model.sample(node, c, t));
    }
    EXPECT_LE(transmitters, 4);  // min(N, M)
  }
}

TEST(SingleHop, OptimumIsAssignmentOfBestUsersToChannels) {
  // With N = 2 users, M = 2 channels, complete conflicts: the optimum is
  // the best perfect matching of users to channels.
  ConflictGraph cg = complete_network(2);
  ExtendedConflictGraph ecg(cg, 2);
  // Means (kbps): user0: {900, 300}, user1: {600, 450}.
  GaussianChannelModel model(2, 2, {900, 300, 600, 450}, 0.0, 1);
  const OptimumInfo opt = compute_optimum(ecg, model);
  ASSERT_TRUE(opt.exact);
  // Matching u0->c0 (900) + u1->c1 (450) = 1350 beats u0->c1 + u1->c0 = 900.
  EXPECT_NEAR(opt.weight, 1350.0 / kRateScaleKbps, 1e-9);
}

TEST(SingleHop, LearningConvergesToBestMatching) {
  ConflictGraph cg = complete_network(2);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(2, 2, {900, 300, 600, 450}, 0.02, 3);
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 600;
  const SimulationResult res = Simulator(ecg, model, *policy, cfg).run();
  // Final strategy = the optimal matching.
  const Strategy s = ecg.to_strategy(res.last_strategy);
  EXPECT_EQ(s.channel_of_node, (std::vector<int>{0, 1}));
}

TEST(SingleHop, MoreUsersThanChannelsLeavesSomeSilent) {
  Rng rng(6);
  ConflictGraph cg = complete_network(7);
  ExtendedConflictGraph ecg(cg, 3);
  GaussianChannelModel model(7, 3, rng);
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 100;
  const SimulationResult res = Simulator(ecg, model, *policy, cfg).run();
  EXPECT_LE(res.avg_strategy_size, 3.0 + 1e-9);
  EXPECT_GT(res.avg_strategy_size, 1.0);
}

// ---------- Thompson extension ----------

TEST(Thompson, DeterministicGivenInputs) {
  ThompsonIndexPolicy a(42), b(42), c(43);
  EXPECT_DOUBLE_EQ(a.index_from(0.5, 3, 1, 10, 8),
                   b.index_from(0.5, 3, 1, 10, 8));
  EXPECT_NE(a.index_from(0.5, 3, 1, 10, 8), c.index_from(0.5, 3, 1, 10, 8));
  // Fresh draw each round, per arm.
  EXPECT_NE(a.index_from(0.5, 3, 1, 10, 8), a.index_from(0.5, 3, 1, 11, 8));
  EXPECT_NE(a.index_from(0.5, 3, 1, 10, 8), a.index_from(0.5, 3, 2, 10, 8));
}

TEST(Thompson, PosteriorConcentratesWithSamples) {
  ThompsonIndexPolicy p(7);
  RunningStat few, many;
  for (std::int64_t t = 1; t <= 2000; ++t) {
    few.add(p.index_from(0.5, 2, 0, t, 8));
    many.add(p.index_from(0.5, 200, 0, t, 8));
  }
  EXPECT_NEAR(few.mean(), 0.5, 0.05);
  EXPECT_NEAR(many.mean(), 0.5, 0.01);
  EXPECT_GT(few.stddev(), 3.0 * many.stddev());
}

TEST(Thompson, UnplayedArmsExploredFirst) {
  ThompsonIndexPolicy p(7);
  EXPECT_GT(p.index_from(0.0, 0, 2, 5, 10), 1.0);
}

TEST(Thompson, WorksEndToEndAndLearns) {
  Rng rng(8);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  ExtendedConflictGraph ecg(cg, 3);
  GaussianChannelModel model(10, 3, rng);
  const OptimumInfo opt = compute_optimum(ecg, model);
  PolicyParams params;
  params.thompson_seed = 99;
  auto policy = make_policy(PolicyKind::kThompson, params);
  EXPECT_EQ(policy->name(), "Thompson");
  SimulationConfig cfg;
  cfg.slots = 1000;
  const SimulationResult res = Simulator(ecg, model, *policy, cfg).run();
  const double avg_expected =
      res.total_expected / static_cast<double>(res.total_slots);
  EXPECT_GT(avg_expected, 0.55 * opt.weight);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.last_strategy));
}

TEST(Thompson, FactoryRoundTrip) {
  EXPECT_EQ(to_string(PolicyKind::kThompson), "Thompson");
  EXPECT_EQ(make_policy(PolicyKind::kThompson)->name(), "Thompson");
}

}  // namespace
}  // namespace mhca
