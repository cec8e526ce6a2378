// Tests for src/sim: the Table-II timing model, optimum computation,
// regret metrics, and the simulation engine (learning convergence, periodic
// update accounting, determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "reference/quadratic_prune.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/optimum.h"
#include "sim/prune.h"
#include "sim/simulator.h"
#include "sim/timing.h"
#include "util/rng.h"

namespace mhca {
namespace {

TEST(Timing, TableIIDefaults) {
  RoundTiming t;
  EXPECT_DOUBLE_EQ(t.tm_ms(), 250.0);   // 2*100 + 50
  EXPECT_DOUBLE_EQ(t.ts_ms(), 1000.0);  // 4 mini-rounds
  EXPECT_DOUBLE_EQ(t.theta(), 0.5);
  EXPECT_TRUE(t.is_consistent());
}

TEST(Timing, PeriodicFractionsMatchPaper) {
  RoundTiming t;
  EXPECT_DOUBLE_EQ(t.periodic_fraction(1), 0.5);      // 1/2
  EXPECT_DOUBLE_EQ(t.periodic_fraction(5), 0.9);      // 9/10
  EXPECT_DOUBLE_EQ(t.periodic_fraction(10), 0.95);    // 19/20
  EXPECT_DOUBLE_EQ(t.periodic_fraction(20), 0.975);   // 39/40
}

TEST(Optimum, SmallNetworkExact) {
  // Two conflicting nodes, one channel: only one can transmit; the optimum
  // picks the better mean.
  ConflictGraph cg = ConflictGraph::from_edges(2, {{0, 1}});
  ExtendedConflictGraph ecg(cg, 1);
  GaussianChannelModel model(2, 1, {300.0, 900.0}, 0.0, 1);
  const OptimumInfo opt = compute_optimum(ecg, model);
  EXPECT_TRUE(opt.exact);
  EXPECT_DOUBLE_EQ(opt.weight, 900.0 / kRateScaleKbps);
  ASSERT_EQ(opt.vertices.size(), 1u);
  EXPECT_EQ(ecg.master_of(opt.vertices[0]), 1);
}

TEST(Optimum, Theorem2Rho) {
  // r = 2, M = 3: rho = sqrt(75).
  EXPECT_NEAR(theorem2_rho(3, 2), std::sqrt(75.0), 1e-12);
  EXPECT_NEAR(theorem2_rho(1, 1), 9.0, 1e-12);
}

class SimFixture : public ::testing::Test {
 protected:
  SimFixture()
      : rng_(7),
        cg_(random_geometric_avg_degree(12, 4.0, rng_)),
        ecg_(cg_, 3),
        model_(12, 3, rng_) {}

  SimulationConfig base_config(std::int64_t slots) {
    SimulationConfig cfg;
    cfg.slots = slots;
    cfg.r = 2;
    cfg.D = 4;
    return cfg;
  }

  Rng rng_;
  ConflictGraph cg_;
  ExtendedConflictGraph ecg_;
  GaussianChannelModel model_;
};

TEST_F(SimFixture, RunProducesConsistentSeries) {
  auto policy = make_policy(PolicyKind::kCab);
  Simulator sim(ecg_, model_, *policy, base_config(200));
  const SimulationResult res = sim.run();
  EXPECT_EQ(res.total_slots, 200);
  EXPECT_EQ(res.decisions, 200);  // y = 1: every slot decides
  ASSERT_FALSE(res.slots.empty());
  EXPECT_EQ(res.slots.back(), 200);
  EXPECT_EQ(res.slots.size(), res.cumavg_effective.size());
  // theta = 0.5 and y = 1: effective is exactly half of observed.
  EXPECT_NEAR(res.total_effective, 0.5 * res.total_observed, 1e-9);
  EXPECT_GT(res.avg_strategy_size, 0.0);
  EXPECT_DOUBLE_EQ(res.theta, 0.5);
}

TEST_F(SimFixture, DeterministicGivenSeed) {
  auto policy = make_policy(PolicyKind::kCab);
  Simulator a(ecg_, model_, *policy, base_config(100));
  Simulator b(ecg_, model_, *policy, base_config(100));
  const SimulationResult ra = a.run();
  const SimulationResult rb = b.run();
  EXPECT_EQ(ra.total_observed, rb.total_observed);
  EXPECT_EQ(ra.last_strategy, rb.last_strategy);
}

TEST_F(SimFixture, LearningApproachesOptimum) {
  const OptimumInfo opt = compute_optimum(ecg_, model_);
  ASSERT_TRUE(opt.exact);
  auto policy = make_policy(PolicyKind::kCab);
  Simulator sim(ecg_, model_, *policy, base_config(1500));
  const SimulationResult res = sim.run();
  // Average *expected* throughput of chosen strategies should approach the
  // optimum well within the Theorem-2 ratio; empirically much closer.
  const double avg_expected =
      res.total_expected / static_cast<double>(res.total_slots);
  EXPECT_GT(avg_expected, 0.6 * opt.weight);
  // And the last-quarter average beats the first-quarter average (learning).
  const auto ideal = ideal_regret_series(res, opt.weight);
  const double early_rate = ideal[ideal.size() / 4] /
                            static_cast<double>(res.slots[ideal.size() / 4]);
  const double late_rate = ideal.back() / static_cast<double>(res.total_slots);
  EXPECT_LE(late_rate, early_rate + 1e-9);
}

TEST_F(SimFixture, PeriodicUpdateReducesDecisionsAndBoostsThroughput) {
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg1 = base_config(400);
  SimulationConfig cfg10 = base_config(400);
  cfg10.update_period = 10;
  Simulator s1(ecg_, model_, *policy, cfg1);
  Simulator s10(ecg_, model_, *policy, cfg10);
  const SimulationResult r1 = s1.run();
  const SimulationResult r10 = s10.run();
  EXPECT_EQ(r10.decisions, 40);
  // Effective fraction: y=1 realizes 50%, y=10 realizes 95% of observed.
  EXPECT_NEAR(r1.total_effective / r1.total_observed, 0.5, 1e-9);
  EXPECT_GT(r10.total_effective / r10.total_observed, 0.9);
}

TEST_F(SimFixture, SeriesStrideRecordsSparsely) {
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg = base_config(100);
  cfg.series_stride = 10;
  Simulator sim(ecg_, model_, *policy, cfg);
  const SimulationResult res = sim.run();
  EXPECT_LE(res.slots.size(), 12u);
  EXPECT_EQ(res.slots.back(), 100);
}

TEST_F(SimFixture, MessageCountingMonotoneInSlots) {
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg = base_config(50);
  cfg.count_messages = true;
  Simulator sim(ecg_, model_, *policy, cfg);
  const SimulationResult res = sim.run();
  EXPECT_GT(res.total_messages, 0);
  EXPECT_GT(res.total_mini_timeslots, 0);
}

TEST_F(SimFixture, CentralizedSolversAlsoWork) {
  auto policy = make_policy(PolicyKind::kCab);
  for (SolverKind kind : {SolverKind::kCentralizedPtas, SolverKind::kGreedy,
                          SolverKind::kExact}) {
    SimulationConfig cfg = base_config(60);
    cfg.solver = kind;
    Simulator sim(ecg_, model_, *policy, cfg);
    const SimulationResult res = sim.run();
    EXPECT_GT(res.total_observed, 0.0) << to_string(kind);
    EXPECT_TRUE(
        ecg_.graph().is_independent_set(res.last_strategy))
        << to_string(kind);
  }
}

TEST_F(SimFixture, ExactSolverBeatsOrMatchesGreedyOnExpectedThroughput) {
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig ce = base_config(300);
  ce.solver = SolverKind::kExact;
  SimulationConfig cgr = base_config(300);
  cgr.solver = SolverKind::kGreedy;
  auto policy2 = make_policy(PolicyKind::kCab);
  const SimulationResult re = Simulator(ecg_, model_, *policy, ce).run();
  const SimulationResult rg = Simulator(ecg_, model_, *policy2, cgr).run();
  EXPECT_GE(re.total_expected, 0.85 * rg.total_expected);
}

TEST_F(SimFixture, FinalCountsSumToPlays) {
  auto policy = make_policy(PolicyKind::kCab);
  Simulator sim(ecg_, model_, *policy, base_config(100));
  const SimulationResult res = sim.run();
  std::int64_t plays = 0;
  for (auto c : res.final_counts) plays += c;
  // Every slot, every strategy vertex is played once.
  double size_sum = res.avg_strategy_size * static_cast<double>(res.total_slots);
  EXPECT_NEAR(static_cast<double>(plays), size_sum, 1e-6);
}

TEST_F(SimFixture, EpsGreedyRunsAndExplores) {
  PolicyParams p;
  p.epsilon = 0.3;
  auto policy = make_policy(PolicyKind::kEpsGreedy, p);
  SimulationConfig cfg = base_config(200);
  cfg.seed = 99;
  Simulator sim(ecg_, model_, *policy, cfg);
  const SimulationResult res = sim.run();
  EXPECT_GT(res.total_observed, 0.0);
}

TEST(Metrics, RegretSeriesDefinitions) {
  SimulationResult sim;
  sim.slots = {1, 2};
  sim.cumavg_effective = {0.4, 0.6};
  sim.cum_expected = {0.5, 1.2};
  const auto pr = practical_regret_series(sim, 1.0);
  EXPECT_DOUBLE_EQ(pr[0], 0.6);
  EXPECT_DOUBLE_EQ(pr[1], 0.4);
  const auto br = beta_regret_series(sim, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(br[0], 0.1);
  EXPECT_DOUBLE_EQ(br[1], -0.1);
  const auto ir = ideal_regret_series(sim, 1.0);
  EXPECT_DOUBLE_EQ(ir[0], 0.5);
  EXPECT_DOUBLE_EQ(ir[1], 0.8);
  EXPECT_THROW(beta_regret_series(sim, 1.0, 0.5), std::logic_error);
}

TEST(Simulator, EstimatedSeriesMatchesHandComputation) {
  // One isolated node, one channel, zero noise: the strategy is always
  // {vertex 0}; after the first play the greedy index equals the constant
  // rate, so cumavg_estimated must equal the θ-discounted rate trajectory.
  ConflictGraph cg = ConflictGraph::from_edges(1, {});
  ExtendedConflictGraph ecg(cg, 1);
  const double rate = 600.0 / kRateScaleKbps;
  GaussianChannelModel model(1, 1, {600.0}, 0.0, 1);
  auto policy = make_policy(PolicyKind::kGreedy);
  SimulationConfig cfg;
  cfg.slots = 4;
  Simulator sim(ecg, model, *policy, cfg);
  const SimulationResult res = sim.run();
  const double theta = cfg.timing.theta();
  // Slot 1 uses the unplayed bonus as its estimate; skip it and check the
  // exact closed form afterwards: each slot contributes theta * rate
  // estimated (y = 1: every slot is a decision slot).
  ASSERT_EQ(res.slots.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    const double t = static_cast<double>(res.slots[i]);
    const double first = theta * IndexPolicy::unplayed_index(0, 1);
    const double expect = (first + (t - 1.0) * theta * rate) / t;
    EXPECT_NEAR(res.cumavg_estimated[i], expect, 1e-12);
    EXPECT_NEAR(res.cumavg_effective[i], theta * rate, 1e-12);
    EXPECT_NEAR(res.cumavg_observed[i], rate, 1e-12);
  }
  EXPECT_NEAR(res.cum_expected.back(), 4.0 * rate, 1e-12);
}

TEST(Simulator, PeriodicEstimateUsesDecisionTimeIndex) {
  // With y = 2 every period contributes theta*W + 1*W of estimate where W
  // is the decision-time index sum; verify the realized fraction formula.
  ConflictGraph cg = ConflictGraph::from_edges(1, {});
  ExtendedConflictGraph ecg(cg, 1);
  GaussianChannelModel model(1, 1, {900.0}, 0.0, 1);
  auto policy = make_policy(PolicyKind::kGreedy);
  SimulationConfig cfg;
  cfg.slots = 20;
  cfg.update_period = 2;
  Simulator sim(ecg, model, *policy, cfg);
  const SimulationResult res = sim.run();
  EXPECT_EQ(res.decisions, 10);
  EXPECT_NEAR(res.total_effective / res.total_observed,
              cfg.timing.periodic_fraction(2), 1e-12);
}

TEST(Simulator, RejectsBadConfig) {
  Rng rng(1);
  ConflictGraph cg = linear_network(4);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(4, 2, rng);
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 0;
  EXPECT_THROW(Simulator(ecg, model, *policy, cfg), std::logic_error);
  cfg.slots = 10;
  cfg.update_period = 0;
  EXPECT_THROW(Simulator(ecg, model, *policy, cfg), std::logic_error);
  GaussianChannelModel wrong(5, 2, rng);
  SimulationConfig ok;
  EXPECT_THROW(Simulator(ecg, wrong, *policy, ok), std::logic_error);
}

// The O(Σ deg) carried-strategy prune keeps exactly what the quadratic
// has_edge loop (tests/reference/quadratic_prune.h) keeps, and subtracts the
// dropped weights from the index sum in the same order, on small graphs and
// one of 8,392 vertices, with and without an activity mask.
TEST(CarriedPrune, MatchesQuadraticOracleOnRandomStrategies) {
  const int sizes[] = {40, 300, 8192 + 200};
  for (const int n : sizes) {
    Rng rng(9000 + static_cast<std::uint64_t>(n));
    Graph h(n);
    for (int e = 0; e < 3 * n; ++e) {
      const int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
      if (u != v && !h.has_edge(u, v)) h.add_edge(u, v);
    }
    h.finalize();
    std::vector<double> weights(static_cast<std::size_t>(n));
    for (auto& w : weights) w = rng.uniform(0.05, 1.0);
    std::size_t dropped = 0;
    for (int c = 0; c < 60; ++c) {
      SCOPED_TRACE("n " + std::to_string(n) + " case " + std::to_string(c));
      // An independent core (what a decision leaves behind) plus random
      // extras that conflict with it; every third case shuffles the order.
      std::vector<int> strategy;
      std::vector<char> blocked(static_cast<std::size_t>(n), 0);
      const double take = std::min(1.0, 600.0 / n);
      for (int v = 0; v < n; ++v) {
        if (!rng.bernoulli(take)) continue;
        const bool core = !blocked[static_cast<std::size_t>(v)] &&
                          rng.bernoulli(0.8);
        if (!core && !rng.bernoulli(0.1)) continue;
        strategy.push_back(v);
        if (core)
          for (int u : h.neighbors(v)) blocked[static_cast<std::size_t>(u)] = 1;
      }
      if (c % 3 == 2)
        for (std::size_t i = strategy.size(); i > 1; --i)
          std::swap(strategy[i - 1],
                    strategy[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(i) - 1))]);
      std::vector<char> mask;
      if (c % 2 == 1) {
        mask.assign(static_cast<std::size_t>(n), 1);
        for (auto& m : mask) m = rng.bernoulli(0.2) ? 0 : 1;
      }
      double sum = 0.0;
      for (int v : strategy) sum += weights[static_cast<std::size_t>(v)];

      const std::size_t before = strategy.size();
      std::vector<int> expect = strategy;
      double expect_sum = sum;
      reference::quadratic_prune(h, mask, weights, expect, expect_sum);
      prune_carried_strategy(h, mask, weights, strategy, sum);
      ASSERT_EQ(strategy, expect);
      ASSERT_EQ(sum, expect_sum);  // same subtractions, same order
      dropped += before - strategy.size();
    }
    EXPECT_GT(dropped, 0u);
  }
}

}  // namespace
}  // namespace mhca
