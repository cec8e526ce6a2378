// Tests for the extension modules: graph coloring (§III chromatic-number
// remark), Gilbert–Elliott Markov channels, trace replay, CSV export,
// multi-seed replication, and the lossy control channel (failure
// injection).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "channel/gaussian.h"
#include "channel/markov.h"
#include "channel/trace.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/independence.h"
#include "net/runtime.h"
#include "reference/coloring.h"
#include "sim/export.h"
#include "sim/replication.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mhca {
namespace {

// ---------- Coloring ----------

TEST(Coloring, ProperOnRandomGraphs) {
  Rng rng(1);
  for (int seed = 0; seed < 5; ++seed) {
    ConflictGraph cg = erdos_renyi(40, 0.15, rng);
    const auto coloring = reference::welsh_powell_coloring(cg.graph());
    EXPECT_TRUE(reference::is_proper_coloring(cg.graph(), coloring));
    EXPECT_LE(reference::num_colors(coloring), cg.graph().max_degree() + 1);
  }
}

TEST(Coloring, PathNeedsTwoColors) {
  ConflictGraph path = linear_network(7);
  const auto coloring = reference::welsh_powell_coloring(path.graph());
  EXPECT_TRUE(reference::is_proper_coloring(path.graph(), coloring));
  EXPECT_EQ(reference::num_colors(coloring), 2);
}

TEST(Coloring, CompleteGraphNeedsN) {
  ConflictGraph k5 = complete_network(5);
  const auto coloring = reference::welsh_powell_coloring(k5.graph());
  EXPECT_EQ(reference::num_colors(coloring), 5);
}

TEST(Coloring, RejectsBadOrder) {
  Graph g(3);
  const std::vector<int> short_order{0, 1};
  EXPECT_THROW(reference::greedy_coloring(g, short_order), std::logic_error);
  const std::vector<int> dup_order{0, 1, 1};
  EXPECT_THROW(reference::greedy_coloring(g, dup_order), std::logic_error);
}

TEST(Coloring, ChromaticBoundImpliesFullIndependenceNumberOfH) {
  // §III: if G is M-colorable then every node can transmit, i.e. the
  // independence number of H equals N.
  Rng rng(2);
  ConflictGraph cg = random_geometric_avg_degree(12, 3.0, rng, false);
  const auto coloring = reference::welsh_powell_coloring(cg.graph());
  const int m = reference::num_colors(coloring);
  ExtendedConflictGraph ecg(cg, m);
  EXPECT_EQ(independence_number(ecg.graph()), cg.num_nodes());
}

// ---------- Gilbert–Elliott Markov channel ----------

TEST(Markov, DeterministicAndTwoValued) {
  Rng rng(3);
  GilbertElliottChannelModel m(3, 2, rng);
  for (int t = 1; t <= 50; ++t) {
    const double a = m.sample(1, 1, t);
    EXPECT_EQ(a, m.sample(1, 1, t));  // stateless w.r.t. call order
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Markov, StationaryOccupancyMatchesTheory) {
  Rng rng(4);
  GilbertElliottChannelModel m(1, 1, rng);
  const double pi_good = m.stationary_good(0, 0);
  int good = 0;
  const int trials = 30000;
  for (int t = 1; t <= trials; ++t)
    if (m.in_good_state(0, 0, t)) ++good;
  EXPECT_NEAR(static_cast<double>(good) / trials, pi_good, 0.03);
}

TEST(Markov, EmpiricalMeanMatchesMarginal) {
  Rng rng(5);
  GilbertElliottChannelModel m(2, 2, rng);
  double sum = 0.0;
  const int trials = 30000;
  for (int t = 1; t <= trials; ++t) sum += m.sample(0, 1, t);
  EXPECT_NEAR(sum / trials, m.mean(0, 1, 1), 0.02);
}

TEST(Markov, StatesAreCorrelatedAcrossSlots) {
  // Transition prob << 1/2 means consecutive states agree far more often
  // than independent draws would.
  Rng rng(6);
  GilbertElliottChannelModel m(1, 1, rng, 0.2, 0.05, 0.1);
  int agree = 0;
  const int trials = 5000;
  for (int t = 1; t < trials; ++t)
    if (m.in_good_state(0, 0, t) == m.in_good_state(0, 0, t + 1)) ++agree;
  EXPECT_GT(static_cast<double>(agree) / trials, 0.8);
}

TEST(Markov, LearningStillFindsGoodChannels) {
  Rng rng(7);
  ConflictGraph cg = random_geometric_avg_degree(8, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  GilbertElliottChannelModel model(8, 3, rng);
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 800;
  const SimulationResult res = Simulator(ecg, model, *policy, cfg).run();
  EXPECT_GT(res.total_expected, 0.0);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.last_strategy));
}

// ---------- Trace replay ----------

TEST(Trace, ReplaysAndWraps) {
  // 2 slots of trace for 1 node, 2 channels.
  TraceChannelModel m(1, 2, {{0.1, 0.2}, {0.3, 0.4}});
  EXPECT_EQ(m.trace_length(), 2);
  EXPECT_DOUBLE_EQ(m.sample(0, 0, 1), 0.1);
  EXPECT_DOUBLE_EQ(m.sample(0, 1, 2), 0.4);
  EXPECT_DOUBLE_EQ(m.sample(0, 0, 3), 0.1);  // wrap-around
  EXPECT_DOUBLE_EQ(m.mean(0, 0, 1), 0.2);    // empirical mean
}

TEST(Trace, ValidatesInput) {
  EXPECT_THROW(TraceChannelModel(1, 2, {}), std::logic_error);
  EXPECT_THROW(TraceChannelModel(1, 2, {{0.1}}), std::logic_error);
  EXPECT_THROW(TraceChannelModel(1, 1, {{1.5}}), std::logic_error);
}

TEST(Trace, RecordedTraceReproducesSourceSamples) {
  Rng rng(8);
  GaussianChannelModel src(3, 2, rng);
  TraceChannelModel trace = record_trace(src, 20);
  for (std::int64_t t = 1; t <= 20; ++t)
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 2; ++j)
        EXPECT_DOUBLE_EQ(trace.sample(i, j, t), src.sample(i, j, t));
}

TEST(Trace, DrivesSimulationLikeSource) {
  Rng rng(9);
  ConflictGraph cg = random_geometric_avg_degree(6, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel src(6, 2, rng);
  TraceChannelModel trace = record_trace(src, 100);
  auto p1 = make_policy(PolicyKind::kCab);
  auto p2 = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 100;
  const SimulationResult a = Simulator(ecg, src, *p1, cfg).run();
  const SimulationResult b = Simulator(ecg, trace, *p2, cfg).run();
  // Identical observed rewards within the recorded horizon -> identical run.
  EXPECT_DOUBLE_EQ(a.total_observed, b.total_observed);
  EXPECT_EQ(a.last_strategy, b.last_strategy);
}

// ---------- CSV export ----------

TEST(Export, WritesSeriesFile) {
  Rng rng(10);
  ConflictGraph cg = random_geometric_avg_degree(6, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(6, 2, rng);
  auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 50;
  cfg.series_stride = 10;
  const SimulationResult res = Simulator(ecg, model, *policy, cfg).run();

  const std::string path = "/tmp/mhca_export_test.csv";
  ASSERT_TRUE(export_series_csv(res, path, kRateScaleKbps));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "slot,cumavg_effective,cumavg_estimated,cumavg_observed,"
            "cum_expected");
  int rows = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, static_cast<int>(res.slots.size()));
  std::remove(path.c_str());
}

// ---------- Replication ----------

TEST(Replication, AggregatesAcrossSeeds) {
  Rng topo_rng(11);
  ConflictGraph cg = random_geometric_avg_degree(8, 3.0, topo_rng);
  ExtendedConflictGraph ecg(cg, 2);
  auto experiment = [&](std::uint64_t seed) {
    Rng rng(seed);
    GaussianChannelModel model(8, 2, rng);
    auto policy = make_policy(PolicyKind::kCab);
    SimulationConfig cfg;
    cfg.slots = 100;
    return Simulator(ecg, model, *policy, cfg).run();
  };
  const ReplicationReport report = replicate(experiment, 5);
  EXPECT_EQ(report.replications, 5);
  EXPECT_EQ(report.metric("expected_rate").count, 5);
  EXPECT_GT(report.metric("expected_rate").mean, 0.0);
  EXPECT_GT(report.metric("effective_rate").mean, 0.0);
  // Different seeds -> genuinely different draws -> nonzero spread.
  EXPECT_GT(report.metric("expected_rate").stddev, 0.0);
  EXPECT_THROW(report.metric("no-such-metric"), std::logic_error);
  EXPECT_THROW(replicate(experiment, 0), std::logic_error);
}

// ---------- Lossy control channel ----------

TEST(LossyChannel, ZeroLossMatchesReliable) {
  Rng rng(12);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(10, 2, rng);
  net::NetConfig reliable;
  net::NetConfig lossy0;
  lossy0.faults.drop_prob = 0.0;
  net::DistributedRuntime a(ecg, model, reliable);
  net::DistributedRuntime b(ecg, model, lossy0);
  for (int t = 0; t < 5; ++t) {
    const auto ra = a.step();
    const auto rb = b.step();
    EXPECT_EQ(ra.strategy, rb.strategy);
    EXPECT_FALSE(ra.conflict);
  }
}

TEST(LossyChannel, DropsAreCountedAndDegradeTheProtocol) {
  Rng rng(13);
  ConflictGraph cg = random_geometric_avg_degree(12, 4.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  GaussianChannelModel model(12, 3, rng);
  net::NetConfig cfg;
  cfg.faults.drop_prob = 0.4;
  cfg.faults.seed = 99;
  net::DistributedRuntime rt(ecg, model, cfg);
  int conflicts = 0;
  for (int t = 0; t < 12; ++t)
    if (rt.step().conflict) ++conflicts;
  EXPECT_GT(rt.channel_stats().drops, 0);
  // With 40% reception loss the independence guarantee must break at least
  // once over 12 rounds on this seed (deterministic given seeds).
  EXPECT_GT(conflicts, 0);
}

TEST(LossyChannel, MildLossKeepsMostOfTheStrategyConflictFree) {
  Rng rng(14);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(10, 2, rng);
  net::NetConfig cfg;
  cfg.faults.drop_prob = 0.02;
  cfg.faults.seed = 7;
  net::DistributedRuntime rt(ecg, model, cfg);
  std::int64_t conflicting_pairs = 0, winners = 0;
  for (int t = 0; t < 10; ++t) {
    const auto res = rt.step();
    winners += static_cast<std::int64_t>(res.strategy.size());
    for (std::size_t i = 0; i < res.strategy.size(); ++i)
      for (std::size_t j = i + 1; j < res.strategy.size(); ++j)
        if (ecg.graph().has_edge(res.strategy[i], res.strategy[j]))
          ++conflicting_pairs;
    EXPECT_FALSE(res.strategy.empty());
  }
  // A 2% reception-loss rate corrupts only a small fraction of the
  // schedule: well under one conflicting pair per five winners.
  EXPECT_GT(winners, 0);
  EXPECT_LT(static_cast<double>(conflicting_pairs),
            0.2 * static_cast<double>(winners));
}

TEST(LossyChannel, RejectsInvalidProbability) {
  Graph g(3);
  EXPECT_THROW(net::ControlChannel(g, {.drop_prob = 1.0}), std::logic_error);
  EXPECT_THROW(net::ControlChannel(g, {.drop_prob = -0.1}), std::logic_error);
}

}  // namespace
}  // namespace mhca
