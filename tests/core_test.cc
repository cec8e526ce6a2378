// Tests for the step API (core/channel_access.h): decide()/report(), their
// validation, and the scenario entry point that builds the scheme.
#include <gtest/gtest.h>

#include "channel/gaussian.h"
#include "core/channel_access.h"
#include "graph/generators.h"
#include "scenario/runner.h"
#include "util/rng.h"

namespace mhca {
namespace {

class CoreFixture : public ::testing::Test {
 protected:
  CoreFixture() : rng_(21), cg_(random_geometric_avg_degree(10, 4.0, rng_)) {
    s_.channel = {};  // the caller owns the radio environment
    s_.num_channels = 3;
  }

  ChannelAccessScheme make(const scenario::Scenario& s) const {
    return scenario::ScenarioRunner(s, cg_).make_scheme();
  }
  ChannelAccessScheme make() const { return make(s_); }

  Rng rng_;
  ConflictGraph cg_;
  scenario::Scenario s_;
};

/// The first node that transmits (or, with `transmits` false, stays silent)
/// in `s`; -1 if there is none.
int first_node(const Strategy& s, bool transmits) {
  for (std::size_t i = 0; i < s.channel_of_node.size(); ++i)
    if ((s.channel_of_node[i] != Strategy::kNoChannel) == transmits)
      return static_cast<int>(i);
  return -1;
}

TEST_F(CoreFixture, ConstructionExposesExtendedGraph) {
  ChannelAccessScheme scheme = make();
  EXPECT_EQ(scheme.extended_graph().num_vertices(), 30);
  EXPECT_EQ(scheme.network().num_nodes(), 10);
  EXPECT_EQ(scheme.policy().name(), "CAB");
  EXPECT_EQ(scheme.current_round(), 0);
}

TEST_F(CoreFixture, DecideProducesFeasibleStrategy) {
  ChannelAccessScheme scheme = make();
  const Strategy& s = scheme.decide();
  EXPECT_EQ(scheme.current_round(), 1);
  EXPECT_TRUE(scheme.extended_graph().is_feasible(s));
  EXPECT_FALSE(scheme.current_vertices().empty());
}

TEST_F(CoreFixture, ReportFeedsEstimates) {
  ChannelAccessScheme scheme = make();
  const Strategy& s = scheme.decide();
  const int transmitter = first_node(s, /*transmits=*/true);
  ASSERT_GE(transmitter, 0);
  scheme.report(transmitter, 0.8);
  const int chan =
      s.channel_of_node[static_cast<std::size_t>(transmitter)];
  const int v = scheme.extended_graph().vertex_of(transmitter, chan);
  EXPECT_EQ(scheme.estimates().count(v), 1);
  EXPECT_DOUBLE_EQ(scheme.estimates().mean(v), 0.8);
}

TEST_F(CoreFixture, ReportValidation) {
  ChannelAccessScheme scheme = make();
  EXPECT_THROW(scheme.report(0, 0.5), std::logic_error);  // before decide
  const Strategy& s = scheme.decide();
  const int silent = first_node(s, /*transmits=*/false);
  if (silent >= 0) {
    EXPECT_THROW(scheme.report(silent, 0.5), std::logic_error);
  }
  EXPECT_THROW(scheme.report(99, 0.5), std::logic_error);
  // A second report for the same node in the same round would observe the
  // arm twice; the next round accepts it again.
  const int transmitter = first_node(s, /*transmits=*/true);
  ASSERT_GE(transmitter, 0);
  scheme.report(transmitter, 0.5);
  EXPECT_THROW(scheme.report(transmitter, 0.5), std::logic_error);
  const Strategy& next = scheme.decide();
  const int again = first_node(next, /*transmits=*/true);
  ASSERT_GE(again, 0);
  scheme.report(again, 0.5);
}

TEST_F(CoreFixture, SteppingLearnsTheBetterChannel) {
  // Two isolated nodes (no conflicts), two channels with very different
  // rates: after a few rounds each node should settle on its best channel.
  scenario::Scenario s = s_;
  s.num_channels = 2;
  ChannelAccessScheme scheme =
      scenario::ScenarioRunner(s, ConflictGraph::from_edges(2, {}))
          .make_scheme();
  // True means: node 0 prefers channel 1; node 1 prefers channel 0.
  const double mu[2][2] = {{0.2, 0.9}, {0.8, 0.1}};
  for (int t = 1; t <= 60; ++t) {
    const Strategy& st = scheme.decide();
    for (int i = 0; i < 2; ++i) {
      const int c = st.channel_of_node[static_cast<std::size_t>(i)];
      if (c != Strategy::kNoChannel) scheme.report(i, mu[i][c]);
    }
  }
  const Strategy& last = scheme.decide();
  EXPECT_EQ(last.channel_of_node[0], 1);
  EXPECT_EQ(last.channel_of_node[1], 0);
}

TEST_F(CoreFixture, BatchRunMatchesSimulatorShape) {
  GaussianChannelModel model(10, 3, rng_);
  scenario::Scenario s = s_;
  s.run.slots = 150;
  const SimulationResult res =
      scenario::ScenarioRunner(s, cg_).run_with(model);
  EXPECT_EQ(res.total_slots, 150);
  EXPECT_GT(res.total_observed, 0.0);
  EXPECT_EQ(res.slots.size(), res.cumavg_estimated.size());
}

TEST_F(CoreFixture, AllSolverKindsUsable) {
  for (SolverKind kind :
       {SolverKind::kDistributedPtas, SolverKind::kCentralizedPtas,
        SolverKind::kGreedy, SolverKind::kExact}) {
    scenario::Scenario s = s_;
    s.solver.kind = kind;
    ChannelAccessScheme scheme = make(s);
    const Strategy& st = scheme.decide();
    EXPECT_TRUE(scheme.extended_graph().is_feasible(st)) << to_string(kind);
  }
}

TEST_F(CoreFixture, LlrDefaultsLToN) {
  scenario::Scenario s = s_;
  s.policy.kind = "llr";
  ChannelAccessScheme scheme = make(s);
  EXPECT_EQ(scheme.policy().name(), "LLR");
}

TEST_F(CoreFixture, UpdatePeriodForwardedToBatchRun) {
  GaussianChannelModel model(10, 3, rng_);
  scenario::Scenario s = s_;
  s.run.slots = 100;
  s.run.update_period = 5;
  const SimulationResult res =
      scenario::ScenarioRunner(s, cg_).run_with(model);
  EXPECT_EQ(res.decisions, 20);
}

}  // namespace
}  // namespace mhca
