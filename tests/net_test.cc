// Tests for src/net: control-channel flooding, agent-local protocol state,
// and the full message-level runtime — including the key integration
// property that the message-level protocol computes *identical* decisions
// to the lockstep engine from purely local knowledge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bandit/estimates.h"
#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "net/agent.h"
#include "net/control_channel.h"
#include "net/faults.h"
#include "net/oracle.h"
#include "net/runtime.h"
#include "net/wire.h"
#include "util/rng.h"

namespace mhca {
namespace {

using net::ControlChannel;
using net::DistributedRuntime;
using net::Message;
using net::MsgType;
using net::NetConfig;
using net::NetRoundResult;

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(ControlChannel, FloodReachesExactlyTtlBall) {
  Graph g = path_graph(10);
  ControlChannel ch(g);
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  std::set<int> reached;
  ch.flood(m, 2, [&](int v, const Message&) { reached.insert(v); });
  EXPECT_EQ(reached, (std::set<int>{3, 4, 6, 7}));  // origin excluded
  // Messages counted include the origin's own transmission.
  EXPECT_EQ(ch.stats().messages, 5);
  EXPECT_EQ(ch.stats().floods, 1);
}

TEST(ControlChannel, TtlZeroDeliversNobody) {
  Graph g = path_graph(3);
  ControlChannel ch(g);
  Message m;
  m.origin = 1;
  int delivered = 0;
  ch.flood(m, 0, [&](int, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().messages, 1);
}

TEST(ControlChannel, TimeslotCharging) {
  Graph g = path_graph(3);
  ControlChannel ch(g);
  ch.charge_timeslots(5);
  ch.charge_timeslots(7);
  EXPECT_EQ(ch.stats().mini_timeslots, 12);
  ch.reset_stats();
  EXPECT_EQ(ch.stats().mini_timeslots, 0);
}

TEST(ControlChannel, EncodedFloodMatchesStructFloodAndReturnsTheMessage) {
  // A frame that arrives as bytes (a sharded peer's flood) must fold the
  // same trace, bill the same airtime and deliver the same message as the
  // struct flood that produced it; flood_encoded hands that one decoded
  // copy back to the caller.
  Graph g = path_graph(8);
  Message det;
  det.type = MsgType::kDetermination;
  det.origin = 3;
  det.round = 5;
  det.statuses = {{2, VertexStatus::kLoser}, {3, VertexStatus::kWinner},
                  {4, VertexStatus::kLoser}};
  ControlChannel by_struct(g);
  std::vector<std::pair<int, std::size_t>> seen_struct;
  by_struct.flood(det, 2, [&](int v, const Message& m) {
    seen_struct.emplace_back(v, m.statuses.size());
  });
  auto bytes = std::make_shared<std::vector<std::uint8_t>>();
  net::wire::encode(det, *bytes);
  ControlChannel by_bytes(g);
  std::vector<std::pair<int, std::size_t>> seen_bytes;
  const Message back = by_bytes.flood_encoded(
      bytes, 2, [&](int v, const Message& m) {
        seen_bytes.emplace_back(v, m.statuses.size());
      });
  EXPECT_EQ(back.origin, 3);
  EXPECT_EQ(back.round, 5);
  ASSERT_EQ(back.statuses.size(), 3u);
  EXPECT_EQ(back.statuses[1].vertex, 3);
  EXPECT_EQ(back.statuses[1].status, VertexStatus::kWinner);
  EXPECT_EQ(seen_bytes, seen_struct);
  EXPECT_EQ(by_bytes.trace_hash(), by_struct.trace_hash());
  EXPECT_EQ(by_bytes.stats().bytes_on_wire, by_struct.stats().bytes_on_wire);
  EXPECT_EQ(by_bytes.stats().messages, by_struct.stats().messages);
}

class NetFixture : public ::testing::Test {
 protected:
  NetFixture()
      : rng_(11),
        cg_(random_geometric_avg_degree(12, 4.0, rng_)),
        ecg_(cg_, 3),
        model_(12, 3, rng_) {}

  Rng rng_;
  ConflictGraph cg_;
  ExtendedConflictGraph ecg_;
  GaussianChannelModel model_;
};

TEST_F(NetFixture, RoundProducesIndependentStrategy) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  const NetRoundResult res = rt.step();
  EXPECT_EQ(res.round, 1);
  EXPECT_FALSE(res.strategy.empty());
  EXPECT_TRUE(ecg_.graph().is_independent_set(res.strategy));
  EXPECT_GT(res.observed_sum, 0.0);
  EXPECT_GE(res.mini_rounds, 1);
}

TEST_F(NetFixture, AgentsStoreOnlyLocalTables) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  // Space bound O(m): every agent's table is at most the whole graph and at
  // least its direct neighborhood.
  for (int v = 0; v < ecg_.num_vertices(); ++v) {
    const auto& a = rt.agent(v);
    EXPECT_LT(a.table_size(),
              static_cast<std::size_t>(ecg_.num_vertices()));
    EXPECT_GE(a.table_size(),
              static_cast<std::size_t>(ecg_.graph().degree(v)));
  }
  EXPECT_GT(rt.max_table_size(), 0u);
}

TEST_F(NetFixture, EstimatesUpdateOnlyForTransmitters) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  const NetRoundResult res = rt.step();
  std::set<int> winners(res.strategy.begin(), res.strategy.end());
  for (int v = 0; v < ecg_.num_vertices(); ++v) {
    const auto& a = rt.agent(v);
    if (winners.count(v)) {
      EXPECT_EQ(a.own_count(), 1);
      EXPECT_GT(a.own_mean(), 0.0);
    } else {
      EXPECT_EQ(a.own_count(), 0);
    }
  }
}

TEST_F(NetFixture, MessageVolumeGrowsWithRounds) {
  DistributedRuntime rt(ecg_, model_, NetConfig{});
  rt.step();
  const auto m1 = rt.channel_stats().messages;
  rt.step();
  const auto m2 = rt.channel_stats().messages;
  EXPECT_GT(m1, 0);
  EXPECT_GT(m2, m1);
  EXPECT_GT(rt.channel_stats().mini_timeslots, 0);
}

// --- The central integration property: message-level protocol ==
// lockstep engine, round for round. ---
class Equivalence : public ::testing::TestWithParam<int> {};

TEST_P(Equivalence, NetRuntimeMatchesLockstepEngine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  GaussianChannelModel model(10, m_channels, rng);

  NetConfig ncfg;
  ncfg.r = 2;
  ncfg.D = 4;
  ncfg.policy = PolicyKind::kCab;
  DistributedRuntime rt(ecg, model, ncfg);

  // Lockstep replica: global estimates + engine + same policy.
  DistributedPtasConfig dcfg;
  dcfg.r = 2;
  dcfg.max_mini_rounds = 4;
  DistributedRobustPtas engine(ecg.graph(), dcfg);
  auto policy = make_policy(PolicyKind::kCab);
  ArmEstimates est(ecg.num_vertices());

  std::vector<double> weights;
  for (std::int64_t t = 1; t <= 15; ++t) {
    const NetRoundResult net_res = rt.step();

    policy->compute_indices(est, t, weights);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners) << "round " << t;
    for (int v : lock.winners)
      est.observe(v, model.sample(ecg.master_of(v), ecg.channel_of(v), t));
  }

  // After the horizon the learning state must agree too.
  for (int v = 0; v < ecg.num_vertices(); ++v) {
    EXPECT_EQ(rt.agent(v).own_count(), est.count(v));
    EXPECT_NEAR(rt.agent(v).own_mean(), est.mean(v), 1e-12);
  }
}

TEST_P(Equivalence, LlrPolicyAlsoMatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  ConflictGraph cg = random_geometric_avg_degree(8, 3.0, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(8, 2, rng);

  NetConfig ncfg;
  ncfg.policy = PolicyKind::kLlr;
  DistributedRuntime rt(ecg, model, ncfg);

  DistributedPtasConfig dcfg;
  dcfg.max_mini_rounds = 4;
  DistributedRobustPtas engine(ecg.graph(), dcfg);
  PolicyParams params;
  params.llr_max_strategy_len = ecg.num_nodes();
  auto policy = make_policy(PolicyKind::kLlr, params);
  ArmEstimates est(ecg.num_vertices());

  std::vector<double> weights;
  for (std::int64_t t = 1; t <= 10; ++t) {
    const NetRoundResult net_res = rt.step();
    policy->compute_indices(est, t, weights);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners) << "round " << t;
    for (int v : lock.winners)
      est.observe(v, model.sample(ecg.master_of(v), ecg.channel_of(v), t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence, ::testing::Range(0, 8));

TEST_F(NetFixture, MessageBillMatchesLockstepAccounting) {
  // The real floods (LD + LB transmissions, and WB transmissions) must
  // equal the lockstep engine's analytic ball-size accounting, decision
  // for decision — the §IV-C communication-complexity numbers are the
  // same whichever implementation you measure.
  net::NetConfig ncfg;
  DistributedRuntime rt(ecg_, model_, ncfg);

  DistributedPtasConfig dcfg;
  dcfg.max_mini_rounds = ncfg.D;
  dcfg.count_messages = true;
  DistributedRobustPtas engine(ecg_.graph(), dcfg);
  auto policy = make_policy(PolicyKind::kCab);
  ArmEstimates est(ecg_.num_vertices());

  std::vector<double> weights;
  std::vector<int> prev;
  for (std::int64_t t = 1; t <= 6; ++t) {
    const auto before = rt.channel_stats();
    const NetRoundResult net_res = rt.step();
    const auto after = rt.channel_stats();

    policy->compute_indices(est, t, weights);
    std::int64_t lock_wb = 0;
    if (!prev.empty()) lock_wb = engine.weight_broadcast_messages(prev);
    const DistributedPtasResult lock = engine.run(weights);
    ASSERT_EQ(net_res.strategy, lock.winners);

    const std::int64_t net_ldlb =
        (after.of_type(net::MsgType::kLeaderDeclare) -
         before.of_type(net::MsgType::kLeaderDeclare)) +
        (after.of_type(net::MsgType::kDetermination) -
         before.of_type(net::MsgType::kDetermination));
    EXPECT_EQ(net_ldlb, lock.total_messages) << "round " << t;
    const std::int64_t net_wb =
        after.of_type(net::MsgType::kWeightUpdate) -
        before.of_type(net::MsgType::kWeightUpdate);
    EXPECT_EQ(net_wb, lock_wb) << "round " << t;

    prev = lock.winners;
    for (int v : lock.winners)
      est.observe(v, model_.sample(ecg_.master_of(v), ecg_.channel_of(v), t));
  }
}

TEST_F(NetFixture, UnlimitedMiniRoundsMarkEveryone) {
  NetConfig cfg;
  cfg.D = 0;  // run until all marked
  DistributedRuntime rt(ecg_, model_, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(res.all_marked);
}

TEST_F(NetFixture, GreedyLocalSolverWorks) {
  NetConfig cfg;
  cfg.local_solver = LocalSolverKind::kGreedy;
  DistributedRuntime rt(ecg_, model_, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(ecg_.graph().is_independent_set(res.strategy));
}

TEST(NetValidation, DimensionMismatchRejected) {
  Rng rng(3);
  ConflictGraph cg = linear_network(4);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel wrong(5, 2, rng);
  EXPECT_THROW(DistributedRuntime(ecg, wrong, NetConfig{}), std::logic_error);
}

// --- Fault plane: billing, determinism, actionable validation ---

TEST(ControlChannelFaults, InvalidDropProbErrorNamesOffendingValue) {
  Graph g = path_graph(4);
  net::FaultProfile bad;
  bad.drop_prob = 1.0;
  try {
    ControlChannel ch(g, bad);
    FAIL() << "expected the fault profile to be rejected";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drop_prob = 1.000000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 1)"), std::string::npos) << msg;
  }
}

TEST(ControlChannelFaults, DuplicatesAreBilledAsTransmissions) {
  Graph g = path_graph(10);
  net::FaultProfile p;
  p.dup_prob = 0.9;
  p.seed = 5;
  ControlChannel ch(g, p);
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  int delivered = 0;
  ch.flood(m, 2, [&](int, const Message&) { ++delivered; });
  // The ttl-2 ball holds 4 receivers and the fault-free bill is 5 (origin
  // included). Every duplicate is one extra delivery *and* one extra billed
  // transmission — duplicated airtime is not free.
  EXPECT_GT(ch.stats().duplicates, 0);
  EXPECT_EQ(delivered, 4 + ch.stats().duplicates);
  EXPECT_EQ(ch.stats().messages, 5 + ch.stats().duplicates);
  EXPECT_EQ(ch.stats().of_type(MsgType::kHello), ch.stats().messages);
}

TEST(ControlChannelFaults, SameFloodReorderIsDeterministicAndLossless) {
  Graph g = path_graph(12);
  auto run = [&](std::vector<int>& order) {
    net::FaultProfile p;
    p.reorder_prob = 0.9;
    p.seed = 9;
    ControlChannel ch(g, p);
    Message m;
    m.type = MsgType::kWeightUpdate;
    m.origin = 6;
    ch.flood(m, 3, [&](int v, const Message&) { order.push_back(v); });
    return ch.stats().deferred;
  };
  std::vector<int> o1, o2;
  const auto d1 = run(o1);
  const auto d2 = run(o2);
  EXPECT_EQ(o1, o2);  // same (seed, schedule) => same delivery order
  EXPECT_EQ(d1, d2);
  EXPECT_GT(d1, 0);
  // Reordering permutes deliveries but loses and invents nothing.
  std::vector<int> sorted = o1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{3, 4, 5, 7, 8, 9}));
}

TEST(ControlChannelFaults, DelayedDeliveriesSurfaceAtTheirSlot) {
  Graph g = path_graph(10);
  net::FaultProfile p;
  p.reorder_prob = 0.9;
  p.delay_slots_max = 3;
  p.seed = 4;
  ControlChannel ch(g, p);
  ch.begin_slot(1, [](int, const Message&) {});
  Message m;
  m.type = MsgType::kHello;
  m.origin = 5;
  int now = 0;
  ch.flood(m, 2, [&](int, const Message&) { ++now; });
  ASSERT_GT(ch.pending_deliveries(), 0u);
  int later = 0;
  for (std::int64_t round = 2; round <= 5; ++round)
    ch.begin_slot(round, [&](int, const Message&) { ++later; });
  // Every deferred delivery lands within delay_slots_max slots; none is
  // lost, none is delivered twice.
  EXPECT_EQ(now + later, 4);
  EXPECT_EQ(ch.pending_deliveries(), 0u);
}

// --- View-synchronous membership ---

NetConfig view_sync_config() {
  NetConfig cfg;
  cfg.membership = net::MembershipMode::kViewSync;
  return cfg;
}

TEST_F(NetFixture, FaultFreeViewSyncMatchesOmniscientEveryRound) {
  DistributedRuntime omniscient(ecg_, model_, NetConfig{});
  DistributedRuntime viewsync(ecg_, model_, view_sync_config());
  for (int t = 1; t <= 20; ++t) {
    const NetRoundResult a = omniscient.step();
    const NetRoundResult b = viewsync.step();
    ASSERT_EQ(a.strategy, b.strategy) << "round " << t;
    EXPECT_EQ(b.tx_abstained, 0);
  }
  // A reliable wire never triggers the robustness machinery.
  const net::RuntimeCounters c = viewsync.counters();
  EXPECT_EQ(c.timeouts, 0);
  EXPECT_EQ(c.view_changes, 0);
  EXPECT_EQ(c.stale_decisions, 0);
}

TEST_F(NetFixture, ConvergenceOracleAcceptsFaultFreeViewSyncRun) {
  DistributedRuntime rt(ecg_, model_, view_sync_config());
  for (int t = 1; t <= 8; ++t) rt.step();
  const net::ConvergenceReport rep = net::check_convergence(rt, ecg_.graph());
  EXPECT_TRUE(rep.members_match);
  EXPECT_TRUE(rep.adjacency_match);
  EXPECT_TRUE(rep.stats_match);
  EXPECT_TRUE(rep.no_suspects);
  EXPECT_TRUE(rep.views_equal);
  EXPECT_TRUE(rep.no_pending);
  ASSERT_TRUE(rep.converged());
  const std::vector<int> predicted =
      net::lockstep_decision(rt, ecg_.graph(), rt.rounds_run() + 1);
  EXPECT_EQ(rt.step().strategy, predicted);
}

TEST_F(NetFixture, LivenessProbesAndViewChangesAreBilled) {
  NetConfig clean = view_sync_config();
  NetConfig lossy = view_sync_config();
  lossy.faults.drop_prob = 0.4;
  lossy.faults.seed = 21;
  DistributedRuntime rt_clean(ecg_, model_, clean);
  DistributedRuntime rt_lossy(ecg_, model_, lossy);
  for (int t = 1; t <= 20; ++t) {
    rt_clean.step();
    rt_lossy.step();
  }
  const net::RuntimeCounters c = rt_lossy.counters();
  EXPECT_GT(c.timeouts, 0);
  EXPECT_GT(c.retries, 0);
  EXPECT_GT(c.view_changes, 0);
  // Retried hellos and view-change floods are real airtime: the lossy run
  // floods strictly more often than the clean one (drops remove
  // transmissions, never floods).
  EXPECT_GT(rt_lossy.channel_stats().floods, rt_clean.channel_stats().floods);
  EXPECT_GT(rt_lossy.channel_stats().of_type(MsgType::kViewChange), 0);
}

// --- The flat agent table: one entry per (2r+1)-hop member, parallel to
// members(), looked up by binary search / a forward-galloping cursor. ---

/// Agent 4 on the path 0-1-...-9 with r = 1: its (2r+1)-hop members are
/// 1..7. Member m's hello carries (mean, count) = (m / 10, m).
net::VertexAgent path_agent() {
  net::VertexAgent a(4, 1);
  for (int m : {1, 2, 3, 5, 6, 7}) {
    Message h;
    h.type = MsgType::kHello;
    h.origin = m;
    h.neighbor_list = {m - 1, m + 1};
    h.mean = m / 10.0;
    h.count = m;
    a.on_hello(h);
  }
  a.set_own_neighbors({3, 5});
  a.finalize_discovery();
  return a;
}

Message determination(std::vector<net::StatusEntry> statuses) {
  Message det;
  det.type = MsgType::kDetermination;
  det.origin = 6;
  det.round = 1;
  det.statuses = std::move(statuses);
  return det;
}

TEST(AgentTable, EmptyBeforeDiscovery) {
  for (const net::MembershipMode mode :
       {net::MembershipMode::kOmniscient, net::MembershipMode::kViewSync}) {
    net::VertexAgent a(4, 1, mode);
    EXPECT_EQ(a.table_size(), 0u);
    EXPECT_TRUE(a.members().empty());
  }
  net::VertexAgent a(4, 1);
  Message h;
  h.type = MsgType::kHello;
  h.origin = 3;
  h.neighbor_list = {2, 4};
  a.on_hello(h);
  EXPECT_EQ(a.table_size(), 0u) << "hellos alone must not populate the table";
  a.set_own_neighbors({3});
  a.finalize_discovery();
  EXPECT_EQ(a.table_size(), 1u);
  EXPECT_EQ(path_agent().table_size(), 6u);
  EXPECT_EQ(path_agent().members(), (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(AgentTable, MemberStatsOfUnknownMemberAsserts) {
  const net::VertexAgent a = path_agent();
  EXPECT_EQ(a.member_stats(7), (std::pair<double, std::int64_t>{0.7, 7}));
  EXPECT_EQ(a.member_stats(1), (std::pair<double, std::int64_t>{0.1, 1}));
  EXPECT_THROW(a.member_stats(0), std::logic_error);   // beyond the horizon
  EXPECT_THROW(a.member_stats(8), std::logic_error);   // beyond the horizon
  EXPECT_THROW(a.member_stats(4), std::logic_error);   // self: not a member
  EXPECT_THROW(a.member_stats(-1), std::logic_error);  // no such vertex
  EXPECT_THROW(a.member_status(9), std::logic_error);
}

TEST(AgentTable, DeterminationHandlesOutOfOrderVerdictsAndNonMembers) {
  net::VertexAgent a = path_agent();
  auto policy = make_policy(PolicyKind::kCab);
  a.begin_round(*policy, 1, 10);
  using VS = VertexStatus;
  // A leader's candidates ascending, then winner-adjacent losers (which
  // restart below them), interleaved with vertices beyond this agent's
  // horizon and its own verdict.
  a.on_determination(determination({{5, VS::kLoser},
                                    {6, VS::kWinner},
                                    {9, VS::kLoser},
                                    {2, VS::kWinner},
                                    {0, VS::kLoser},
                                    {4, VS::kLoser},
                                    {3, VS::kLoser},
                                    {42, VS::kWinner}}));
  EXPECT_EQ(a.member_status(5), VS::kLoser);
  EXPECT_EQ(a.member_status(6), VS::kWinner);
  EXPECT_EQ(a.member_status(2), VS::kWinner);
  EXPECT_EQ(a.member_status(3), VS::kLoser);
  EXPECT_EQ(a.member_status(1), VS::kCandidate);
  EXPECT_EQ(a.member_status(7), VS::kCandidate);
  EXPECT_EQ(a.status(), VS::kLoser);
  EXPECT_EQ(a.table_size(), 6u) << "non-members must not be admitted";

  // Against a last-write-wins reference on random verdict lists: any order,
  // repeated vertices, members and non-members mixed.
  Rng rng(0xA6E47);
  for (int trial = 0; trial < 200; ++trial) {
    net::VertexAgent b = path_agent();
    b.begin_round(*policy, 1, 10);
    std::vector<net::StatusEntry> statuses;
    std::map<int, VS> expected;
    const int n = rng.uniform_int(0, 12);
    for (int i = 0; i < n; ++i) {
      const int v = rng.uniform_int(0, 10);
      const auto st = static_cast<VS>(rng.uniform_int(0, 2));
      statuses.push_back({v, st});
      expected[v] = st;
    }
    b.on_determination(determination(statuses));
    for (int m : b.members()) {
      const VS want = expected.count(m) ? expected[m] : VS::kCandidate;
      if (m == 4)
        EXPECT_EQ(b.status(), want) << "trial " << trial;
      else
        EXPECT_EQ(b.member_status(m), want) << "trial " << trial << " v " << m;
    }
  }
}

TEST(AgentTable, WeightUpdateFromBeyondTheHorizonIsIgnored) {
  net::VertexAgent a = path_agent();
  Message wu;
  wu.type = MsgType::kWeightUpdate;
  wu.origin = 9;
  wu.round = 2;
  wu.mean = 0.9;
  wu.count = 90;
  a.on_weight_update(wu);
  EXPECT_EQ(a.table_size(), 6u);
  EXPECT_THROW(a.member_stats(9), std::logic_error);
  for (int m : {1, 2, 3, 5, 6, 7})
    EXPECT_EQ(a.member_stats(m),
              (std::pair<double, std::int64_t>{m / 10.0, m}));
  // A member's update lands in its own entry only.
  wu.origin = 6;
  a.on_weight_update(wu);
  EXPECT_EQ(a.member_stats(6), (std::pair<double, std::int64_t>{0.9, 90}));
  EXPECT_EQ(a.member_stats(5), (std::pair<double, std::int64_t>{0.5, 5}));
  EXPECT_EQ(a.member_stats(7), (std::pair<double, std::int64_t>{0.7, 7}));
}

TEST(NetLinearWorstCase, OneLeaderPerMiniRound) {
  // The Fig. 5 pathology, at message level: decreasing weights on a path.
  // We drive a single round with D = 0 and verify it still terminates and
  // produces a feasible maximal-ish strategy.
  const int n = 15;
  ConflictGraph cg = linear_network(n);
  ExtendedConflictGraph ecg(cg, 1);
  // Deterministic means, decreasing along the path.
  std::vector<double> rates;
  for (int i = 0; i < n; ++i)
    rates.push_back(1350.0 - 80.0 * static_cast<double>(i));
  GaussianChannelModel model(n, 1, rates, 0.0, 1);
  NetConfig cfg;
  cfg.D = 0;
  DistributedRuntime rt(ecg, model, cfg);
  const NetRoundResult res = rt.step();
  EXPECT_TRUE(res.all_marked);
  // Needs about n / (2r+1) = 3 mini-rounds.
  EXPECT_GE(res.mini_rounds, 3);
  EXPECT_TRUE(ecg.graph().is_independent_set(res.strategy));
}

}  // namespace
}  // namespace mhca
