// Dynamics-subsystem unit tests: incremental Graph/NeighborhoodCache
// maintenance equals from-scratch construction, DynamicNetwork keeps its
// invariants (masks, isolation of departed nodes, H lift), built-in models
// are deterministic and registry-complete, the [dynamics]/[net] scenario
// sections parse/serialize/override like every other section, and the
// dynamic paths of ScenarioRunner (run / replicate / run_net / make_scheme)
// behave.
#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace mhca {
namespace {

using dynamics::DynamicNetwork;
using dynamics::DynamicsBuildContext;
using dynamics::DynamicsModel;
using dynamics::GraphDelta;
using scenario::ParamMap;
using scenario::Scenario;
using scenario::ScenarioError;
using scenario::ScenarioRunner;

// ------------------------------------------------------- structural helpers

std::vector<std::pair<int, int>> edges_of(const Graph& g) {
  std::vector<std::pair<int, int>> out;
  for (int v = 0; v < g.size(); ++v)
    for (int u : g.neighbors(v))
      if (u > v) out.emplace_back(v, u);
  return out;
}

void expect_same_structure(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (int v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "row " << v << " differs";
  }
  ASSERT_EQ(a.has_adjacency_matrix(), b.has_adjacency_matrix());
  if (a.has_adjacency_matrix()) {
    ASSERT_EQ(a.row_blocks(), b.row_blocks());
    for (int v = 0; v < a.size(); ++v) {
      const auto ra = a.adjacency_row(v);
      const auto rb = b.adjacency_row(v);
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << "bitset row " << v << " differs";
    }
  }
}

void expect_same_cache(const NeighborhoodCache& a,
                       const NeighborhoodCache& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.r(), b.r());
  for (int v = 0; v < a.size(); ++v) {
    const auto ra = a.r_ball(v);
    const auto rb = b.r_ball(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "r-ball of " << v << " differs";
    const auto ea = a.election_ball(v);
    const auto eb = b.election_ball(v);
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
        << "election ball of " << v << " differs";
  }
}

Graph from_edge_list(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

// ------------------------------------------------------ Graph::apply_delta

TEST(GraphDeltaTest, ApplyDeltaMatchesRebuild) {
  Rng rng(7);
  ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng,
                                                 /*force_connected=*/false);
  std::vector<std::pair<int, int>> edges = edges_of(cg.graph());
  Graph g = from_edge_list(40, edges);

  // Remove a third of the edges, add some fresh ones.
  std::vector<std::pair<int, int>> removed, added;
  for (std::size_t i = 0; i < edges.size(); i += 3) removed.push_back(edges[i]);
  std::set<std::pair<int, int>> present(edges.begin(), edges.end());
  for (int tries = 0; tries < 200 && added.size() < 15; ++tries) {
    int u = rng.uniform_int(0, 39), v = rng.uniform_int(0, 39);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (present.count({u, v})) continue;
    present.insert({u, v});
    added.emplace_back(u, v);
  }
  std::sort(added.begin(), added.end());

  g.apply_delta(added, removed);

  std::vector<std::pair<int, int>> want;
  std::set<std::pair<int, int>> gone(removed.begin(), removed.end());
  for (const auto& e : edges)
    if (!gone.count(e)) want.push_back(e);
  want.insert(want.end(), added.begin(), added.end());
  const Graph rebuilt = from_edge_list(40, want);
  expect_same_structure(g, rebuilt);

  // The inverse delta restores the original structure exactly.
  g.apply_delta(removed, added);
  expect_same_structure(g, from_edge_list(40, edges));
}

TEST(GraphDeltaTest, RejectsInexactDeltas) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const std::vector<std::pair<int, int>> present{{0, 1}};
  const std::vector<std::pair<int, int>> absent{{2, 3}};
  const std::vector<std::pair<int, int>> self_loop{{1, 1}};
  EXPECT_THROW(g.apply_delta(present, {}), std::logic_error);   // re-add
  EXPECT_THROW(g.apply_delta({}, absent), std::logic_error);    // phantom rm
  EXPECT_THROW(g.apply_delta(self_loop, {}), std::logic_error); // self loop
  Graph unfinalized(3);
  unfinalized.add_edge(0, 1);
  EXPECT_THROW(unfinalized.apply_delta(absent, {}), std::logic_error);
}

TEST(GraphDeltaTest, MultiSourceKHopMatchesUnionOfBalls) {
  Rng rng(9);
  ConflictGraph cg = random_geometric_avg_degree(30, 4.0, rng,
                                                 /*force_connected=*/false);
  const Graph& g = cg.graph();
  BfsScratch scratch(g.size());
  const std::vector<int> sources{3, 17, 3, 25};
  for (int k : {0, 1, 2, 4}) {
    std::vector<int> got;
    scratch.multi_source_k_hop(g, sources, k, got);
    std::set<int> want;
    for (int s : sources) {
      const auto ball = k_hop_neighborhood(g, s, k);
      want.insert(ball.begin(), ball.end());
    }
    EXPECT_EQ(got, std::vector<int>(want.begin(), want.end())) << "k=" << k;
    // The unsorted variant: the same vertices, in BFS discovery order
    // (hop distance to the nearest source never decreases along the list).
    std::vector<int> order;
    scratch.multi_source_k_hop_unsorted(g, sources, k, order);
    int prev = 0;
    for (int v : order) {
      int d = BfsScratch::unreachable();
      for (int s : sources) d = std::min(d, hop_distance(g, s, v));
      EXPECT_GE(d, prev) << "k=" << k << " v=" << v;
      prev = d;
    }
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, got) << "k=" << k;
  }
}

TEST(GraphDeltaTest, BitParallelSizesMatchPerSourceBalls) {
  Rng rng(21);
  ConflictGraph cg = random_geometric_avg_degree(300, 5.0, rng,
                                                 /*force_connected=*/false);
  const Graph& g = cg.graph();
  BfsScratch scratch;  // one scratch across calls: state must reset
  std::vector<int> sizes(BfsScratch::kMaxSizeSources);
  for (int c = 0; c < 12; ++c) {
    // Full and partial batches, duplicates allowed.
    const int count = c % 3 == 0 ? 64 : rng.uniform_int(1, 64);
    std::vector<int> sources;
    for (int i = 0; i < count; ++i)
      sources.push_back(rng.uniform_int(0, g.size() - 1));
    const int k = c % 6;
    scratch.k_hop_sizes(g, sources, k, sizes);
    for (int i = 0; i < count; ++i)
      ASSERT_EQ(sizes[static_cast<std::size_t>(i)],
                static_cast<int>(k_hop_neighborhood(g, sources[i], k).size()))
          << "case " << c << " source " << i << " k=" << k;
  }
}

// --------------------------------------- NeighborhoodCache::apply_delta

TEST(NeighborhoodCacheDeltaTest, ScopedInvalidationMatchesFreshBuild) {
  Rng rng(11);
  ConflictGraph cg = random_geometric_avg_degree(36, 5.0, rng,
                                                 /*force_connected=*/false);
  std::vector<std::pair<int, int>> edges = edges_of(cg.graph());
  Graph g = from_edge_list(36, edges);
  NeighborhoodCache cache(g, /*r=*/2);

  const std::vector<std::pair<int, int>> removed{edges[1], edges[5]};
  std::vector<std::pair<int, int>> added;
  std::set<std::pair<int, int>> present(edges.begin(), edges.end());
  for (int u = 0; u < 36 && added.size() < 4; ++u)
    for (int v = u + 1; v < 36 && added.size() < 4; ++v)
      if (!present.count({u, v})) added.emplace_back(u, v);

  g.apply_delta(added, removed);
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
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  cache.apply_delta(g, touched);
  EXPECT_GT(cache.last_invalidated(), 0);
  EXPECT_LE(cache.last_invalidated(), cache.size());

  const NeighborhoodCache fresh(g, /*r=*/2);
  expect_same_cache(cache, fresh);
}

// ------------------------------------------------------- DynamicNetwork

std::unique_ptr<DynamicsModel> build_model(const std::string& kind,
                                           const ParamMap& params,
                                           const ConflictGraph& base,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const DynamicsBuildContext ctx{&base, 1000};
  return dynamics::dynamics_registry().create(kind, params, ctx, rng);
}

TEST(DynamicNetworkTest, ChurnKeepsInvariants) {
  Rng rng(13);
  ConflictGraph base = random_geometric_avg_degree(20, 5.0, rng);
  ParamMap p;
  p.set("leave_prob", "0.2");
  p.set("join_prob", "0.3");
  DynamicNetwork dyn(base, /*num_channels=*/3,
                     build_model("churn", p, base, 99));
  ASSERT_TRUE(dyn.dynamic());
  int changes = 0;
  for (std::int64_t t = 2; t <= 60; ++t) {
    const dynamics::SlotChange& ch = dyn.advance(t);
    if (!ch.changed) continue;
    ++changes;
    // Every inactive node is isolated in G and all its H vertices masked;
    // H stays the exact lift of G (checked via a from-scratch ECG).
    for (int i = 0; i < dyn.network().num_nodes(); ++i) {
      if (!dyn.active_nodes()[static_cast<std::size_t>(i)])
        EXPECT_EQ(dyn.network().graph().degree(i), 0);
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(dyn.active_vertices()[static_cast<std::size_t>(
                      dyn.ecg().vertex_of(i, j))],
                  dyn.active_nodes()[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_GT(changes, 0) << "heavy churn produced no change in 60 slots";
  const ExtendedConflictGraph lifted(dyn.network(), 3);
  expect_same_structure(dyn.ecg().graph(), lifted.graph());
}

TEST(DynamicNetworkTest, ModelsAreDeterministic) {
  Rng rng(17);
  ConflictGraph base = random_geometric_avg_degree(18, 5.0, rng);
  for (const char* kind : {"churn", "waypoint", "primary_user"}) {
    SCOPED_TRACE(kind);
    auto a = build_model(kind, ParamMap{}, base, 4242);
    auto b = build_model(kind, ParamMap{}, base, 4242);
    for (std::int64_t t = 2; t <= 40; ++t) {
      const GraphDelta& da = a->step(t);
      const GraphDelta& db = b->step(t);
      EXPECT_EQ(da.added_edges, db.added_edges);
      EXPECT_EQ(da.removed_edges, db.removed_edges);
      EXPECT_EQ(da.deactivated, db.deactivated);
      EXPECT_EQ(da.activated, db.activated);
    }
  }
}

TEST(DynamicNetworkTest, AdvanceMustBeCalledInOrder) {
  Rng rng(19);
  ConflictGraph base = random_geometric_avg_degree(10, 4.0, rng);
  DynamicNetwork dyn(base, 2, build_model("churn", ParamMap{}, base, 1));
  dyn.advance(2);
  EXPECT_THROW(dyn.advance(4), std::logic_error);
}

TEST(DynamicsRegistry, CompleteAndActionable) {
  const std::vector<std::string> names =
      dynamics::dynamics_registry().names();
  EXPECT_EQ(names, (std::vector<std::string>{"static", "churn", "waypoint",
                                             "primary_user"}));
  Rng rng(3);
  ConflictGraph base = random_geometric_avg_degree(8, 3.0, rng);
  for (const auto& kind : names) {
    SCOPED_TRACE(kind);
    auto model = build_model(kind, ParamMap{}, base, 5);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), kind);
  }
  // Unknown kind / key errors name the offender and the valid options.
  try {
    build_model("churm", ParamMap{}, base, 5);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("churm"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("waypoint"), std::string::npos);
  }
  try {
    ParamMap bad;
    bad.set("leave_prb", "0.1");
    build_model("churn", bad, base, 5);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("leave_prb"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("leave_prob"), std::string::npos);
  }
  // Geometry-dependent models reject position-free topologies, telling the
  // user which topologies work.
  const ConflictGraph no_positions = complete_network(6);
  try {
    build_model("waypoint", ParamMap{}, no_positions, 5);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("positions"), std::string::npos);
  }
}

// ----------------------------------------------- scenario format & runner

const char* kChurnScenario = R"(name = churn-test
[topology]
kind = geometric
nodes = 14
avg_degree = 4.5
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[dynamics]
kind = churn
leave_prob = 0.1
join_prob = 0.3
[run]
slots = 60
seed = 5
series_stride = 10
)";

TEST(DynamicsScenario, ParseSerializeOverrideRoundTrip) {
  Scenario s = scenario::parse_scenario(kChurnScenario);
  EXPECT_TRUE(scenario::is_dynamic(s));
  EXPECT_EQ(s.dynamics.model.kind, "churn");
  EXPECT_DOUBLE_EQ(s.dynamics.model.params.get_double("leave_prob", 0), 0.1);
  EXPECT_TRUE(s.dynamics.incremental);
  EXPECT_FALSE(s.dynamics.batch);  // off by default (staleness trade-off)
  scenario::apply_override(s, "dynamics.incremental=false");
  scenario::apply_override(s, "dynamics.batch=true");
  scenario::apply_override(s, "dynamics.seed=77");
  scenario::apply_override(s, "net.drop_prob=0.25");
  EXPECT_FALSE(s.dynamics.incremental);
  EXPECT_TRUE(s.dynamics.batch);
  EXPECT_EQ(s.dynamics.seed, 77u);
  EXPECT_DOUBLE_EQ(s.net.faults.drop_prob, 0.25);
  const Scenario back =
      scenario::parse_scenario(scenario::serialize_scenario(s));
  EXPECT_EQ(s, back);
  // Defaults are static and not dynamic.
  EXPECT_FALSE(scenario::is_dynamic(Scenario{}));
  // Unknown [net] keys are rejected with the valid list.
  try {
    Scenario bad;
    scenario::apply_override(bad, "net.dorp_prob=0.1");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("drop_prob"), std::string::npos);
  }
  // Out-of-range drop_prob fails validation with the key name.
  Scenario range = scenario::parse_scenario(kChurnScenario);
  scenario::apply_override(range, "net.drop_prob=1.5");
  EXPECT_THROW(scenario::validate_fields(range), ScenarioError);
}

TEST(DynamicsScenario, DropProbReachesNetConfig) {
  Scenario s = scenario::parse_scenario(kChurnScenario);
  scenario::apply_override(s, "net.drop_prob=0.125");
  scenario::apply_override(s, "net.drop_seed=9");
  const net::NetConfig cfg = scenario::to_net_config(s, 14);
  EXPECT_DOUBLE_EQ(cfg.faults.drop_prob, 0.125);
  EXPECT_EQ(cfg.faults.seed, 9u);
}

TEST(DynamicsScenario, RunsAreDeterministicAndReplicable) {
  const Scenario s = scenario::parse_scenario(kChurnScenario);
  const ScenarioRunner runner(s);
  const SimulationResult a = runner.run();
  const SimulationResult b = runner.run();
  EXPECT_EQ(a.last_strategy, b.last_strategy);
  EXPECT_EQ(a.total_observed, b.total_observed);
  EXPECT_EQ(a.final_means, b.final_means);

  Scenario rs = s;
  scenario::apply_override(rs, "replication.replications=3");
  scenario::apply_override(rs, "run.slots=30");
  const ScenarioRunner rrunner(rs);
  const ReplicationReport r1 = rrunner.replicate();
  const ReplicationReport r2 = rrunner.replicate();
  ASSERT_EQ(r1.metrics.size(), r2.metrics.size());
  for (std::size_t i = 0; i < r1.metrics.size(); ++i)
    EXPECT_EQ(r1.metrics[i].summary.mean, r2.metrics[i].summary.mean);
}

TEST(DynamicsScenario, DynamicsSeedPinsTheTrajectory) {
  Scenario s = scenario::parse_scenario(kChurnScenario);
  EXPECT_NE(scenario::dynamics_seed_of(s, 1), scenario::dynamics_seed_of(s, 2));
  scenario::apply_override(s, "dynamics.seed=123");
  EXPECT_EQ(scenario::dynamics_seed_of(s, 1), 123u);
  EXPECT_EQ(scenario::dynamics_seed_of(s, 2), 123u);
}

TEST(DynamicsScenario, NetRuntimeSurvivesChurnWithoutConflicts) {
  Scenario s = scenario::parse_scenario(kChurnScenario);
  scenario::apply_override(s, "run.slots=40");
  const ScenarioRunner runner(s);
  const scenario::NetRunSummary net = runner.run_net();
  EXPECT_EQ(net.rounds, 40);
  // On a reliable control channel the protocol's independence guarantee
  // must survive churn (scoped rediscovery keeps every table consistent).
  EXPECT_EQ(net.conflicts, 0);
}

TEST(DynamicsScenario, NetMatchesLockstepUnderDynamics) {
  // The strongest cross-engine claim: message-level protocol decisions track
  // the lockstep engine even while the topology moves, because rediscovery
  // hellos carry statistics and both engines see identical graphs + masks.
  for (const char* kind : {"churn", "waypoint"}) {
    SCOPED_TRACE(kind);
    Scenario s = scenario::parse_scenario(kChurnScenario);
    s.dynamics.model.params = ParamMap{};  // drop the churn-specific keys
    scenario::apply_override(s, std::string("dynamics.kind=") + kind);
    if (std::string(kind) == "churn")
      scenario::apply_override(s, "dynamics.leave_prob=0.1");
    else
      scenario::apply_override(s, "dynamics.speed=0.3");
    scenario::apply_override(s, "run.slots=25");
    const ScenarioRunner runner(s);
    const scenario::NetRunSummary net = runner.run_net();
    const SimulationResult sim = runner.run();
    EXPECT_EQ(net.last_strategy, sim.last_strategy);
    EXPECT_EQ(net.conflicts, 0);
  }
}

TEST(DynamicsScenario, MakeSchemeMatchesFirstLockstepDecision) {
  // The step-API satellite: a scenario-built ChannelAccessScheme takes the
  // same first decision as the scenario's own simulator (same graph, same
  // policy, same solver spec, empty learning state on both sides).
  Scenario s = scenario::parse_scenario(kChurnScenario);
  scenario::apply_override(s, "dynamics.kind=static");
  scenario::apply_override(s, "run.slots=1");
  const ScenarioRunner runner(s);
  ChannelAccessScheme scheme = runner.make_scheme();
  scheme.decide();
  const SimulationResult sim = runner.run();
  EXPECT_EQ(scheme.current_vertices(), sim.last_strategy);

  // Dynamic scenarios refuse the static step API, pointing at run().
  Scenario dyn = scenario::parse_scenario(kChurnScenario);
  const ScenarioRunner drunner(dyn);
  try {
    drunner.make_scheme();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("run()"), std::string::npos);
  }
}

}  // namespace
}  // namespace mhca
