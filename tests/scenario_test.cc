// Scenario-layer tests: text-format round-trip, actionable error messages,
// registry completeness (every component constructible by string key), the
// single-source-of-truth solver defaults, and — the core redesign claim —
// byte-identical results between ScenarioRunner and the legacy hand-wired
// paths (direct Simulator, the step API, net runtime).
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gaussian.h"
#include "core/channel_access.h"
#include "graph/generators.h"
#include "mwis/mwis.h"
#include "net/runtime.h"
#include "scenario/registries.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mhca {
namespace {

using scenario::ParamMap;
using scenario::Scenario;
using scenario::ScenarioError;
using scenario::ScenarioRunner;

const char* kFullScenario = R"(# every section exercised
name = full-example

[topology]
kind = geometric
nodes = 16
avg_degree = 5.0

[channel]
kind = gaussian
channels = 4
std_frac = 0.1

[policy]
kind = llr
L = 9

[dynamics]
kind = churn
incremental = false
seed = 21
leave_prob = 0.05

[net]
drop_prob = 0.1
drop_seed = 3
dup_prob = 0.05
reorder_prob = 0.2
delay_slots_max = 2
membership = view_sync
hello_timeout_slots = 6
hello_max_retries = 2
backoff_base = 3

[solver]
kind = distributed
r = 3
D = 6
local_solver = greedy
node_cap = 1234
parallelism = 2
epsilon = 0.5

[run]
slots = 150
update_period = 5
seed = 99
series_stride = 3
count_messages = true

[replication]
replications = 4
seed0 = 7
parallelism = 1

[timing]
ta_ms = 1000
td_ms = 500
tb_ms = 50
tl_ms = 25
decision_mini_rounds = 4
)";

TEST(ScenarioFormat, ParseReadsEveryField) {
  const Scenario s = scenario::parse_scenario(kFullScenario);
  EXPECT_EQ(s.name, "full-example");
  EXPECT_EQ(s.topology.kind, "geometric");
  EXPECT_EQ(s.topology.params.get_int("nodes", 0), 16);
  EXPECT_EQ(s.channel.kind, "gaussian");
  EXPECT_EQ(s.num_channels, 4);
  EXPECT_DOUBLE_EQ(s.channel.params.get_double("std_frac", 0.0), 0.1);
  EXPECT_EQ(s.policy.kind, "llr");
  EXPECT_EQ(s.policy.params.get_int("L", 0), 9);
  EXPECT_EQ(s.dynamics.model.kind, "churn");
  EXPECT_FALSE(s.dynamics.incremental);
  EXPECT_EQ(s.dynamics.seed, 21u);
  EXPECT_DOUBLE_EQ(s.dynamics.model.params.get_double("leave_prob", 0), 0.05);
  EXPECT_DOUBLE_EQ(s.net.faults.drop_prob, 0.1);
  EXPECT_EQ(s.net.faults.seed, 3u);
  EXPECT_DOUBLE_EQ(s.net.faults.dup_prob, 0.05);
  EXPECT_DOUBLE_EQ(s.net.faults.reorder_prob, 0.2);
  EXPECT_EQ(s.net.faults.delay_slots_max, 2);
  EXPECT_EQ(s.net.membership, "view_sync");
  EXPECT_EQ(s.net.liveness.hello_timeout_slots, 6);
  EXPECT_EQ(s.net.liveness.hello_max_retries, 2);
  EXPECT_EQ(s.net.liveness.backoff_base, 3);
  EXPECT_EQ(s.solver.kind, SolverKind::kDistributedPtas);
  EXPECT_EQ(s.solver.r, 3);
  EXPECT_EQ(s.solver.D, 6);
  EXPECT_EQ(s.solver.local_solver, LocalSolverKind::kGreedy);
  EXPECT_EQ(s.solver.node_cap, 1234);
  EXPECT_EQ(s.solver.parallelism, 2);
  EXPECT_DOUBLE_EQ(s.solver.epsilon, 0.5);
  EXPECT_EQ(s.run.slots, 150);
  EXPECT_EQ(s.run.update_period, 5);
  EXPECT_EQ(s.run.seed, 99u);
  EXPECT_EQ(s.run.series_stride, 3);
  EXPECT_TRUE(s.run.count_messages);
  EXPECT_EQ(s.replication.replications, 4);
  EXPECT_EQ(s.replication.seed0, 7u);
  EXPECT_EQ(s.replication.parallelism, 1);
  EXPECT_DOUBLE_EQ(s.timing.ta_ms, 1000.0);
  EXPECT_EQ(s.timing.decision_mini_rounds, 4);
}

TEST(ScenarioFormat, RoundTripIsExact) {
  const Scenario s1 = scenario::parse_scenario(kFullScenario);
  const std::string text = scenario::serialize_scenario(s1);
  const Scenario s2 = scenario::parse_scenario(text);
  EXPECT_EQ(s1, s2);
  // Serialization is canonical: a second round trip is textually stable.
  EXPECT_EQ(text, scenario::serialize_scenario(s2));
}

TEST(ScenarioFormat, DefaultsRoundTrip) {
  const Scenario s1;
  const Scenario s2 =
      scenario::parse_scenario(scenario::serialize_scenario(s1));
  EXPECT_EQ(s1, s2);
}

TEST(ScenarioFormat, CanonicalDefaultTextIsPinned) {
  // Key order, section order and number formatting of the canonical form:
  // `mhca_sim print` writes exactly this for a scenario that sets nothing.
  EXPECT_EQ(scenario::serialize_scenario(Scenario{}),
            "name = scenario\n"
            "\n[topology]\nkind = geometric\n"
            "\n[channel]\nkind = gaussian\nchannels = 8\n"
            "\n[policy]\nkind = cab\n"
            "\n[dynamics]\nkind = static\nincremental = true\nbatch = false\n"
            "seed = 0\n"
            "\n[solver]\nkind = distributed\nr = 2\nD = 4\n"
            "local_solver = exact\nnode_cap = 2000\nparallelism = 1\n"
            "epsilon = 1\n"
            "\n[run]\nslots = 1000\nupdate_period = 1\nseed = 1\n"
            "series_stride = 0\ncount_messages = false\n"
            "\n[net]\ndrop_prob = 0\ndrop_seed = 0\ndup_prob = 0\n"
            "reorder_prob = 0\ndelay_slots_max = 0\nmembership = omniscient\n"
            "hello_timeout_slots = 4\nhello_max_retries = 3\n"
            "backoff_base = 2\ntransport = inprocess\nmtu = 1400\nshard = 1\n"
            "\n[replication]\nreplications = 0\nseed0 = 1\nparallelism = 0\n"
            // Doubles print at the shortest precision that parses back
            // exactly, which for these is scientific notation.
            "\n[timing]\nta_ms = 2e+03\ntd_ms = 1e+03\ntb_ms = 1e+02\n"
            "tl_ms = 5e+01\ndecision_mini_rounds = 4\n"
            "\n[obs]\ntrace = \nmetrics = \n");
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every checked-in scenario text: the examples, and the perfbench
/// workloads with {seed} filled in as perfbench/run.py does.
std::vector<std::pair<std::string, std::string>> checked_in_scenarios() {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* sub : {"examples/scenarios", "perfbench/workloads"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(MHCA_SOURCE_DIR) / sub)) {
      if (entry.path().extension() != ".ini") continue;
      std::string ini = read_text(entry.path());
      for (std::size_t at = ini.find("{seed}"); at != std::string::npos;
           at = ini.find("{seed}", at))
        ini.replace(at, 6, "1");
      out.emplace_back(entry.path().filename().string(), std::move(ini));
    }
  }
  return out;
}

TEST(ScenarioFormat, EveryCheckedInScenarioRoundTripsToAFixedPoint) {
  const auto scenarios = checked_in_scenarios();
  EXPECT_GE(scenarios.size(), 20u) << "scenario set shrank unexpectedly";
  for (const auto& [file, ini] : scenarios) {
    SCOPED_TRACE(file);
    const Scenario s = scenario::parse_scenario(ini);
    const std::string text = scenario::serialize_scenario(s);
    const Scenario back = scenario::parse_scenario(text);
    EXPECT_EQ(back, s);
    EXPECT_EQ(scenario::serialize_scenario(back), text);
  }
}

TEST(ScenarioFormat, ReadmeExampleParsesAndValidates) {
  // The annotated example in src/scenario/README.md is the format's
  // reference; it must be a scenario the parser accepts as written.
  const std::string readme = read_text(
      std::filesystem::path(MHCA_SOURCE_DIR) / "src" / "scenario" /
      "README.md");
  const std::string open = "```ini\n";
  const std::size_t begin = readme.find(open);
  ASSERT_NE(begin, std::string::npos) << "README has no ```ini block";
  const std::size_t end = readme.find("```", begin + open.size());
  ASSERT_NE(end, std::string::npos);
  const Scenario s = scenario::parse_scenario(
      readme.substr(begin + open.size(), end - begin - open.size()));
  EXPECT_EQ(s.name, "my-experiment");
  EXPECT_EQ(s.num_channels, 8);
  scenario::validate(s);
}

// ----------------------------------------------------- actionable errors

testing::AssertionResult message_contains(const std::string& haystack,
                                          const std::string& needle) {
  if (haystack.find(needle) != std::string::npos)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "message '" << haystack << "' does not mention '" << needle << "'";
}

template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const ScenarioError& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioErrors, UnknownRegistryNameListsValidOnes) {
  Scenario s = scenario::parse_scenario(kFullScenario);
  s.topology.kind = "gemoetric";  // typo
  const std::string msg = error_message([&] { scenario::validate(s); });
  EXPECT_TRUE(message_contains(msg, "gemoetric"));
  EXPECT_TRUE(message_contains(msg, "geometric"));
  EXPECT_TRUE(message_contains(msg, "erdos_renyi"));
}

TEST(ScenarioErrors, UnknownParamKeyNamesKeyAndAccepted) {
  Scenario s = scenario::parse_scenario(kFullScenario);
  s.channel.params.set("stdfrac", "0.2");  // typo for std_frac
  const std::string msg = error_message([&] { scenario::validate(s); });
  EXPECT_TRUE(message_contains(msg, "stdfrac"));
  EXPECT_TRUE(message_contains(msg, "std_frac"));
  EXPECT_TRUE(message_contains(msg, "gaussian"));
}

TEST(ScenarioErrors, UnknownFixedSectionKeyListsValidKeys) {
  const std::string msg = error_message(
      [] { scenario::parse_scenario("[solver]\nrr = 3\n"); });
  EXPECT_TRUE(message_contains(msg, "rr"));
  EXPECT_TRUE(message_contains(msg, "node_cap"));
  EXPECT_TRUE(message_contains(msg, "line 2"));
}

TEST(ScenarioErrors, UnknownSectionListsValidSections) {
  const std::string msg = error_message(
      [] { scenario::parse_scenario("[chanel]\nkind = gaussian\n"); });
  EXPECT_TRUE(message_contains(msg, "chanel"));
  EXPECT_TRUE(message_contains(msg, "channel"));
  EXPECT_TRUE(message_contains(msg, "replication"));
}

TEST(ScenarioErrors, MalformedValueNamesKeyAndValue) {
  const std::string msg = error_message(
      [] { scenario::parse_scenario("[run]\nslots = soon\n"); });
  EXPECT_TRUE(message_contains(msg, "soon"));
  EXPECT_TRUE(message_contains(msg, "run.slots"));
}

TEST(ScenarioErrors, RetiredMemoizedCoversKeyAcceptsOnlyFalse) {
  // Memoized clique covers were removed; the key survives only because the
  // pinned perfbench workloads set it to its old default.
  const Scenario s =
      scenario::parse_scenario("[solver]\nmemoized_covers = false\n");
  EXPECT_EQ(s.solver, Scenario{}.solver);
  const std::string msg = error_message(
      [] { scenario::parse_scenario("[solver]\nmemoized_covers = true\n"); });
  EXPECT_TRUE(message_contains(msg, "solver.memoized_covers"));
  EXPECT_TRUE(message_contains(msg, "removed"));
  EXPECT_TRUE(message_contains(msg, "line 2"));
}

TEST(ScenarioErrors, MissingRequiredKeyCaughtAtValidateTime) {
  // `mhca_sim print` (validate-only) must reject what `run` would reject.
  Scenario s = scenario::parse_scenario(kFullScenario);
  s.topology.kind = "grid";
  s.topology.params = ParamMap{};  // no rows/cols
  const std::string msg = error_message([&] { scenario::validate(s); });
  EXPECT_TRUE(message_contains(msg, "rows"));
  EXPECT_TRUE(message_contains(msg, "grid"));
}

TEST(ScenarioErrors, DisconnectedGeometricTopologyNamesTheScenarioFix) {
  // Far below the connectivity threshold every sample is disconnected; more
  // nodes would not help, so the error must name the scenario key that
  // does. (The failure surfaces while the runner builds the topology.)
  Scenario s = scenario::parse_scenario(kFullScenario);
  s.topology.params = ParamMap{};
  s.topology.params.set("nodes", "300");
  s.topology.params.set("side", "100");
  s.topology.params.set("radius", "1");
  s.topology.params.set("max_attempts", "3");
  std::string msg;
  try {
    const ScenarioRunner runner(s);
  } catch (const std::exception& e) {
    msg = e.what();
  }
  EXPECT_TRUE(message_contains(msg, "topology.force_connected = false"));
  EXPECT_TRUE(message_contains(msg, "3 attempts"));
  EXPECT_TRUE(message_contains(msg, "n = 300"));
  s.topology.params.set("force_connected", "false");
  EXPECT_NO_THROW(ScenarioRunner{s});
}

TEST(ScenarioErrors, OutOfRangeIntegersAreRejectedNotTruncated) {
  Scenario s;
  // Would truncate to 2 through a bare static_cast<int>.
  const std::string msg = error_message(
      [&] { scenario::apply_override(s, "solver.r=4294967298"); });
  EXPECT_TRUE(message_contains(msg, "solver.r"));
  EXPECT_TRUE(message_contains(msg, "4294967298"));
  EXPECT_EQ(s.solver.r, 2) << "failed override must not mutate the scenario";
  // Beyond int64: rejected at parse, not saturated.
  EXPECT_THROW(
      scenario::apply_override(s, "run.slots=99999999999999999999999"),
      ScenarioError);
}

TEST(ScenarioErrors, NetProbabilityBoundsNameOffendingValue) {
  Scenario s;
  scenario::apply_override(s, "net.drop_prob=1.0");
  const std::string msg = error_message([&] { scenario::validate(s); });
  EXPECT_TRUE(message_contains(msg, "net.drop_prob"));
  EXPECT_TRUE(message_contains(msg, "[0, 1)"));
  EXPECT_TRUE(message_contains(msg, "1"));
  for (const char* nan : {"nan", "-nan"}) {
    SCOPED_TRACE(nan);
    Scenario t;
    scenario::apply_override(t, std::string("net.dup_prob=") + nan);
    const std::string nan_msg =
        error_message([&] { scenario::validate(t); });
    EXPECT_TRUE(message_contains(nan_msg, "net.dup_prob"));
    EXPECT_TRUE(message_contains(nan_msg, "nan"));
  }
}

TEST(ScenarioErrors, ReorderAndDelayRequireViewSyncMembership) {
  Scenario s;
  scenario::apply_override(s, "net.reorder_prob=0.2");
  const std::string msg = error_message([&] { scenario::validate(s); });
  EXPECT_TRUE(message_contains(msg, "net.reorder_prob"));
  EXPECT_TRUE(message_contains(msg, "view_sync"));
  scenario::apply_override(s, "net.membership=view_sync");
  // validate_fields (not full validate): the default Scenario names no
  // topology size, which is not what this test is about.
  EXPECT_NO_THROW(scenario::validate_fields(s));
}

TEST(ScenarioErrors, BadMembershipModeListsValidKeys) {
  Scenario s;
  const std::string msg = error_message(
      [&] { scenario::apply_override(s, "net.membership=viewsync"); });
  EXPECT_TRUE(message_contains(msg, "viewsync"));
  EXPECT_TRUE(message_contains(msg, "view_sync"));
  EXPECT_TRUE(message_contains(msg, "omniscient"));
}

TEST(ScenarioErrors, EnumKeyErrorsListEveryTableEntry) {
  // Each message is built from its mapping table; pin the exact text.
  EXPECT_EQ(error_message([] { scenario::policy_kind_from_string("x"); }),
            "policy 'x' has no built-in PolicyKind; built-ins: cab, llr, "
            "ucb1, greedy, eps, thompson");
  EXPECT_EQ(
      error_message([] { scenario::membership_mode_from_string("x"); }),
      "unknown net.membership 'x'; valid: omniscient, view_sync");
  EXPECT_EQ(
      error_message([] { scenario::transport_kind_from_string("x"); }),
      "unknown net.transport 'x'; valid: inprocess, udp");
  EXPECT_EQ(scenario::policy_kind_from_string("eps"), PolicyKind::kEpsGreedy);
  EXPECT_EQ(scenario::membership_mode_from_string("view_sync"),
            net::MembershipMode::kViewSync);
  EXPECT_EQ(scenario::transport_kind_from_string("udp"),
            scenario::TransportKind::kUdp);
}

TEST(ScenarioErrors, BadOverrideSyntax) {
  Scenario s;
  EXPECT_THROW(scenario::apply_override(s, "policy.kind"), ScenarioError);
  EXPECT_THROW(scenario::apply_override(s, "nosuch.key=1"), ScenarioError);
}

TEST(ScenarioOverrides, RouteLikeTheParser) {
  Scenario s;
  scenario::apply_override(s, "policy.kind=thompson");
  scenario::apply_override(s, "policy.seed=77");
  scenario::apply_override(s, "solver.r=3");
  scenario::apply_override(s, "run.slots=42");
  scenario::apply_override(s, "name=grid-cell");
  EXPECT_EQ(s.policy.kind, "thompson");
  EXPECT_EQ(s.policy.params.get_uint("seed", 0), 77u);
  EXPECT_EQ(s.solver.r, 3);
  EXPECT_EQ(s.run.slots, 42);
  EXPECT_EQ(s.name, "grid-cell");
}

// ------------------------------------------- solver-default single source

TEST(SolverSpec, DefaultsPinnedToOneConstant) {
  // Compile-time twins live in scenario.cc; these document the contract.
  EXPECT_EQ(scenario::SolverSpec{}.node_cap, kDefaultBnbNodeCap);
  EXPECT_EQ(DistributedPtasConfig{}.bnb_node_cap, kDefaultBnbNodeCap);
  EXPECT_EQ(SimulationConfig{}.bnb_node_cap, kDefaultBnbNodeCap);
  EXPECT_EQ(net::NetConfig{}.bnb_node_cap, kDefaultBnbNodeCap);
}

TEST(SolverSpec, EngineConfigMapsEveryKnob) {
  Scenario s;
  s.solver.r = 3;
  s.solver.D = 7;
  s.solver.local_solver = LocalSolverKind::kGreedy;
  s.solver.node_cap = 555;
  s.solver.parallelism = 4;
  s.run.count_messages = true;
  const DistributedPtasConfig cfg =
      to_engine_config(scenario::to_simulation_config(s));
  EXPECT_EQ(cfg.r, 3);
  EXPECT_EQ(cfg.max_mini_rounds, 7);
  EXPECT_EQ(cfg.local_solver, LocalSolverKind::kGreedy);
  EXPECT_EQ(cfg.bnb_node_cap, 555);
  EXPECT_EQ(cfg.local_solve_parallelism, 4);
  EXPECT_TRUE(cfg.count_messages);
}

// ------------------------------------------------- registry completeness

TEST(Registries, EveryBuiltinConstructibleByStringKey) {
  // Topologies: every registered generator builds from minimal params.
  const std::vector<std::pair<std::string, std::string>> topo_params{
      {"geometric", "nodes"}, {"linear", "nodes"},      {"grid", "rows"},
      {"complete", "nodes"},  {"erdos_renyi", "nodes"},
  };
  const std::vector<std::string> topo_names =
      scenario::topology_registry().names();
  EXPECT_EQ(topo_names.size(), topo_params.size());
  for (const auto& [kind, size_key] : topo_params) {
    SCOPED_TRACE(kind);
    ParamMap p;
    p.set(size_key, "6");
    if (kind == "grid") p.set("cols", "3");
    Rng rng(1);
    const ConflictGraph g = scenario::topology_registry().create(kind, p, rng);
    EXPECT_GE(g.num_nodes(), 6);
  }

  // Channel models: all five build through the registry.
  const std::vector<std::string> channel_names =
      scenario::channel_registry().names();
  EXPECT_EQ(channel_names.size(), 5u);
  for (const auto& kind : channel_names) {
    SCOPED_TRACE(kind);
    Rng rng(2);
    const auto model = scenario::channel_registry().create(
        kind, ParamMap{}, scenario::ChannelBuildContext{4, 3, 50}, rng);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->num_nodes(), 4);
    EXPECT_EQ(model->num_channels(), 3);
    const double x = model->sample(0, 0, 1);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }

  // Policies: all six build through the registry.
  const std::vector<std::string> policy_names =
      scenario::policy_registry().names();
  EXPECT_EQ(policy_names.size(), 6u);
  for (const auto& kind : policy_names) {
    SCOPED_TRACE(kind);
    const auto policy = scenario::policy_registry().create(
        kind, ParamMap{}, scenario::PolicyBuildContext{10});
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
  }
}

TEST(Registries, TraceForwardsSourceParams) {
  ParamMap p;
  p.set("source", "bernoulli");
  p.set("record_slots", "16");
  p.set("p_lo", "0.5");
  Rng rng(3);
  const auto model = scenario::channel_registry().create(
      "trace", p, scenario::ChannelBuildContext{3, 2, 100}, rng);
  ASSERT_NE(model, nullptr);
  // A bad source param is caught by the *source* model's validation.
  ParamMap bad = p;
  bad.set("std_frac", "0.2");  // gaussian key, not a bernoulli key
  Rng rng2(3);
  EXPECT_THROW(scenario::channel_registry().create(
                   "trace", bad, scenario::ChannelBuildContext{3, 2, 100},
                   rng2),
               ScenarioError);
}

// ------------------------------------------------ determinism vs legacy

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.cumavg_effective, b.cumavg_effective);
  EXPECT_EQ(a.cumavg_estimated, b.cumavg_estimated);
  EXPECT_EQ(a.cumavg_observed, b.cumavg_observed);
  EXPECT_EQ(a.cum_expected, b.cum_expected);
  EXPECT_EQ(a.total_slots, b.total_slots);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.total_observed, b.total_observed);
  EXPECT_EQ(a.total_effective, b.total_effective);
  EXPECT_EQ(a.total_expected, b.total_expected);
  EXPECT_EQ(a.avg_strategy_size, b.avg_strategy_size);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_mini_timeslots, b.total_mini_timeslots);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.final_means, b.final_means);
  EXPECT_EQ(a.final_counts, b.final_counts);
  EXPECT_EQ(a.last_strategy, b.last_strategy);
}

const char* kDeterminismScenario = R"(name = determinism
[topology]
kind = geometric
nodes = 14
avg_degree = 4.5
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[run]
slots = 120
seed = 5
series_stride = 10
)";

TEST(ScenarioRunnerDeterminism, ByteIdenticalToHandWiredSimulator) {
  const Scenario s = scenario::parse_scenario(kDeterminismScenario);
  const SimulationResult via_scenario = ScenarioRunner(s).run();

  // The legacy path, exactly as pre-scenario code wired it by hand: one
  // master Rng drives topology then model; Simulator runs the sim config.
  Rng rng(5);
  ConflictGraph network = random_geometric_avg_degree(14, 4.5, rng);
  ExtendedConflictGraph ecg(network, 3);
  GaussianChannelModel model(14, 3, rng);
  const auto policy = make_policy(PolicyKind::kCab);
  SimulationConfig cfg;
  cfg.slots = 120;
  cfg.seed = 5;
  cfg.series_stride = 10;
  const SimulationResult legacy = Simulator(ecg, model, *policy, cfg).run();

  expect_identical(via_scenario, legacy);
}

TEST(ScenarioRunnerDeterminism, StepApiReproducesRunForEverySolverKind) {
  // Driving decide()/report() with the scenario model's samples, reported
  // in current_vertices() order, is the simulation: the same decisions, the
  // same learning state and the same observed total, for every oracle.
  for (const std::string& kind : scenario::solver_kind_keys()) {
    Scenario s = scenario::parse_scenario(kDeterminismScenario);
    scenario::apply_override(s, "solver.kind=" + kind);
    const ScenarioRunner runner(s);
    const SimulationResult sim = runner.run();

    ChannelAccessScheme scheme = runner.make_scheme();
    const ExtendedConflictGraph& ecg = scheme.extended_graph();
    const ChannelModel& model = runner.model();
    double observed = 0.0;
    for (std::int64_t t = 1; t <= s.run.slots; ++t) {
      scheme.decide();
      double slot_observed = 0.0;
      for (int v : scheme.current_vertices()) {
        const int node = ecg.master_of(v);
        const double x = model.sample(node, ecg.channel_of(v), t);
        scheme.report(node, x);
        slot_observed += x;
      }
      observed += slot_observed;
    }
    EXPECT_EQ(scheme.current_vertices(), sim.last_strategy) << kind;
    EXPECT_EQ(scheme.estimates().means(), sim.final_means) << kind;
    EXPECT_EQ(scheme.estimates().counts(), sim.final_counts) << kind;
    EXPECT_EQ(observed, sim.total_observed) << kind;
  }
}

TEST(ScenarioRunnerDeterminism, RepeatedRunsAndReplicationsAreStable) {
  Scenario s = scenario::parse_scenario(kDeterminismScenario);
  scenario::apply_override(s, "replication.replications=3");
  scenario::apply_override(s, "run.slots=60");
  const ScenarioRunner runner(s);
  expect_identical(runner.run(), runner.run());

  const ReplicationReport r1 = runner.replicate();
  const ReplicationReport r2 = runner.replicate();
  ASSERT_EQ(r1.replications, 3);
  ASSERT_EQ(r1.metrics.size(), r2.metrics.size());
  for (std::size_t i = 0; i < r1.metrics.size(); ++i) {
    EXPECT_EQ(r1.metrics[i].name, r2.metrics[i].name);
    EXPECT_EQ(r1.metrics[i].summary.mean, r2.metrics[i].summary.mean);
    EXPECT_EQ(r1.metrics[i].summary.stddev, r2.metrics[i].summary.stddev);
  }
}

TEST(ScenarioRunnerNet, ProtocolRoundsMatchLockstepDecisions) {
  Scenario s = scenario::parse_scenario(kDeterminismScenario);
  scenario::apply_override(s, "run.slots=8");
  const ScenarioRunner runner(s);
  const scenario::NetRunSummary net = runner.run_net();
  EXPECT_EQ(net.rounds, 8);
  EXPECT_EQ(net.conflicts, 0);
  EXPECT_GT(net.max_table_size, 0u);
  // Full Algorithm 2, message-level vs lockstep: identical final strategy.
  const SimulationResult sim = runner.run();
  EXPECT_EQ(net.last_strategy, sim.last_strategy);
}

// --------------------------------------------- example scenarios can't rot

TEST(ExampleScenarios, EveryFileParsesValidatesAndRuns) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(MHCA_SOURCE_DIR) / "examples" / "scenarios";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++count;
    Scenario s = scenario::parse_scenario_file(entry.path().string());
    scenario::validate(s);
    // Short smoke run: a few slots, no replication fan-out.
    scenario::apply_override(s, "run.slots=5");
    scenario::apply_override(s, "run.series_stride=1");
    scenario::apply_override(s, "replication.replications=0");
    const SimulationResult res = ScenarioRunner(s).run();
    EXPECT_EQ(res.total_slots, 5);
  }
  EXPECT_GE(count, 9) << "example scenario grid shrank unexpectedly";
}

TEST(PerfbenchWorkloads, EveryIniParsesAndValidates) {
  // The benchmark's workload files are frozen; a parser or validation change
  // that breaks them must fail here, not only in the perfbench smoke.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(MHCA_SOURCE_DIR) / "perfbench" / "workloads";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++count;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    std::string ini = text.str();
    // perfbench/run.py fills in {seed} per scenario.
    for (std::size_t at = ini.find("{seed}"); at != std::string::npos;
         at = ini.find("{seed}", at))
      ini.replace(at, 6, "1");
    // validate() runs validate_fields() and the registry checks.
    scenario::validate(scenario::parse_scenario(ini));
  }
  EXPECT_GE(count, 3) << "perfbench workload set shrank unexpectedly";
}

}  // namespace
}  // namespace mhca
