// Golden fingerprints of the message-level runtime (`mhca_sim run --net`).
//
// Every checked-in scenario that runs in-process under --net is driven for a
// short horizon and its wire-level identity is pinned: the channel's
// order-sensitive trace_hash (every flood and every delivery), the
// decision_digest (every round's winner set) and the billed transmissions
// and encoded bytes. Any change to what the protocol sends, to whom, in what
// order, or to what it decides moves at least one of these values, so a
// pure performance change of src/net must leave the table untouched.
//
// The values predate the flat agent tables (src/net/README.md). A
// deliberate protocol or wire change re-captures them by running this test
// and copying the "actual" values it prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace mhca {
namespace {

using scenario::Scenario;
using scenario::ScenarioRunner;

/// Rounds per scenario: long enough that every phase (discovery, weight
/// broadcast, elections, determinations, churn rediscovery or view-sync
/// membership) has run, short enough for the Debug and sanitizer jobs.
constexpr int kSlots = 12;

struct Golden {
  std::uint64_t trace_hash;
  std::uint64_t decision_digest;
  std::int64_t messages;
  std::int64_t bytes_on_wire;
};

// Captured at run.slots = kSlots.
const std::map<std::string, Golden>& golden() {
  static const std::map<std::string, Golden> table = {
      {"adversarial_drift_eps",
       {0xae9809d01884fc1dULL, 0x95949e8ab5199cb8ULL, 34740, 2496276}},
      {"bernoulli_thompson",
       {0xdda0f32425e812c0ULL, 0x4ec849dc5141b668ULL, 36200, 2441187}},
      {"centralized_exact_small",
       {0x6a1c7b012cc7cf92ULL, 0x69b5809a1b38fd38ULL, 5724, 386640}},
      {"churn_mesh_cab",
       {0xc98bbb97620dba99ULL, 0xccd9cf3b630191bfULL, 100822, 8296881}},
      {"fig5_worstcase_linear",
       {0x703fb79ddcc109c6ULL, 0x55e6ecf60a71812bULL, 7159, 357788}},
      {"llr_baseline",
       {0x19b920c1c83f1717ULL, 0x8a51d140e6a301fcULL, 11741, 691829}},
      {"lossy_churn_faulty",
       {0x0ce232958de83e5cULL, 0xeba8b101a3330fb2ULL, 171069, 14361558}},
      {"mesh_markov_ucb1",
       {0x4b0e44cb523f0d48ULL, 0x98f627b8f616f7a7ULL, 86834, 6512534}},
      {"primary_user_dynamics_llr",
       {0x7c9b49352012dd11ULL, 0xdf9d766fae918cc4ULL, 60167, 5048247}},
      {"quickstart",
       {0xf7a148ff7e06fcc4ULL, 0xb922b2d1f375677cULL, 62961, 5386109}},
      {"reorder_mobility_faulty",
       {0x7de4d166051c7886ULL, 0x28d421273b44f3ddULL, 78160, 6608700}},
      {"singlehop_trace_greedy",
       {0xb27499f17b44051aULL, 0x8a0cd799c1d42127ULL, 4320, 381120}},
      {"udp_two_shards",
       {0xc163a54eb659fe96ULL, 0x1fe3ee6097ffa96aULL, 12165, 899010}},
      {"waypoint_mobility_thompson",
       {0xfc56c06988202a01ULL, 0x4ced9d1f13dd2becULL, 144753, 14256528}},
  };
  return table;
}

/// Scenarios `mhca_sim run --net` does not run as written, and why.
const std::set<std::string>& not_net_runnable() {
  static const std::set<std::string> names = {
      "churn_batched_updates",   // run.update_period = 8
      "erdos_renyi_replicated",  // replication.replications > 0
      "r3_ablation",             // run.update_period = 10
  };
  return names;
}

std::vector<std::filesystem::path> scenario_files() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(MHCA_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(NetFingerprint, EveryNetScenarioMatchesItsGoldenValues) {
  int checked = 0;
  for (const auto& path : scenario_files()) {
    const std::string name = path.stem().string();
    if (not_net_runnable().count(name)) continue;
    SCOPED_TRACE(name);
    Scenario s = scenario::parse_scenario_file(path.string());
    scenario::apply_override(s, "run.slots=" + std::to_string(kSlots));
    // The two-process UDP scenario runs in-process, exactly as CI compares
    // it against its sharded run.
    scenario::apply_override(s, "net.transport=inprocess");
    scenario::apply_override(s, "net.shard=1");
    const scenario::NetRunSummary n = ScenarioRunner(s).run_net();
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, %" PRId64 ", %" PRId64 "}},",
                  name.c_str(), n.trace_hash, n.decision_digest, n.messages,
                  n.bytes_on_wire);
    const auto it = golden().find(name);
    if (it == golden().end()) {
      ADD_FAILURE() << "no golden values for " << name
                    << "; actual: " << actual;
      continue;
    }
    const Golden& g = it->second;
    EXPECT_EQ(n.trace_hash, g.trace_hash) << "actual: " << actual;
    EXPECT_EQ(n.decision_digest, g.decision_digest) << "actual: " << actual;
    EXPECT_EQ(n.messages, g.messages) << "actual: " << actual;
    EXPECT_EQ(n.bytes_on_wire, g.bytes_on_wire) << "actual: " << actual;
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<int>(golden().size()))
      << "a pinned scenario is gone from examples/scenarios";
}

TEST(NetFingerprint, ExclusionsStillHold) {
  // The exclusions above must stay true: an excluded scenario that starts
  // running under --net belongs in the golden table instead.
  for (const auto& path : scenario_files()) {
    const std::string name = path.stem().string();
    if (!not_net_runnable().count(name)) continue;
    SCOPED_TRACE(name);
    const Scenario s = scenario::parse_scenario_file(path.string());
    EXPECT_TRUE(s.run.update_period != 1 || s.replication.replications > 0);
  }
}

}  // namespace
}  // namespace mhca
