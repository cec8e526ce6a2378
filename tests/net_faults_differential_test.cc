// Differential fault-schedule suite for the control-channel fault plane and
// the view-synchronous membership layer (ctest labels: fuzz, faults).
//
// Two properties are fuzzed across 200+ seeded fault schedules, spanning
// static / churn / waypoint-mobility topologies and both local solver modes:
//
//   1. Replay — the fault plane is a pure function of (seed, schedule):
//      running the identical scenario twice must produce byte-identical
//      message traces (ControlChannel::trace_hash) and identical decisions,
//      counters and throughput. A different fault seed must diverge.
//
//   2. Conditional equivalence — the acceptance contract of the membership
//      layer: whenever views have converged
//      (tests/reference/convergence_oracle.h makes that precise), the
//      message-level runtime's next decision equals the lockstep engine
//      run over the agents' own statistics — under any fault schedule. Schedules here are windowed (quiet warmup, fault
//      burst with churn/mobility, quiet tail), swapped mid-run through
//      DistributedRuntime::set_fault_profile; after the tail the oracle
//      must report convergence and the prediction must match, winner for
//      winner, with no conflict and no abstention.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "dynamics/dynamic_network.h"
#include "graph/graph.h"
#include "net/faults.h"
#include "net/runtime.h"
#include "reference/convergence_oracle.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace mhca {
namespace {

using scenario::Scenario;
using scenario::ScenarioRunner;

struct Profile {
  double drop, dup, reorder;
  int delay;
};

// Replay grid: every fault mechanism alone, then all at once.
constexpr Profile kReplayProfiles[] = {
    {0.0, 0.0, 0.0, 0},    // fault-free baseline (view-sync still active)
    {0.10, 0.0, 0.0, 0},   // drops only
    {0.0, 0.20, 0.0, 0},   // duplicates only
    {0.0, 0.0, 0.25, 0},   // same-flood reordering
    {0.0, 0.0, 0.25, 2},   // cross-slot delay
    {0.15, 0.10, 0.10, 2}, // everything at once
};

struct ScheduleSpec {
  const char* name;
  Profile faulty;  ///< Profile of the burst window.
};

constexpr ScheduleSpec kSchedules[] = {
    {"drop-heavy", {0.25, 0.0, 0.0, 0}},
    {"dup-reorder", {0.10, 0.20, 0.20, 0}},
    {"delayed", {0.10, 0.0, 0.30, 2}},
    {"chaos", {0.20, 0.15, 0.15, 1}},
};

constexpr const char* kDynamicsKinds[] = {"static", "churn", "waypoint"};
constexpr const char* kSolverModes[] = {"exact", "greedy"};
constexpr std::uint64_t kReplaySeeds[] = {3, 7, 19};
constexpr std::uint64_t kScheduleSeeds[] = {5, 11, 23, 31};

constexpr int kReplayScheduleCount =
    static_cast<int>(std::size(kReplayProfiles) * std::size(kDynamicsKinds) *
                     std::size(kReplaySeeds) * std::size(kSolverModes));
constexpr int kWindowedScheduleCount =
    static_cast<int>(std::size(kSchedules) * std::size(kDynamicsKinds) *
                     std::size(kScheduleSeeds) * std::size(kSolverModes));

Scenario make_scenario(const std::string& dynamics, const Profile& p,
                       std::uint64_t seed, const std::string& solver,
                       int slots) {
  std::ostringstream os;
  os << "name = faults-diff\n"
     << "[topology]\nkind = geometric\nnodes = 14\navg_degree = 4.0\n"
     << "[channel]\nkind = gaussian\nchannels = 2\n"
     << "[policy]\nkind = cab\n";
  if (dynamics == "churn")
    os << "[dynamics]\nkind = churn\nleave_prob = 0.03\njoin_prob = 0.25\n"
       << "min_active = 6\n";
  else if (dynamics == "waypoint")
    os << "[dynamics]\nkind = waypoint\nspeed = 0.04\npause = 2\n";
  os << "[solver]\nkind = distributed\nr = 2\nD = 3\nlocal_solver = "
     << solver << "\n"
     << "[net]\nmembership = view_sync\n"
     << "drop_prob = " << p.drop << "\ndup_prob = " << p.dup << "\n"
     << "reorder_prob = " << p.reorder << "\n"
     << "delay_slots_max = " << p.delay << "\n"
     << "drop_seed = " << seed * 1000003 + 17 << "\n"
     << "[run]\nslots = " << slots << "\nseed = " << seed << "\n";
  return scenario::parse_scenario(os.str());
}

std::string cell_name(const std::string& dynamics, const std::string& solver,
                      std::uint64_t seed, const std::string& what) {
  return what + " dynamics=" + dynamics + " solver=" + solver +
         " seed=" + std::to_string(seed);
}

// ------------------------------------------------------------------ replay

TEST(FaultReplay, SameSeedAndScheduleIsByteIdentical) {
  for (const char* dynamics : kDynamicsKinds) {
    for (const Profile& p : kReplayProfiles) {
      for (std::uint64_t seed : kReplaySeeds) {
        for (const char* solver : kSolverModes) {
          SCOPED_TRACE(cell_name(dynamics, solver, seed,
                                 "drop=" + std::to_string(p.drop) +
                                     " dup=" + std::to_string(p.dup) +
                                     " reorder=" + std::to_string(p.reorder)));
          const Scenario s = make_scenario(dynamics, p, seed, solver, 16);
          const scenario::NetRunSummary a = ScenarioRunner(s).run_net();
          const scenario::NetRunSummary b = ScenarioRunner(s).run_net();
          EXPECT_EQ(a.trace_hash, b.trace_hash);
          EXPECT_EQ(a.last_strategy, b.last_strategy);
          EXPECT_EQ(a.conflicts, b.conflicts);
          EXPECT_EQ(a.total_observed, b.total_observed);
          EXPECT_EQ(a.messages, b.messages);
          EXPECT_EQ(a.drops, b.drops);
          EXPECT_EQ(a.duplicates, b.duplicates);
          EXPECT_EQ(a.deferred, b.deferred);
          EXPECT_EQ(a.retries, b.retries);
          EXPECT_EQ(a.timeouts, b.timeouts);
          EXPECT_EQ(a.view_changes, b.view_changes);
          EXPECT_EQ(a.stale_decisions, b.stale_decisions);
          EXPECT_EQ(a.tx_abstained, b.tx_abstained);
        }
      }
    }
  }
}

TEST(FaultReplay, DifferentFaultSeedDivergesTrace) {
  Scenario s =
      make_scenario("churn", kSchedules[3].faulty, 7, "exact", 20);
  const scenario::NetRunSummary a = ScenarioRunner(s).run_net();
  scenario::apply_override(s, "net.drop_seed=987654321");
  const scenario::NetRunSummary b = ScenarioRunner(s).run_net();
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

// ------------------------------------------------- windowed fault schedules

struct Window {
  net::FaultProfile faults;
  int rounds;
  bool advance;  ///< Apply topology dynamics during this window.
};

struct Outcome {
  std::uint64_t trace = 0;
  std::vector<std::vector<int>> strategies;  ///< One entry per round.
  reference::ConvergenceReport report;
  bool converged = false;
  std::vector<int> predicted;  ///< Lockstep engine's call for the last round.
  std::vector<int> actual;     ///< What the runtime decided.
  bool conflict = false;
  int abstained = 0;
  net::RuntimeCounters counters;
  net::ChannelStats channel;
};

std::string describe(const reference::ConvergenceReport& r) {
  std::ostringstream os;
  os << "members_match=" << r.members_match
     << " adjacency_match=" << r.adjacency_match
     << " stats_match=" << r.stats_match << " no_suspects=" << r.no_suspects
     << " views_equal=" << r.views_equal << " no_pending=" << r.no_pending;
  return os.str();
}

// Drive one runtime through the windows, then check convergence and — when
// converged — that the lockstep engine predicts the next decision exactly.
Outcome run_schedule(const Scenario& s, const std::vector<Window>& windows) {
  ScenarioRunner runner(s);
  const net::NetConfig cfg =
      scenario::to_net_config(s, runner.network().num_nodes());
  Outcome out;
  std::int64_t round = 0;
  const auto drive = [&](net::DistributedRuntime& rt,
                         dynamics::DynamicNetwork* dyn) {
    for (const Window& w : windows) {
      rt.set_fault_profile(w.faults);
      for (int i = 0; i < w.rounds; ++i) {
        ++round;
        if (dyn != nullptr && w.advance && round > 1) {
          const dynamics::SlotChange& ch = dyn->advance(round);
          if (ch.changed)
            rt.on_wire_change(ch.touched_vertices, dyn->active_vertices());
        }
        net::NetRoundResult res = rt.step();
        out.strategies.push_back(std::move(res.strategy));
      }
    }
    const Graph& wire =
        dyn != nullptr ? dyn->ecg().graph() : runner.extended_graph().graph();
    out.report = reference::check_convergence(rt, wire);
    out.converged = out.report.converged();
    if (out.converged) {
      out.predicted = reference::lockstep_decision(rt, wire, rt.rounds_run() + 1);
      const net::NetRoundResult res = rt.step();
      out.actual = res.strategy;
      out.conflict = res.conflict;
      out.abstained = res.tx_abstained;
      out.strategies.push_back(res.strategy);
    }
    out.counters = rt.counters();
    out.channel = rt.channel_stats();
    out.trace = rt.channel().trace_hash();
  };
  if (scenario::is_dynamic(s)) {
    dynamics::DynamicNetwork dyn = runner.make_dynamic_network(s.run.seed);
    net::DistributedRuntime rt(dyn.ecg(), runner.model(), cfg);
    drive(rt, &dyn);
  } else {
    net::DistributedRuntime rt(runner.extended_graph(), runner.model(), cfg);
    drive(rt, nullptr);
  }
  return out;
}

std::vector<Window> make_windows(const Profile& p, std::uint64_t seed) {
  const net::FaultProfile quiet{0.0, 0.0, 0.0, 0, seed};
  const net::FaultProfile burst{p.drop, p.dup, p.reorder, p.delay, seed};
  // Quiet warmup with dynamics on, a faulty burst (still churning/moving),
  // then a long quiet tail with the topology frozen — long enough for every
  // timeout -> probe -> evict -> readmit cascade to play out and views to
  // gossip across the diameter.
  return {{quiet, 6, true}, {burst, 12, true}, {quiet, 36, false}};
}

TEST(FaultSchedules, ConvergedRoundsMatchLockstepUnderAnySchedule) {
  std::int64_t total_timeouts = 0, total_retries = 0, total_view_changes = 0;
  for (const char* dynamics : kDynamicsKinds) {
    for (const ScheduleSpec& spec : kSchedules) {
      for (std::uint64_t seed : kScheduleSeeds) {
        for (const char* solver : kSolverModes) {
          SCOPED_TRACE(cell_name(dynamics, solver, seed,
                                 std::string("schedule=") + spec.name));
          const Scenario s =
              make_scenario(dynamics, Profile{0, 0, 0, 0}, seed, solver, 64);
          const Outcome o = run_schedule(s, make_windows(spec.faulty, seed));
          // The burst must actually exercise the fault plane...
          EXPECT_GT(o.channel.drops + o.channel.duplicates +
                        o.channel.deferred,
                    0);
          // ...and the quiet tail must restore full convergence,
          EXPECT_TRUE(o.converged) << describe(o.report);
          // at which point the conditional-equivalence contract bites: the
          // lockstep engine predicts the runtime's decision exactly.
          if (o.converged) {
            EXPECT_EQ(o.predicted, o.actual);
            EXPECT_FALSE(o.conflict);
            EXPECT_EQ(o.abstained, 0);
          }
          total_timeouts += o.counters.timeouts;
          total_retries += o.counters.retries;
          total_view_changes += o.counters.view_changes;
        }
      }
    }
  }
  // Across the suite the liveness machinery must have genuinely fired —
  // otherwise the equivalence above is vacuous.
  EXPECT_GT(total_timeouts, 0);
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(total_view_changes, 0);
}

TEST(FaultSchedules, WindowedScheduleReplaysByteForByte) {
  for (const char* dynamics : kDynamicsKinds) {
    SCOPED_TRACE(dynamics);
    const Scenario s =
        make_scenario(dynamics, Profile{0, 0, 0, 0}, 13, "exact", 64);
    const std::vector<Window> windows =
        make_windows(kSchedules[3].faulty, 13);
    const Outcome a = run_schedule(s, windows);
    const Outcome b = run_schedule(s, windows);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.strategies, b.strategies);
    EXPECT_EQ(a.converged, b.converged);
  }
}

TEST(FaultSchedules, SuiteCoversAtLeastTwoHundredSchedules) {
  EXPECT_GE(kReplayScheduleCount + kWindowedScheduleCount, 200);
  EXPECT_EQ(kReplayScheduleCount, 108);
  EXPECT_EQ(kWindowedScheduleCount, 96);
}

}  // namespace
}  // namespace mhca
