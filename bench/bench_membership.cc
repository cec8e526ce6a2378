// Benchmark of the view-synchronous membership layer under an unreliable
// wire: convergence lag and control overhead as functions of churn rate and
// drop/dup/reorder probability.
//
// Each cell runs one windowed fault schedule on the message-level runtime
// (src/net): a quiet warmup, a fault burst (the control channel drops,
// duplicates, reorders and delays while the topology churns), then a quiet
// tail with the topology frozen. The cell reports
//
//   - convergence lag: quiet rounds until the god's-eye oracle
//     (tests/reference/convergence_oracle.h) accepts — member tables equal
//     the ground-truth (2r+1)-balls, stats and adjacency are exact, no
//     suspects, views agree per component, nothing in flight;
//   - control overhead: messages per round during the burst vs the quiet
//     warmup, and the membership share (hello + view-change airtime);
//   - the robustness counters (timeouts, retries, view changes, stale
//     decisions) the burst provoked;
//   - identical_decisions: once converged, the lockstep engine run over
//     the agents' own statistics must predict the runtime's next strategy
//     winner for winner (the acceptance contract; CI validates the flag).
//
// Emits a table on stdout and machine-readable JSON (default
// BENCH_membership.json, or argv[1]); `--smoke` shrinks the grid for CI.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "channel/gaussian.h"
#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "graph/generators.h"
#include "net/faults.h"
#include "net/runtime.h"
#include "reference/convergence_oracle.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace mhca;

struct FaultSpec {
  const char* label;
  double drop, dup, reorder;
  int delay;
};

struct Cell {
  std::string faults;
  double churn = 0.0;
  int users = 0;
  int vertices = 0;
  int burst_rounds = 0;
  double msgs_per_round_quiet = 0.0;  ///< Warmup (fault-free) airtime.
  double msgs_per_round_burst = 0.0;  ///< Airtime while faults are live.
  double overhead = 0.0;              ///< burst / quiet ratio.
  double membership_share = 0.0;      ///< hello+view-change share of bill.
  // Wire-level bill (net/wire.h encoded sizes, duplicates included).
  double bytes_per_round_quiet = 0.0;
  double bytes_per_round_burst = 0.0;
  double membership_byte_share = 0.0;  ///< hello+view-change byte share.
  std::int64_t timeouts = 0;
  std::int64_t retries = 0;
  std::int64_t view_changes = 0;
  std::int64_t stale_decisions = 0;
  int convergence_lag = -1;  ///< Quiet rounds until the oracle accepts.
  bool converged = false;
  bool identical = false;  ///< Lockstep engine predicts the next decision.
};

Cell run_cell(int users, int channels, double churn_rate,
              const FaultSpec& f, int warmup, int burst, int tail_cap) {
  Cell cell;
  cell.faults = f.label;
  cell.churn = churn_rate;
  cell.users = users;
  cell.burst_rounds = burst;

  Rng topo_rng(static_cast<std::uint64_t>(users) * 677 + 29);
  ConflictGraph base = random_geometric_avg_degree(users, 4.5, topo_rng);
  Rng model_rng(static_cast<std::uint64_t>(users) * 131 + 3);
  GaussianChannelModel model(users, channels, model_rng);

  net::NetConfig cfg;
  cfg.r = 2;
  cfg.D = 3;
  cfg.membership = net::MembershipMode::kViewSync;

  std::unique_ptr<dynamics::DynamicNetwork> dyn;
  if (churn_rate > 0.0) {
    scenario::ParamMap params;
    params.set("leave_prob", std::to_string(churn_rate));
    params.set("join_prob", "0.3");
    params.set("min_active", std::to_string(users / 2));
    Rng dyn_rng(0xFEED);
    const dynamics::DynamicsBuildContext ctx{&base, warmup + burst};
    dyn = std::make_unique<dynamics::DynamicNetwork>(
        base, channels,
        dynamics::dynamics_registry().create("churn", params, ctx, dyn_rng),
        /*incremental=*/true);
  }
  std::unique_ptr<ExtendedConflictGraph> local_ecg;
  if (!dyn)
    local_ecg = std::make_unique<ExtendedConflictGraph>(base, channels);
  const ExtendedConflictGraph& ecg = dyn ? dyn->ecg() : *local_ecg;
  cell.vertices = ecg.num_vertices();
  net::DistributedRuntime rt(ecg, model, cfg);

  const net::FaultProfile quiet{0.0, 0.0, 0.0, 0, 0x5eed};
  const net::FaultProfile faulty{f.drop, f.dup, f.reorder, f.delay, 0x5eed};
  std::int64_t round = 0;
  struct WindowBill {
    double msgs_per_round, bytes_per_round;
  };
  const auto run_window = [&](const net::FaultProfile& p, int rounds,
                              bool advance) -> WindowBill {
    rt.set_fault_profile(p);
    const std::int64_t before = rt.channel_stats().messages;
    const std::int64_t before_bytes = rt.channel_stats().bytes_on_wire;
    for (int i = 0; i < rounds; ++i) {
      ++round;
      if (dyn && advance && round > 1) {
        const dynamics::SlotChange& ch = dyn->advance(round);
        if (ch.changed)
          rt.on_wire_change(ch.touched_vertices, dyn->active_vertices());
      }
      rt.step();
    }
    return {static_cast<double>(rt.channel_stats().messages - before) /
                static_cast<double>(rounds),
            static_cast<double>(rt.channel_stats().bytes_on_wire -
                                before_bytes) /
                static_cast<double>(rounds)};
  };

  const WindowBill quiet_bill = run_window(quiet, warmup, true);
  const WindowBill burst_bill = run_window(faulty, burst, true);
  cell.msgs_per_round_quiet = quiet_bill.msgs_per_round;
  cell.msgs_per_round_burst = burst_bill.msgs_per_round;
  cell.bytes_per_round_quiet = quiet_bill.bytes_per_round;
  cell.bytes_per_round_burst = burst_bill.bytes_per_round;
  cell.overhead = cell.msgs_per_round_quiet > 0.0
                      ? cell.msgs_per_round_burst / cell.msgs_per_round_quiet
                      : 0.0;

  // Quiet, frozen tail: count rounds until the oracle accepts.
  rt.set_fault_profile(quiet);
  const Graph& wire = ecg.graph();
  for (int i = 1; i <= tail_cap; ++i) {
    rt.step();
    if (reference::check_convergence(rt, wire).converged()) {
      cell.convergence_lag = i;
      cell.converged = true;
      break;
    }
  }
  if (cell.converged) {
    const std::vector<int> predicted =
        reference::lockstep_decision(rt, wire, rt.rounds_run() + 1);
    cell.identical = rt.step().strategy == predicted;
  }

  const net::ChannelStats& cs = rt.channel_stats();
  cell.membership_share =
      cs.messages > 0
          ? static_cast<double>(cs.of_type(net::MsgType::kHello) +
                                cs.of_type(net::MsgType::kViewChange)) /
                static_cast<double>(cs.messages)
          : 0.0;
  cell.membership_byte_share =
      cs.bytes_on_wire > 0
          ? static_cast<double>(cs.bytes_of_type(net::MsgType::kHello) +
                                cs.bytes_of_type(net::MsgType::kViewChange)) /
                static_cast<double>(cs.bytes_on_wire)
          : 0.0;
  const net::RuntimeCounters rc = rt.counters();
  cell.timeouts = rc.timeouts;
  cell.retries = rc.retries;
  cell.view_changes = rc.view_changes;
  cell.stale_decisions = rc.stale_decisions;
  return cell;
}

std::string json_of(const std::vector<Cell>& cells, int channels, int warmup,
                    int burst) {
  std::string out;
  char buf[768];
  out += "{\n  \"bench\": \"membership\",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"config\": {\"channels\": %d, \"avg_degree\": 4.5, \"r\": 2, "
      "\"D\": 3, \"policy\": \"cab\", \"membership\": \"view_sync\", "
      "\"schedule\": \"%d quiet warmup, %d faulty burst (churn live), "
      "quiet frozen tail until the oracle accepts\"},\n",
      channels, warmup, burst);
  out += buf;
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"faults\": \"%s\", \"churn_leave_prob\": %.3f, \"users\": %d, "
        "\"vertices\": %d, \"msgs_per_round_quiet\": %.1f, "
        "\"msgs_per_round_burst\": %.1f, \"control_overhead\": %.2f, "
        "\"membership_msg_share\": %.3f, "
        "\"bytes_per_round_quiet\": %.1f, \"bytes_per_round_burst\": %.1f, "
        "\"membership_byte_share\": %.3f, \"timeouts\": %lld, "
        "\"retries\": %lld, \"view_changes\": %lld, "
        "\"stale_decisions\": %lld, \"convergence_lag_rounds\": %d, "
        "\"identical_decisions\": %s}%s\n",
        c.faults.c_str(), c.churn, c.users, c.vertices,
        c.msgs_per_round_quiet, c.msgs_per_round_burst, c.overhead,
        c.membership_share, c.bytes_per_round_quiet, c.bytes_per_round_burst,
        c.membership_byte_share, static_cast<long long>(c.timeouts),
        static_cast<long long>(c.retries),
        static_cast<long long>(c.view_changes),
        static_cast<long long>(c.stale_decisions), c.convergence_lag,
        c.identical ? "true" : "false", i + 1 < cells.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_membership.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke")
      smoke = true;
    else
      json_path = a;
  }

  std::cout << "=== View-synchronous membership under an unreliable wire: "
               "convergence lag + control overhead ===\n\n";

  std::vector<FaultSpec> faults{
      {"clean", 0.0, 0.0, 0.0, 0},
      {"drop 0.10", 0.10, 0.0, 0.0, 0},
      {"drop 0.25", 0.25, 0.0, 0.0, 0},
      {"dup 0.15", 0.0, 0.15, 0.0, 0},
      {"reorder 0.20 delay 2", 0.0, 0.0, 0.20, 2},
      {"chaos .15/.10/.10 d2", 0.15, 0.10, 0.10, 2},
  };
  std::vector<double> churn_rates{0.0, 0.01, 0.04};
  int users = 40, channels = 3, warmup = 8, burst = 20, tail_cap = 60;
  if (smoke) {
    faults = {faults[2], faults[5]};
    churn_rates = {0.0, 0.02};
    users = 20;
    burst = 12;
  }

  std::vector<Cell> cells;
  TablePrinter table({"faults", "churn", "|H|", "msgs/rnd quiet",
                      "msgs/rnd burst", "overhead", "KB/rnd burst",
                      "mem share", "mem B share", "timeouts", "view chg",
                      "conv lag", "identical"});
  for (double churn : churn_rates) {
    for (const FaultSpec& f : faults) {
      const Cell c =
          run_cell(users, channels, churn, f, warmup, burst, tail_cap);
      cells.push_back(c);
      table.row(c.faults, fixed(c.churn, 3), c.vertices,
                fixed(c.msgs_per_round_quiet, 1),
                fixed(c.msgs_per_round_burst, 1), fixed(c.overhead, 2),
                fixed(c.bytes_per_round_burst / 1024.0, 1),
                fixed(c.membership_share, 3),
                fixed(c.membership_byte_share, 3), c.timeouts,
                c.view_changes, c.convergence_lag,
                c.identical ? "yes" : "NO");
    }
  }
  table.print(std::cout);

  const std::string json = json_of(cells, channels, warmup, burst);
  std::ofstream out(json_path);
  out << json;
  std::cout << "\nJSON written to " << json_path << "\n";

  bool all_identical = true;
  for (const Cell& c : cells)
    if (!c.identical) all_identical = false;
  if (!all_identical) {
    std::cerr << "FAIL: some cells never converged or diverged from the "
                 "lockstep engine\n";
    return 1;
  }
  return 0;
}
