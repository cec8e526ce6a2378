// ScenarioRunner — the single engine entry point behind the Scenario API.
//
// Construction resolves the scenario's registry keys into live components:
// master Rng(run.seed) -> topology generator -> extended conflict graph ->
// channel model -> policy. One runner then drives any of the repo's four
// execution engines over those components:
//
//   run()        lockstep Simulator (Algorithm 2, the benchmarks' engine)
//   run_with(m)  same, against an externally owned ChannelModel
//   replicate()  multi-seed replication harness (fresh channel realization
//                per seed, seed-order-deterministic thread pool)
//   run_net()    message-level protocol runtime (src/net), one Algorithm-2
//                round per slot
//
// All four read their knobs from the same Scenario (one SolverSpec), so a
// decision taken by run() and run_net() on the same scenario is identical —
// asserted by tests/scenario_test.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "channel/channel_model.h"
#include "core/channel_access.h"
#include "graph/conflict_graph.h"
#include "graph/extended_graph.h"
#include "net/runtime.h"
#include "scenario/scenario.h"
#include "sim/decision_oracle.h"
#include "sim/replication.h"
#include "sim/simulator.h"

namespace mhca::dynamics {
class DynamicNetwork;
}

namespace mhca::scenario {

/// Aggregate of a message-level protocol run (run_net()).
struct NetRunSummary {
  std::int64_t rounds = 0;
  double total_observed = 0.0;     ///< Summed realized throughput.
  std::vector<int> last_strategy;  ///< Winner vertices of the final round.
  std::size_t max_table_size = 0;  ///< Per-vertex space bound O(m).
  int conflicts = 0;               ///< Rounds whose strategy conflicted.
  // --- Robustness telemetry (fault plane + view-sync membership) ---
  std::int64_t retries = 0;          ///< Liveness probes flooded.
  std::int64_t timeouts = 0;         ///< Members that became suspects.
  std::int64_t view_changes = 0;     ///< Membership-epoch advances.
  std::int64_t stale_decisions = 0;  ///< Rounds decided under stale views.
  std::int64_t tx_abstained = 0;     ///< Winners that declined to transmit.
  std::int64_t messages = 0;         ///< Control-channel transmissions.
  std::int64_t drops = 0;            ///< Fault plane: receptions failed.
  std::int64_t duplicates = 0;       ///< Fault plane: duplicate deliveries.
  std::int64_t deferred = 0;         ///< Fault plane: reordered/delayed.
  // --- Wire telemetry (net/wire.h; airtime in real marshalled bytes) ---
  std::int64_t bytes_on_wire = 0;  ///< Encoded bytes billed, dups included.
  std::int64_t fragments = 0;      ///< MTU fragments (= UDP datagram count).
  /// Per-MsgType breakdown, indexed like net::ChannelStats (hello /
  /// weight-update / leader-declare / determination / view-change).
  std::int64_t messages_by_type[net::kNumMsgTypes] = {0, 0, 0, 0, 0};
  std::int64_t bytes_by_type[net::kNumMsgTypes] = {0, 0, 0, 0, 0};
  /// Resident bytes per runtime structure at the end of the run (the
  /// net.mem.* gauges).
  net::MemoryFootprint memory;
  /// Order-sensitive digest of every flood and delivery — two runs of the
  /// same (seed, schedule) must agree byte for byte.
  std::uint64_t trace_hash = 0;
  /// Digest of every round's winner set, in round order — what a sharded
  /// run must reproduce bit for bit against the single-process run of the
  /// same scenario (CI greps it from both and compares).
  std::uint64_t decision_digest = 0;
};

/// The net::NetConfig a scenario denotes (policy must be a built-in kind;
/// `num_nodes` backs LLR's L-defaults-to-N rule). The runtime implements the
/// distributed protocol, so solver.kind is not consulted. The [net] fault
/// and liveness knobs ride along, so lossy and view-sync runs are
/// declarative.
net::NetConfig to_net_config(const Scenario& s, int num_nodes);

/// The dynamics seed a run derives from `base_seed` (the run seed, or one
/// replication's seed): dynamics.seed when pinned, else a fixed mix of
/// base_seed — so churn replicates exactly like the channel realization.
std::uint64_t dynamics_seed_of(const Scenario& s, std::uint64_t base_seed);

class ScenarioRunner {
 public:
  /// Build every component from the registries. Throws ScenarioError with
  /// the offending key/name on any unknown kind or parameter.
  explicit ScenarioRunner(Scenario s);

  /// Use an externally built network instead of the topology spec (for
  /// callers that own their graph). The channel spec may be empty, in which
  /// case only run_with() is available.
  ScenarioRunner(Scenario s, ConflictGraph network);

  const Scenario& scenario() const { return s_; }
  const ConflictGraph& network() const { return network_; }
  const ExtendedConflictGraph& extended_graph() const { return ecg_; }
  bool has_model() const { return model_ != nullptr; }
  const ChannelModel& model() const;
  const IndexPolicy& policy() const { return *policy_; }

  /// The configs this scenario denotes, for callers that drive an engine
  /// directly (benchmark grids use engine_config()).
  SimulationConfig simulation_config() const {
    return to_simulation_config(s_);
  }
  DistributedPtasConfig engine_config() const {
    return to_engine_config(simulation_config());
  }

  /// One full simulation of the scenario (its channel model, its seed).
  SimulationResult run() const;

  /// One full simulation against an external channel model.
  SimulationResult run_with(const ChannelModel& model) const;

  /// Replicate the scenario across replication.replications seeds: each
  /// seed gets a fresh channel realization on the fixed topology. Requires
  /// replications >= 1.
  ReplicationReport replicate() const;

  /// Drive the message-level runtime for run.slots rounds. Dynamic
  /// scenarios apply each slot's GraphDelta between protocol rounds: agents
  /// within the blast radius re-discover their neighborhoods, and nodes
  /// the model took offline stop participating until they rejoin.
  NetRunSummary run_net() const;

  /// run_net() as one shard of a multi-process run: this process hosts all
  /// agents but originates only the floods of its owned vertices, moving
  /// them over `transport` (net/transport.h). The summary — decisions,
  /// trace hash, decision digest, byte bill — is identical on every shard
  /// and identical to run_net() of the same scenario. Static scenarios with
  /// omniscient membership only (validate() enforces this for
  /// net.transport = udp). The transport must outlive the call.
  NetRunSummary run_net_sharded(net::Transport& transport) const;

  /// The step-API handle this scenario denotes: a ChannelAccessScheme over
  /// this runner's network, with a fresh policy from the registry and the
  /// same SimulationConfig run() uses — for user-owned radio environments
  /// that call decide()/report() themselves while describing everything
  /// else declaratively. Static scenarios only.
  ChannelAccessScheme make_scheme() const;

  /// Build this scenario's dynamic topology driver seeded from `base_seed`
  /// (see dynamics_seed_of). One driver per run; requires is_dynamic().
  dynamics::DynamicNetwork make_dynamic_network(
      std::uint64_t base_seed) const;

 private:
  struct Parts;  // built graph + model, carried into the delegate ctor
  explicit ScenarioRunner(Parts parts);
  /// Shared body of run_net (one shard over a LoopbackTransport) and
  /// run_net_sharded.
  NetRunSummary run_net_impl(net::Transport& transport) const;
  static Parts make_parts(Scenario s);
  static Parts make_parts(Scenario s, ConflictGraph network);

  Scenario s_;
  ConflictGraph network_;
  ExtendedConflictGraph ecg_;
  std::unique_ptr<ChannelModel> model_;
  std::unique_ptr<IndexPolicy> policy_;
};

}  // namespace mhca::scenario
