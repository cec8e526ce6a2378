// Scenario — one declarative value describing an experiment end to end.
//
// A Scenario names a topology (generator + params), a channel model, a
// learning policy, a solver spec (oracle, r, D, local solver, node cap,
// parallelism), timing/replication/seed settings. Components are referenced
// by registry string keys (scenario/registries.h), so the full evaluation
// grid of the paper — channels x policies x topologies x r/D ablations — is
// data, not code: ScenarioRunner (scenario/runner.h) turns any Scenario into
// a running experiment, and every engine in the repo (simulator, step API,
// replication harness, message-level net runtime) is expressed through it.
//
// Scenarios round-trip through a flat `key = value` text format with
// [section]s (no external deps); see src/scenario/README.md for the spec.
// `apply_override` mutates one dotted key ("policy.kind=thompson"), which is
// how the CLI and the benchmark grids derive cells from a base scenario.
#pragma once

#include <cstdint>
#include <string>

#include "bandit/policy.h"
#include "mwis/distributed_ptas.h"
#include "mwis/mwis.h"
#include "net/faults.h"
#include "net/view.h"
#include "scenario/params.h"
#include "sim/config.h"
#include "sim/timing.h"

namespace mhca::scenario {

/// A registry-resolved component: which factory, and its parameters.
struct ComponentSpec {
  std::string kind;
  ParamMap params;

  bool operator==(const ComponentSpec&) const = default;
};

/// The strategy-decision oracle, fully specified. Single source of truth
/// for solver knobs across every decision path: to_simulation_config stamps
/// it into SimulationConfig (and sim/decision_oracle.h from there into
/// DistributedPtasConfig), runner.h's to_net_config into net::NetConfig,
/// and scenario.cc static_asserts that all default values agree with
/// kDefaultBnbNodeCap and with each other (the PR-2 drift guard).
struct SolverSpec {
  SolverKind kind = SolverKind::kDistributedPtas;
  int r = 2;                ///< Local-neighborhood radius.
  int D = 4;                ///< Mini-round budget (0 = until all marked).
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  std::int64_t node_cap = kDefaultBnbNodeCap;  ///< Per-solve B&B effort cap.
  /// Threads for per-leader local solves within one decision (0 = one per
  /// hardware thread, 1 = inline). Deterministic at any setting.
  int parallelism = 1;
  double epsilon = 1.0;  ///< ε for the centralized robust PTAS.

  bool operator==(const SolverSpec&) const = default;
};

/// Horizon / bookkeeping of a single run.
struct RunSpec {
  std::int64_t slots = 1000;
  int update_period = 1;  ///< y: strategy refresh every y slots.
  std::uint64_t seed = 1;
  /// Record every k-th slot in the series; 0 (the default) = auto,
  /// max(1, slots/100) — so long horizons don't record millions of points.
  int series_stride = 0;
  bool count_messages = false;

  bool operator==(const RunSpec&) const = default;
};

/// Topology dynamics over the run ([dynamics] section; src/dynamics). The
/// model is a registry component like topologies/channels/policies —
/// `kind = static` (the default) means the graph is frozen at slot 0 and
/// every engine takes its original fast path.
struct DynamicsSpec {
  ComponentSpec model{"static", {}};
  /// Maintain graph + neighborhood cache incrementally (scoped
  /// invalidation); false = rebuild everything from scratch on every change
  /// (the reference mode — byte-identical results, bench baseline).
  bool incremental = true;
  /// Coalesce the model's per-slot deltas and apply them as one net change
  /// per run.update_period slots (dynamics::DeltaBatch): structural
  /// maintenance is paid only on decision slots, and add/remove churn
  /// inside a window cancels. Between decisions the engines see the
  /// window-start topology — an explicit staleness trade-off, so off by
  /// default; no effect when update_period == 1.
  bool batch = false;
  /// Seed of the dynamics randomness; 0 (default) derives it from the run
  /// seed (and, under replication, from each replication's seed), so churn
  /// is replicated like the channel realization is.
  std::uint64_t seed = 0;

  bool operator==(const DynamicsSpec&) const = default;
};

/// Message-level runtime knobs ([net] section): the control-channel
/// fault-injection plane and the view-synchronous membership layer,
/// declarative at last. The fault and liveness knobs are the runtime's own
/// structs, so their defaults live once (net/faults.h, net/view.h); the
/// scenario keys stay flat (net.drop_prob, net.drop_seed = faults.seed,
/// net.hello_timeout_slots, ...). membership is the string form of
/// net::MembershipMode ("omniscient" | "view_sync").
struct NetSpec {
  net::FaultProfile faults;
  std::string membership = "omniscient";
  net::LivenessParams liveness;
  /// How the --net runtime moves encoded floods: "inprocess" (every flood
  /// still round-trips through wire bytes) or "udp" (one real process per
  /// shard on loopback sockets; see net/transport.h). String form of
  /// TransportKind.
  std::string transport = "inprocess";
  /// Datagram size limit for fragment accounting and the UDP transport;
  /// pinned to net::wire::kDefaultMtu / net::NetConfig by static_asserts.
  int mtu = 1400;
  /// Shard count for transport = udp: the scenario runs as `shard`
  /// cooperating processes (`mhca_sim run --net --shard k/N`), each owning
  /// the floods of vertices v with v % N == k. 1 = single process.
  int shard = 1;

  bool operator==(const NetSpec&) const = default;
};

/// Observability ([obs] section; src/obs/README.md): where to write the
/// Chrome trace-event timeline and the metrics snapshot. Empty paths (the
/// default) leave observability off — the compiled-in-but-disabled fast
/// path whose overhead bench_decision_path gates. `mhca_sim run
/// --trace=PATH --metrics=PATH` is sugar for overriding these.
struct ObsSpec {
  std::string trace;    ///< Trace-event JSON output path ("" = off).
  std::string metrics;  ///< Metrics snapshot path; .csv = CSV, else JSON.

  bool operator==(const ObsSpec&) const = default;
};

/// Multi-seed replication. replications = 0 means a plain single run.
struct ReplicationSpec {
  int replications = 0;
  std::uint64_t seed0 = 1;
  /// Worker threads across replications (0 = one per hardware thread).
  int parallelism = 0;

  bool operator==(const ReplicationSpec&) const = default;
};

struct Scenario {
  std::string name = "scenario";
  ComponentSpec topology{"geometric", {}};
  ComponentSpec channel{"gaussian", {}};
  int num_channels = 8;  ///< M ([channel] key `channels`).
  ComponentSpec policy{"cab", {}};
  DynamicsSpec dynamics;
  NetSpec net;
  SolverSpec solver;
  RunSpec run;
  ReplicationSpec replication;
  RoundTiming timing;
  ObsSpec obs;

  bool operator==(const Scenario&) const = default;
};

/// True iff the scenario's topology changes over time (its [dynamics]
/// model is anything but the built-in "static" no-op).
bool is_dynamic(const Scenario& s);

// ------------------------------------------------------------- text format

/// Parse the scenario text format. Throws ScenarioError naming the offending
/// line/section/key and listing the valid alternatives.
Scenario parse_scenario(const std::string& text);

/// Parse a scenario file (throws ScenarioError if unreadable).
Scenario parse_scenario_file(const std::string& path);

/// Canonical text form; parse(serialize(s)) == s.
std::string serialize_scenario(const Scenario& s);

/// Apply one "section.key=value" override (top-level: "name=value").
void apply_override(Scenario& s, const std::string& spec);

/// Range-check the fixed numeric fields (slots, r, strides, ...) without
/// touching the registries. ScenarioRunner calls this at construction, so
/// out-of-range fields fail with an actionable ScenarioError naming the
/// scenario key instead of a deep MHCA_ASSERT later.
void validate_fields(const Scenario& s);

/// Full validation without building anything: validate_fields + component
/// kinds exist and their params use accepted keys.
void validate(const Scenario& s);

// -------------------------------------------------------------- conversions

/// The SimulationConfig this scenario denotes (solver + run + timing).
SimulationConfig to_simulation_config(const Scenario& s);

// ------------------------------------------------------- enum <-> string

SolverKind solver_kind_from_string(const std::string& s);
const char* solver_kind_key(SolverKind kind);
LocalSolverKind local_solver_from_string(const std::string& s);
const char* local_solver_key(LocalSolverKind kind);
/// All valid keys, from the same tables as the mappings above (what
/// `mhca_sim list` prints).
const std::vector<std::string>& solver_kind_keys();
const std::vector<std::string>& local_solver_keys();
/// Maps the built-in policy registry keys to the PolicyKind enum (used by
/// compatibility shims and the message-level runtime config). Throws for
/// registry keys without an enum value (user-registered policies).
PolicyKind policy_kind_from_string(const std::string& s);
const char* policy_kind_key(PolicyKind kind);
/// net.membership <-> net::MembershipMode ("omniscient" | "view_sync").
/// Throws ScenarioError listing the valid keys on anything else.
net::MembershipMode membership_mode_from_string(const std::string& s);
const char* membership_mode_key(net::MembershipMode mode);

/// How a --net run moves its encoded floods (net.transport).
enum class TransportKind {
  kInProcess,  ///< One process; floods still round-trip through wire bytes.
  kUdp,        ///< One process per shard over loopback UDP sockets.
};

/// net.transport <-> TransportKind ("inprocess" | "udp").
/// Throws ScenarioError listing the valid keys on anything else.
TransportKind transport_kind_from_string(const std::string& s);
const char* transport_kind_key(TransportKind kind);

}  // namespace mhca::scenario
