// Message-level implementation of Algorithm 2 (the full distributed
// channel-access scheme) over per-vertex agents and a flooding control
// channel.
//
// Per round t:
//   MEM — (view-sync mode only) membership phase: delayed deliveries land,
//         staggered keep-alive hellos go out, liveness is evaluated
//         (timeout → suspect → backed-off probes → eviction), and view
//         changes are announced. See net/README.md for the full lifecycle.
//   WB  — every vertex of the previous strategy floods its refreshed (µ̃, m)
//         within 2r+1 hops; all agents recompute indices locally from the
//         global round number (eq. 3 needs only t, K and the stored stats).
//   LS  — Candidates whose key dominates their (2r+1)-hop table self-elect
//         LocalLeader and declare within 2r+1 hops.
//   LMWIS/LB — each leader solves MWIS over its r-hop Candidates and floods
//         the verdicts within 3r+2 hops (winner-adjacent losers sit r+1
//         hops out); D mini-rounds total.
//   TX  — Winners access their channels, observe rates, update estimates.
//         Under view-sync a Winner with outstanding suspects, or whose
//         verdict was minted in an older view, abstains (conservative
//         degradation: reduced throughput, never an avoidable collision).
//
// This runtime exists to demonstrate and *test* that the protocol works
// from purely local knowledge; the lockstep engine in mwis/distributed_ptas
// computes identical decisions (asserted by integration tests: every round
// in omniscient mode, every converged round under view-sync — see the test
// oracle tests/reference/convergence_oracle.h) and is what the large
// benchmarks use.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bandit/policy.h"
#include "channel/channel_model.h"
#include "graph/extended_graph.h"
#include "mwis/branch_and_bound.h"
#include "mwis/greedy.h"
#include "net/agent.h"
#include "net/control_channel.h"
#include "net/transport.h"
#include "net/view.h"

namespace mhca::net {

struct NetConfig {
  int r = 2;
  int D = 4;  ///< Mini-rounds per decision; 0 = run until all marked.
  PolicyKind policy = PolicyKind::kCab;
  PolicyParams policy_params{};
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  /// Per-solve effort cap; mirrors DistributedPtasConfig::bnb_node_cap so
  /// runtime and lockstep engine take identical decisions.
  std::int64_t bnb_node_cap = kDefaultBnbNodeCap;
  /// MTU for fragment accounting and the UDP transport's datagram size
  /// (net/wire.h). Every flood's airtime is billed in encoded bytes and in
  /// the MTU fragments a socket transport would actually send.
  int mtu = wire::kDefaultMtu;
  /// Control-channel fault injection (net/faults.h). The protocol's
  /// independence guarantee assumes a fault-free channel — see
  /// ControlChannel.
  FaultProfile faults;
  // --- Membership (net/view.h) ---
  /// kViewSync: no omniscient delta feed — liveness from stat-carrying
  /// hellos with timeout + bounded retry + exponential backoff, membership
  /// epochs as gossiped ViewIds. Required when faults.reorder_prob > 0 or
  /// faults.delay_slots_max > 0 (omniscient discovery cannot absorb a late
  /// hello).
  MembershipMode membership = MembershipMode::kOmniscient;
  LivenessParams liveness;  ///< View-sync timeouts, retries and backoff.
};

struct NetRoundResult {
  std::int64_t round = 0;
  std::vector<int> strategy;  ///< Winner vertices of H (sorted).
  double observed_sum = 0.0;  ///< Realized throughput (normalized).
  int mini_rounds = 0;
  bool all_marked = false;
  /// True if the produced strategy contains a conflict. Always false on a
  /// reliable omniscient-mode channel (asserted); possible under faults or
  /// not-yet-converged views.
  bool conflict = false;
  /// View-sync: Winners that abstained from transmitting because their
  /// view was stale (counted into AgentCounters::stale_decisions).
  int tx_abstained = 0;
};

/// Resident bytes of the runtime's per-structure state (the net.mem.*
/// gauges, obs/publish.h): every agent's member list, table columns and
/// local graph, and the runtime's index memo.
struct MemoryFootprint {
  std::int64_t member_lists = 0;
  std::int64_t tables = 0;
  std::int64_t local_graphs = 0;
  std::int64_t index_memo = 0;
};

/// Aggregated per-agent robustness counters (see AgentCounters).
struct RuntimeCounters {
  std::int64_t retries = 0;
  std::int64_t timeouts = 0;
  std::int64_t view_changes = 0;
  std::int64_t stale_decisions = 0;
};

class DistributedRuntime {
 public:
  /// References must outlive the runtime. Construction performs the
  /// one-time (2r+1)-hop neighborhood discovery (paper: the first WB round
  /// collects ids of the local neighborhood). This runtime is the only
  /// shard, over a LoopbackTransport it owns.
  DistributedRuntime(const ExtendedConflictGraph& ecg,
                     const ChannelModel& model, NetConfig cfg);

  /// This process is shard `transport.shard_index()` of
  /// `transport.shard_count()`. Every shard hosts *all* agents (same
  /// scenario, same seed — replicated state), but only the owner shard of a
  /// vertex (owner = vertex % shard_count) originates its floods and
  /// computes its expensive payloads (a leader's local MWIS solve travels
  /// as wire bytes). Each protocol phase deposits the owned floods into a
  /// transport exchange and replays the merged union in canonical
  /// (origin, seq) order through the local ControlChannel — which keeps the
  /// global flood counter, every fault draw, the trace hash and every
  /// decision identical across shards, whatever the shard count. More than
  /// one shard requires omniscient membership and a static graph
  /// (view-sync's same-phase hello interleaving needs finer barriers);
  /// drop/dup faults are fine — the fault plane replays identically
  /// everywhere. The transport must outlive the runtime.
  DistributedRuntime(const ExtendedConflictGraph& ecg,
                     const ChannelModel& model, NetConfig cfg,
                     Transport& transport);

  /// Not copyable or movable: the transport may be the runtime's own.
  DistributedRuntime(const DistributedRuntime&) = delete;
  DistributedRuntime& operator=(const DistributedRuntime&) = delete;

  /// Execute one full round of Algorithm 2.
  NetRoundResult step();

  /// The extended graph just changed (src/dynamics; apply between rounds).
  /// `touched` are the H vertices incident to an added/removed edge,
  /// `active_vertices` the new per-vertex activity mask. Agents whose
  /// (2r+1)-hop view can have changed — members of a touched agent's old
  /// table, or within 2r+1 new-graph hops of a touched vertex — re-run
  /// discovery: every vertex of the affected neighborhoods re-floods a
  /// hello (billed on the control channel like any flood) carrying its
  /// neighbor list *and* current statistics, so rebuilt tables stay
  /// index-consistent and the decisions keep matching the lockstep engine.
  /// Omniscient mode only — the god's-eye feed view-sync replaces — and
  /// single-shard only (churn rediscovery floods directly, without an
  /// exchange barrier).
  void on_topology_change(std::span<const int> touched,
                          const std::vector<char>& active_vertices);

  /// View-sync counterpart: the wire changed, but agents are told only
  /// what a real node's link layer could know — each touched agent's own
  /// direct-neighbor set, and each node's own on/off state. Everything
  /// else (who left the neighborhood, who arrived) must be inferred from
  /// hellos, timeouts and view changes.
  void on_wire_change(std::span<const int> touched,
                      const std::vector<char>& active_vertices);

  /// Swap the fault profile mid-run (fault *schedules*: e.g. a lossy window
  /// followed by a quiet one). Validated like the constructor's profile.
  void set_fault_profile(const FaultProfile& faults);

  std::int64_t rounds_run() const { return t_; }
  /// Winners of the last round — the vertices whose refreshed statistics
  /// are still in flight (their WB flood opens the *next* round, before
  /// any decision reads a table). The convergence oracle exempts exactly
  /// these from its stats equality check.
  const std::vector<int>& prev_strategy() const { return prev_strategy_; }
  const ChannelStats& channel_stats() const { return channel_.stats(); }
  const ControlChannel& channel() const { return channel_; }
  const VertexAgent& agent(int v) const {
    return agents_[static_cast<std::size_t>(v)];
  }
  const IndexPolicy& policy() const { return *policy_; }
  const NetConfig& config() const { return cfg_; }

  /// Maximum agent table size — the per-vertex space bound O(m).
  std::size_t max_table_size() const;

  /// Sum of every agent's robustness counters.
  RuntimeCounters counters() const;

  /// Bytes held now by the agents' tables and graphs and by the index memo.
  MemoryFootprint memory_footprint() const;

 private:
  /// Both constructors' body, once the transport is bound: validation,
  /// policy, agents, then discovery.
  void init();
  void discover();
  /// One vertex's hello: id, direct neighbors, current (µ̃, m) — shared by
  /// initial discovery, scoped churn rediscovery, keep-alives and probes,
  /// so none of them can drift.
  Message make_hello(int v) const;
  /// The MEM phase of a view-sync round (see class comment).
  void membership_phase();
  /// Route one delivery to the right agent handler by message type (the
  /// single dispatch point for immediate and delayed deliveries alike).
  void route(int to, const Message& msg);
  /// Flood every agent whose hello_pending flag is set (keep-alives are
  /// merged into the first pass; the second pass catches same-round
  /// responses to probes and solicits).
  void flood_pending_hellos(bool include_keepalives);
  bool unreliable() const {
    return channel_.faults().any() ||
           cfg_.membership == MembershipMode::kViewSync;
  }
  /// Does this shard originate vertex v's floods?
  bool owns(int v) const {
    return v % transport_.shard_count() == transport_.shard_index();
  }
  /// Encode `msg` as a FloodFrame this shard deposits into the next
  /// exchange.
  static FloodFrame make_frame(const Message& msg, int ttl);
  /// Barrier-exchange the owned frames of one protocol phase and replay
  /// the merged union — every shard's floods, this one's included — in
  /// canonical order through the local channel. `deliver` as in
  /// ControlChannel::flood; `on_origin`, when set, is applied to each
  /// decoded message after its flood's deliveries (floods never deliver to
  /// their own origin, but a determination must mark the leader itself) —
  /// agents hold disjoint state, so before or after makes no difference.
  /// Returns the merged frames' origins in replay order so callers can
  /// recover e.g. the global leader list.
  std::vector<int> exchange_and_replay(
      std::vector<FloodFrame> frames,
      const std::function<void(int, const Message&)>& deliver,
      const std::function<void(const Message&)>& on_origin = {});

  const ExtendedConflictGraph& ecg_;
  const ChannelModel& model_;
  NetConfig cfg_;
  int keepalive_interval_ = 1;
  std::unique_ptr<IndexPolicy> policy_;
  ControlChannel channel_{ecg_.graph()};
  std::vector<VertexAgent> agents_;
  /// One entry per vertex, refilled each round from the owners' own
  /// statistics before begin_round (VertexAgent::begin_round's hit rule).
  std::vector<IndexMemoEntry> index_memo_;
  BranchAndBoundMwisSolver exact_{cfg_.bnb_node_cap};
  GreedyMwisSolver greedy_;
  std::vector<int> prev_strategy_;
  std::int64_t t_ = 0;
  LoopbackTransport loopback_;  ///< The 3-argument constructor's transport.
  Transport& transport_;        ///< Declared after loopback_, which it may name.
};

}  // namespace mhca::net
