// Per-vertex protocol agent (paper Algorithm 3, vertex-local view).
//
// An agent stores only what a real node could learn from the control
// channel: the membership, adjacency, sufficient statistics (µ̃, m) and
// status of its (2r+1)-hop neighborhood — O(m) space as claimed in §IV-C.
// Every decision it takes (leader self-election, local MWIS, status
// updates) is a function of this local table alone.
//
// Two membership modes (net/view.h):
//   kOmniscient — the runtime's delta feed reopens discovery after churn
//     (on_hello / finalize_discovery / reset_discovery), the pre-view-sync
//     behavior, byte-identical round for round to the lockstep engine.
//   kViewSync — the agent infers membership from the wire alone. It keeps a
//     persistent, ordered knowledge base of every member it has heard from
//     (adjacency, statistics, last-heard round) fed by periodic
//     stat-carrying keep-alive hellos; a member silent past
//     hello_timeout_slots becomes a suspect and is probed with
//     exponentially backed-off retries (backoff_base^attempt slots apart,
//     hello_max_retries attempts); exhausting the retries evicts it and
//     advances the agent's ViewId. While any suspect is outstanding the
//     agent decides conservatively: it never self-elects as leader, and a
//     Winner whose verdict was minted under a different view than its
//     current one abstains from transmitting — degraded throughput, never a
//     double-claim the agent could have avoided. Per-agent counters
//     (retries, timeouts, view changes, stale decisions) expose the cost.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "bandit/policy.h"
#include "graph/graph.h"
#include "mwis/distributed_ptas.h"
#include "mwis/mwis.h"
#include "net/message.h"
#include "net/view.h"

namespace mhca::net {

/// One vertex's bandit index for a round, computed once from the statistics
/// its owner holds (DistributedRuntime fills one entry per vertex per
/// round). An agent takes `index` for a member only when its own stored
/// (mean, count) match these bit for bit — a cache of the pure
/// `IndexPolicy::index_from`, so every agent still decides from its own
/// table.
struct IndexMemoEntry {
  double mean = 0.0;
  std::int64_t count = 0;
  double index = 0.0;
};

/// Per-agent robustness counters (runtime stats; aggregated per run).
struct AgentCounters {
  std::int64_t retries = 0;         ///< Liveness probes flooded.
  std::int64_t timeouts = 0;        ///< Members that became suspects.
  std::int64_t view_changes = 0;    ///< Own membership-epoch advances.
  std::int64_t stale_decisions = 0; ///< Rounds decided under stale views.
};

class VertexAgent {
 public:
  VertexAgent(int id, int r, MembershipMode mode = MembershipMode::kOmniscient,
              LivenessParams liveness = {});

  int id() const { return id_; }
  VertexStatus status() const { return status_; }
  MembershipMode mode() const { return mode_; }

  /// Whether this vertex's node is on the air (dynamics: a node that left
  /// keeps its agent — and its learned statistics — but sits out every
  /// round as a Loser until it rejoins).
  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  // ---- Discovery (initial, and scoped re-discovery after churn) ----
  /// Record another vertex's hello (its id, direct neighbor list, and
  /// current sufficient statistics — the paper's first WB round collects
  /// ids *and* weights of the local neighborhood). Omniscient mode only;
  /// view-sync hellos go through on_membership_message.
  void on_hello(const Message& msg);
  /// Own direct neighbors (an agent knows who it can hear — a link-layer
  /// fact in both modes).
  void set_own_neighbors(std::vector<int> neighbors);
  /// Build the local subgraph from the collected hellos. Must be called
  /// once after all hellos have been delivered (both modes use this to
  /// close initial discovery).
  void finalize_discovery();
  /// Re-open discovery after the local topology changed (omniscient mode:
  /// the runtime calls this for every agent within the change's blast
  /// radius, then re-floods hellos and finalizes again). Learning state is
  /// untouched; the member table is rebuilt from the fresh hellos, whose
  /// carried statistics keep every index consistent network-wide.
  void reset_discovery();

  /// Members of this agent's (2r+1)-hop table (sorted, including self) —
  /// the "old ball" side of the runtime's blast-radius computation, and the
  /// membership the convergence oracle compares against ground truth.
  const std::vector<int>& members() const { return members_; }

  // ---- View-synchronous membership (mode() == kViewSync) ----
  const ViewId& view() const { return view_; }
  bool has_suspects() const { return suspect_count_ > 0; }
  const AgentCounters& counters() const { return counters_; }

  /// A membership-plane delivery (kHello or kViewChange, possibly delayed):
  /// adopt any greater view, admit/refresh the sender's knowledge entry
  /// (adjacency round-monotonically, statistics count-monotonically), clear
  /// suspicion, and honor probes/solicits addressed to this agent. `now` is
  /// the delivery round (>= msg.round under delay).
  void on_membership_message(const Message& msg, std::int64_t now);
  /// Evaluate liveness at round `now`: silent members become suspects,
  /// due probes are returned (the runtime floods them), and suspects whose
  /// retry budget is exhausted are evicted — advancing this agent's view.
  std::vector<int> liveness_pass(std::int64_t now);
  /// Apply any deferred structural rebuild / view advance accumulated by
  /// the membership phase (batched so a burst of admissions costs one
  /// rebuild and one view change, like a real view-synchronous install).
  void flush_membership();
  /// Consume the "my view advanced, announce it" flag (runtime floods the
  /// kViewChange).
  bool take_view_dirty();
  /// Consume the "re-advertise myself this round" flag (set by link-layer
  /// changes, probes addressed to me, and solicits).
  bool take_hello_pending();
  /// Consume the "my next hello should solicit re-advertisements" flag
  /// (set on rejoin, when this agent's knowledge is stale).
  bool take_solicit();
  /// This node just came back on the air: its knowledge is stale, so drop
  /// it, advance the view, and ask the neighborhood to re-introduce itself.
  void on_rejoin();
  /// Link layer reports a changed direct-neighbor set (view-sync analog of
  /// set_own_neighbors mid-run): rebuild and re-advertise.
  void refresh_own_neighbors(std::vector<int> neighbors);
  /// Conservative transmit gate: a Winner transmits only if it has no
  /// suspects and its verdict was minted in its current view. Counted as a
  /// stale decision when it blocks (note_stale_abstain).
  bool transmit_ok() const;
  void note_stale_abstain() { ++counters_.stale_decisions; }

  /// Oracle accessors (tests): a tracked member's stored statistics,
  /// believed adjacency (nullptr when the member is unknown), status and
  /// index this round, and the local subgraph over members() (local id i is
  /// members()[i]).
  std::pair<double, std::int64_t> member_stats(int v) const;
  const std::vector<int>* member_neighbors(int v) const;
  VertexStatus member_status(int v) const;
  /// A member's index and this agent's own, as of the last begin_round.
  double member_index(int v) const;
  double own_index() const { return own_index_; }
  const Graph& local_graph() const { return local_graph_; }

  // ---- Learning state (vertex-local) ----
  /// Incorporate an observed data rate after transmitting (eqs. 5-6).
  void observe(double reward);
  double own_mean() const { return mean_; }
  std::int64_t own_count() const { return count_; }

  // ---- Round lifecycle ----
  /// Reset all statuses to Candidate and recompute all indices from the
  /// stored statistics for round t (K = num_arms network-wide). `memo` is
  /// indexed by global vertex id and must cover every member: a member
  /// whose stored (mean, count) equal memo[v]'s bit for bit takes
  /// memo[v].index, any other calls policy.index_from itself.
  void begin_round(const IndexPolicy& policy, std::int64_t t, int num_arms,
                   std::span<const IndexMemoEntry> memo);
  /// WB: a neighbor's refreshed statistics (count-monotonic under
  /// view-sync, so duplicated or delayed updates can never regress).
  void on_weight_update(const Message& msg);
  /// LS: does this agent's (weight, id) dominate every known Candidate in
  /// its (2r+1)-hop table? Conservative under view-sync: an agent with
  /// outstanding suspects never self-elects.
  bool should_lead() const;
  /// LMWIS + status determination: solve local MWIS over Candidates within
  /// r hops and produce the verdicts (including the leader's own).
  std::vector<StatusEntry> lead(MwisSolver& solver);
  /// LB: apply a leader's verdicts to self / known members. Under
  /// view-sync a verdict from a round other than the current one (a
  /// delayed wire) is discarded.
  void on_determination(const Message& msg);

  /// Number of (2r+1)-hop members tracked, excluding self (the O(m)
  /// space-complexity metric of §IV-C). 0 before discovery.
  std::size_t table_size() const {
    return members_.empty() ? 0 : members_.size() - 1;
  }

  /// Resident bytes of this agent's member list, of its table columns and
  /// of its local graph — the net.mem.* gauges.
  std::int64_t member_list_bytes() const;
  std::int64_t table_bytes() const;
  std::int64_t local_graph_bytes() const {
    return local_graph_.resident_bytes();
  }

 private:
  /// A member's stored sufficient statistics (µ̃, m).
  struct Stats {
    double mean = 0.0;
    std::int64_t count = 0;
  };

  /// Everything this agent knows about one member (view-sync; persistent
  /// across rebuilds, ordered by id for deterministic iteration).
  struct MemberKnowledge {
    std::vector<int> neighbors;
    double mean = 0.0;
    std::int64_t count = 0;
    std::int64_t last_heard = 0;        ///< Send round of newest evidence.
    std::int64_t last_hello_round = -1; ///< Newest accepted adjacency.
    bool suspect = false;
    int probes_sent = 0;
    std::int64_t next_probe = 0;
  };

  double own_index_ = 0.0;

  int id_;
  int r_;
  MembershipMode mode_;
  LivenessParams liveness_;
  VertexStatus status_ = VertexStatus::kCandidate;
  bool active_ = true;

  double mean_ = 0.0;
  std::int64_t count_ = 0;
  std::int64_t round_now_ = 0;  ///< Current round (stale-verdict rejection).

  // Discovery state (omniscient mode): hellos in arrival order, sorted by
  // origin once at finalize_discovery (the last copy of an origin wins).
  // Their neighbor lists share one flat buffer, so discovery holds two
  // growing buffers per agent, not one allocation per hello.
  struct Hello {
    int origin = -1;
    // Neighbor list: hello_neighbors_[begin, begin + size).
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    double mean = 0.0;
    std::int64_t count = 0;
  };
  std::vector<int> own_neighbors_;
  std::vector<Hello> hellos_;
  std::vector<int> hello_neighbors_;
  bool discovered_ = false;

  // View-sync state.
  std::map<int, MemberKnowledge> knowledge_;  ///< Excludes self.
  ViewId view_{};
  ViewId decision_view_{};
  int suspect_count_ = 0;
  bool needs_rebuild_ = false;
  bool membership_changed_ = false;
  bool view_dirty_ = false;
  bool hello_pending_ = false;
  bool solicit_pending_ = false;
  AgentCounters counters_;

  // Local view: sorted member ids (== J_{2r+1}(id) incl. self), the local
  // graph over them, and the member table as three columns parallel to
  // members_ (local id i describes members_[i]): statistics, this round's
  // index, and status. The round loops read only the columns they need.
  // The self slot of each column is unused — own state lives in
  // mean_/count_/own_index_/status_.
  std::vector<int> members_;
  Graph local_graph_;
  std::vector<Stats> stats_;
  std::vector<double> index_;
  std::vector<VertexStatus> statuses_;
  int self_local_ = -1;
  // Computed at discovery: this agent's r-ball (local ids, sorted) —
  // static between membership changes.
  std::vector<int> r_ball_local_;
  // lead() working buffers, reused across rounds.
  std::vector<int> cand_buf_;
  std::vector<double> weight_buf_;

  /// Table slot (= local id) of a member other than self; -1 for self
  /// and for non-members. One binary search over members_.
  int member_slot(int global) const;
  void maybe_adopt(const ViewId& v);
  void bump_view();
  std::int64_t backoff_delay(int attempt) const;
  /// Rebuild members_/local_graph_/table/r-ball from knowledge_ (view-sync
  /// structural refresh; statuses are re-seeded at the next begin_round).
  void rebuild_local_view();
  /// Shared structural build. On entry members_ lists the *other* members
  /// (sorted) and `rows[j]` the neighbor list members_[j] advertised
  /// (global ids); self and own_neighbors_ are spliced in here. Builds the
  /// local graph, the r-ball and a zeroed table.
  void build_structures(std::vector<std::span<const int>>& rows);
  /// Table slot of the j-th other member (self's slot skipped).
  std::size_t other_slot(std::size_t j) const {
    return j < static_cast<std::size_t>(self_local_) ? j : j + 1;
  }
  /// Fill cand_buf_/weight_buf_ with the Candidates of the r-ball, in
  /// ascending local-id order.
  void gather_local_candidates();
  std::vector<StatusEntry> verdicts_from(const MwisResult& res);
};

}  // namespace mhca::net
