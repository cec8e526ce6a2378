// Distributed robust PTAS — lockstep engine (paper Algorithm 3).
//
// This class simulates the per-vertex protocol synchronously ("lockstep"):
// each mini-round it (1) elects LocalLeaders — Candidates whose weight is
// maximal among Candidates within their (2r+1)-hop neighborhood, (2) lets
// every leader solve local MWIS over the Candidates in its r-hop ball and
// mark them Winner/Loser, and (3) accounts for the messages the real
// protocol would flood (leader declaration to 2r+1 hops, determination
// results to 3r+1 hops). Because any two leaders are at hop distance
// ≥ 2r+2, their r-hop candidate sets are disjoint and non-adjacent, so the
// union of local MWISs stays independent (Theorem 3).
//
// The message-level implementation of the same protocol lives in src/net;
// integration tests check that both produce identical decisions. Benchmarks
// use this engine (it avoids materializing floods).
//
// Each mini-round is structured gather → solve → apply: candidate sets for
// every leader are collected first, then all leaders' local solves run
// (disjointness makes them embarrassingly parallel — `parallelism` fans
// them across a thread pool with per-worker scratch, leader-order
// deterministic: results are applied sequentially in election order, so
// winners, weights, and message traces are byte-identical at any
// parallelism), then statuses/messages are updated.
//
// The graph never changes between decision slots — only the weights do — so
// the constructor precomputes a NeighborhoodCache (per-vertex r-hop and
// (2r+1)-hop balls) and `run()` walks those cached spans: leader election
// checks each Candidate's election ball directly (equivalent to (2r+1)
// rounds of max-relaxation, which compute exactly the ball maxima a real
// flood would propagate), and local solves read cached r-balls instead of
// re-running BFS. The election is additionally structure-of-arrays and
// incremental: candidate weights live in a flat array of order-preserving
// 64-bit keys scanned with a blockwise branch-light max, and across
// mini-rounds only candidates whose election ball saw a status flip are
// rescanned — an unchanged ball means an unchanged maximum, so last round's
// "not a leader" verdict stands (see elect_by_cache). Message *accounting*
// still charges the real flood sizes. The relaxation-and-BFS formulation
// survives as a test-only oracle (tests/reference/seed_ptas.h); the
// equivalence suites demand byte-identical decisions against it — node-cap
// aborts and weight ties included.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/branch_and_bound.h"
#include "mwis/greedy.h"
#include "mwis/mwis.h"

namespace mhca {

/// Protocol status of a virtual vertex (paper §IV-C). LocalLeader is a
/// transient within-mini-round role of a Candidate, not a stored status.
enum class VertexStatus : std::uint8_t { kCandidate, kWinner, kLoser };

/// Which solver a LocalLeader runs on its r-hop candidate set.
enum class LocalSolverKind { kExact, kGreedy };

struct DistributedPtasConfig {
  int r = 2;                 ///< Paper's simulations use r = 2.
  int max_mini_rounds = 0;   ///< D; 0 = run until every vertex is marked.
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  /// Exact-local effort cap per solve. Tuned for the enhanced search
  /// (reductions + component split + refined bound): the typical local
  /// solve completes exactly well under it, the hard first-mini-round
  /// balls at r >= 3 fall back to the anytime contract (measured < 0.7%
  /// decision-weight loss vs unlimited at n=800, r=3), and per-slot
  /// decision latency stays bounded — the paper's robustness only needs a
  /// β-approximate local oracle. Raise for offline/optimum-quality runs.
  std::int64_t bnb_node_cap = kDefaultBnbNodeCap;
  bool count_messages = false;          ///< Track flood sizes (costs BFS).
  /// Fan independent per-leader local solves of one mini-round across
  /// worker threads (exact solver only). 0 = one worker per
  /// hardware thread, 1 = inline. Deterministic at any setting.
  int local_solve_parallelism = 0;
  /// Retired (memoized clique covers were removed); must be false, or the
  /// constructor throws. Goes once the perfbench harness stops copying it.
  bool use_memoized_covers = false;
  bool collect_stage_times = false;     ///< Accumulate per-stage timings.
  /// Worker threads for the one-time NeighborhoodCache build (count-then-
  /// fill, byte-identical at any setting). 0 = MHCA_CACHE_BUILD_WORKERS or
  /// one per hardware thread, 1 = the serial single-pass build.
  int cache_build_parallelism = 0;
};

/// Per-mini-round trace record (drives the Fig. 6 reproduction).
struct MiniRoundRecord {
  int mini_round = 0;          ///< 1-based.
  int leaders = 0;
  int new_winners = 0;
  int new_losers = 0;
  int candidates_remaining = 0;
  double cumulative_weight = 0.0;  ///< Summed weight of all winners so far.
  std::int64_t messages = 0;       ///< Messages flooded this mini-round.
};

struct DistributedPtasResult {
  std::vector<int> winners;   ///< Final independent set (sorted).
  double weight = 0.0;
  bool all_marked = false;    ///< Every vertex reached Winner/Loser.
  int mini_rounds_used = 0;
  std::vector<MiniRoundRecord> mini_rounds;
  std::int64_t total_messages = 0;
  std::int64_t total_mini_timeslots = 0;
  std::int64_t solver_nodes_explored = 0;
  /// True iff every exact-solver local solve completed within the node cap
  /// (always true for the greedy local solver).
  bool all_local_solves_exact = true;
};

/// Wall-clock spent per decision stage, accumulated across `run()` calls
/// while `collect_stage_times` is set (see `stage_times()`). The buckets
/// are *total*: `setup` + the four protocol stages + `validate` + `other`
/// account for the whole `run()` call (`other` is the measured remainder —
/// loop bookkeeping, record pushes, timer overhead), so Σ buckets ≈ the
/// wall-clock a caller measures around `run()`. bench_decision_path asserts
/// ≥95% coverage per cell; an untimed hot spot (like the former O(W²)
/// winner validation, 742 ms of invisible time at 50k vertices) now shows
/// up in `validate`/`other` instead of vanishing.
struct DecisionStageTimes {
  double setup_ms = 0.0;     ///< Status init + SoA election key fill.
  double election_ms = 0.0;  ///< Leader election.
  double gather_ms = 0.0;    ///< Ball lookup/BFS + candidate gather.
  double solve_ms = 0.0;     ///< Local MWIS solves.
  double apply_ms = 0.0;     ///< Status updates + message accounting.
  double validate_ms = 0.0;  ///< Winner sort + independent-set check.
  double other_ms = 0.0;     ///< run() remainder outside the named buckets.

  double total_ms() const {
    return setup_ms + election_ms + gather_ms + solve_ms + apply_ms +
           validate_ms + other_ms;
  }
};

class DistributedRobustPtas {
 public:
  /// The graph reference must outlive this object. Mutations of the graph
  /// must be reported through on_graph_delta before the next run().
  explicit DistributedRobustPtas(const Graph& h,
                                 DistributedPtasConfig cfg = {});

  const DistributedPtasConfig& config() const { return cfg_; }

  /// The precomputed ball structure.
  const NeighborhoodCache& neighborhood_cache() const { return cache_; }

  /// Run one full strategy decision over the given vertex weights.
  /// `active` is a per-vertex activity mask (dynamics; empty = all active):
  /// inactive vertices start the decision as Losers — they never become
  /// candidates, leaders, or winners, exactly as a node that is off the air
  /// cannot participate in the protocol.
  DistributedPtasResult run(std::span<const double> weights,
                            std::span<const char> active = {});

  /// The graph this engine reads just changed (src/dynamics): `touched` are
  /// the H vertices incident to an added/removed edge. Re-synchronizes the
  /// NeighborhoodCache by scoped invalidation (balls within 2r+1 hops of a
  /// touched vertex, old or new graph), and scope-invalidates the lazily
  /// cached LB flood ball sizes the same way: only vertices within 3r+2
  /// hops of `touched` on the *new* graph can have a changed |J_{3r+2}| (the
  /// touched set contains both endpoints of every removed edge, so any
  /// old-graph path from a touched vertex survives from its last removed
  /// edge on — old-graph reach is a subset of new-graph reach). Decisions
  /// after this call are byte-identical to a freshly constructed engine
  /// (fuzzed by tests/dynamics_differential_test.cc).
  void on_graph_delta(std::span<const int> touched);

  /// Messages the Weight-Broadcast step of Algorithm 2 costs: each vertex of
  /// the previous strategy floods its new estimate within 2r+1 hops.
  std::int64_t weight_broadcast_messages(std::span<const int> prev_winners);

  const DecisionStageTimes& stage_times() const { return stage_times_; }
  void reset_stage_times() { stage_times_ = {}; }

 private:
  /// |J_{3r+2}(v)|, cached lazily per vertex (BFS on first use).
  int lb_ball_size(int v);

  /// Election: a Candidate leads iff no Candidate in its cached (2r+1)-hop
  /// ball has a larger key (ties broken by the lower vertex id — the paper
  /// assumes distinct weights).
  ///
  /// Keys live in a structure-of-arrays `election_keys_` of order-preserving
  /// 64-bit encodings (0 = not a candidate), so the ball scan is a
  /// branch-light blockwise max over one flat array instead of per-member
  /// status checks and double compares. Across mini-rounds the election is
  /// *incremental and event-driven* via blocker certificates: when a scan
  /// finds a ball member outranking v, v is chained onto that blocker's
  /// rescan list and not looked at again while the blocker lives (a live
  /// blocker still outranks v, so v still cannot lead). When a vertex
  /// leaves candidacy, exactly its chained candidates are re-examined — and
  /// a rescan *resumes* where the last scan stopped, because keys only
  /// decrease within a decision, so the already-scanned prefix can never
  /// block again. Scans run in three tiers of increasing reach and memory
  /// footprint (CSR neighbor row, r-ball, election ball). Each candidate
  /// pays at most one amortized pass per tier per decision, and rounds
  /// after the first cost O(status flips + rescans), not O(candidates).
  /// `first_round` scans everyone.
  void elect_by_cache(const std::vector<VertexStatus>& status,
                      std::vector<int>& leaders, bool first_round);

  /// Collect, for every elected leader, the Candidates of its r-ball into
  /// the flat gather buffers.
  void gather_local_instances(const std::vector<int>& leaders,
                              const std::vector<VertexStatus>& status);

  /// Solve every gathered instance (exact solves fan out across workers),
  /// filling solve_results_ leader by leader.
  void solve_local_instances(const std::vector<int>& leaders,
                             std::span<const double> weights);

  const Graph& h_;
  DistributedPtasConfig cfg_;
  BranchAndBoundMwisSolver exact_;
  GreedyMwisSolver greedy_;
  BfsScratch scratch_;
  NeighborhoodCache cache_;
  /// Per-vertex |J_{3r+2}(v)| of the LB flood, the one radius the cache
  /// does not store (-1 = not yet computed).
  std::vector<int> lb_ball_size_;
  // Incremental SoA election state (see elect_by_cache).
  // Allocated once in the constructor and reset *lazily* per decision:
  // run() bumps `soa_epoch_` instead of reassigning the arrays, and the
  // first touch of a vertex in a decision (its classify() or its first
  // blockee chaining on) stamps it and clears its chain head and cursors —
  // so per-decision reset cost scales with the vertices actually touched,
  // not O(n) writes across five arrays. `election_keys_` keeps a stronger
  // invariant instead of a stamp: it is all-zero *between* decisions
  // (every status flip zeroes its key in the apply phase; an early exit on
  // the mini-round budget zeroes the leftover candidates before
  // returning), so the per-decision fill writes only candidate keys.
  std::vector<std::uint64_t> election_keys_;  ///< 0 = not a candidate.
  std::vector<int> changed_;          ///< Status flips of this mini-round.
  std::vector<int> died_;             ///< Last round's flips (rescan seeds).
  std::vector<int> chain_head_;       ///< First candidate blocked by vertex.
  std::vector<int> chain_next_;       ///< Next candidate sharing the blocker.
  std::vector<std::uint64_t> has_chain_;  ///< Bit per vertex: chain nonempty.
  std::vector<int> rescan_buf_;       ///< Per-round rescan worklist.
  /// Per-candidate scan resume indices, one per tier (neighbors / r-ball /
  /// election ball), packed together so a rescan touches one cache line.
  struct ScanCursor {
    int nbr = 0;
    int rball = 0;
    int eball = 0;
  };
  std::vector<ScanCursor> cursor_;
  /// Per-vertex decision stamp: cursor_/chain_head_ entries are valid only
  /// where soa_stamp_[v] == soa_epoch_ (see the lazy-reset note above).
  std::vector<std::uint32_t> soa_stamp_;
  std::uint32_t soa_epoch_ = 0;
  std::vector<int> reach_buf_;           ///< on_graph_delta invalidation.
  std::vector<int> gather_cands_;        ///< Per-leader candidates, flat.
  std::vector<std::size_t> gather_offsets_;
  std::vector<MwisResult> solve_results_;
  std::vector<SolveScratch> worker_scratch_;
  std::vector<int> ball_buf_;            ///< lb_ball_size() BFS output.
  DecisionStageTimes stage_times_;
};

}  // namespace mhca
