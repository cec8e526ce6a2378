// Exact MWIS by branch and bound with a clique-cover upper bound.
//
// The local enumeration step of the distributed robust PTAS (Alg. 3 line 8)
// needs exact MWIS over r-hop candidate sets A_r(v) of the extended graph H.
// H decomposes naturally into per-master cliques (a node's M channel
// vertices), so a greedy clique cover gives a strong bound: at most one
// vertex per clique can be chosen, hence UB = sum of per-clique maxima.
//
// An iteration cap turns the solver into an anytime method: when exceeded,
// it returns the best set found so far — never worse than the greedy
// solution over the same instance — with `exact = false`, mirroring the
// paper's remark that a constant-approximation local solver may replace
// enumeration.
//
// Two search modes share the instance-build code (see BnbSolveOptions):
//
//   classic   The seed algorithm: one-shot greedy clique cover, DFS over
//             cliques with the static suffix-max bound. Kept as the exact
//             oracle above brute force's 24-vertex cap: tests cross-check
//             the enhanced search against it on ball-sized instances.
//
//   enhanced  Preprocessing reductions (non-positive-weight drop, isolated
//             take, degree-1 take/fold, adjacent weight-dominance removal),
//             connected-component decomposition (each component searched
//             independently — sum, not product, of subtree sizes), O(1)
//             conflict tests via an incremental conflict counter, pairwise
//             clique-bound corrections, and a residual refinement that
//             replaces each remaining clique's static max by its best
//             member not in conflict with the chosen set.
//
// Both modes are exact when they complete: on instances with a unique
// optimum they return identical results. Under a node-cap abort the two
// modes may return *different* (equally valid) anytime incumbents, because
// their search trees differ. See src/mwis/README.md for the bound
// hierarchy.
//
// Repeated solves (one per leader per decision slot) dominate the decision
// path, so the per-solve working set lives in a `SolveScratch` whose buffers
// are reused across solves (the solver's own for `solve`, a caller-owned
// one for `solve_with_scratch`). The graph decides where local adjacency
// comes from: a finalized graph's packed rows (mask + remap), an
// unfinalized graph's build-phase lists (per-neighbor binary search) — the
// same bits either way. Reuse contract: a scratch may be shared by solves
// over *different* graphs and candidate sets (buffers resize as needed) but
// never by two solves concurrently.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mwis/mwis.h"

namespace mhca {

/// Reusable working memory for BranchAndBoundMwisSolver. Treat as opaque:
/// contents are rewritten by every solve; only the allocations persist.
struct SolveScratch {
  std::vector<int> cands;                ///< Sorted original candidate ids.
  std::vector<double> w;                 ///< Local weights (folds mutate).
  std::vector<std::uint64_t> adj;        ///< Local bitset adjacency rows.
  std::vector<std::uint64_t> cand_mask;  ///< Global candidate bitset.
  /// Original id -> local id. Only entries whose `cand_mask` bit is set in
  /// the *current* solve are valid; everything else is stale garbage.
  std::vector<int> global_to_local;
  std::vector<std::size_t> order;        ///< Weight-descending vertex order.
  std::vector<std::vector<std::size_t>> cliques;
  std::vector<double> remaining;         ///< Clique-max suffix sums.
  std::vector<std::uint64_t> chosen_mask;
  std::vector<std::size_t> chosen;
  std::vector<std::uint64_t> greedy_mask;
  std::vector<std::size_t> best_set;
  // Enhanced-mode state (unused by the classic search).
  std::vector<int> conflict_cnt;         ///< #chosen neighbors per vertex.
  std::vector<std::uint8_t> vstate;      ///< Reduction state per vertex.
  std::vector<int> degree;               ///< Live local degree.
  std::vector<int> worklist;             ///< Reduction FIFO.
  std::vector<std::size_t> forced;       ///< Vertices taken by reductions.
  std::vector<std::pair<std::size_t, std::size_t>> folds;  ///< (kept, folded).
  std::vector<int> comp;                 ///< Component label per vertex.
  std::vector<std::size_t> comp_queue;   ///< Component BFS queue.
  std::vector<std::size_t> group_begin;  ///< Clique range per component.
  std::vector<std::size_t> group_end;
  std::vector<double> group_best_w;
  std::vector<std::vector<std::size_t>> group_best;
  std::vector<std::size_t> fallback_set; ///< Full-instance greedy backstop.
  std::vector<double> pair_deduct;       ///< Suffix bound corrections.
  std::vector<std::uint8_t> pair_matched;
};

/// Per-solve feature selection for BranchAndBoundMwisSolver. The defaults
/// are the production search.
struct BnbSolveOptions {
  /// Enhanced search: reductions + component decomposition + conflict
  /// counters + residual-refined clique bound. False = classic (seed)
  /// search, the exact oracle tests compare against.
  bool enhanced = true;
};

class BranchAndBoundMwisSolver : public MwisSolver {
 public:
  /// `solve` runs the enhanced search over the solver's own SolveScratch,
  /// so repeated calls reuse its buffers.
  explicit BranchAndBoundMwisSolver(std::int64_t node_cap = 5'000'000)
      : node_cap_(node_cap) {}

  std::string name() const override { return "branch-and-bound"; }

  MwisResult solve(const Graph& g, std::span<const double> weights,
                   std::span<const int> candidates) override;

  /// Solve using caller-owned working memory and explicit feature selection.
  MwisResult solve_with_scratch(const Graph& g,
                                std::span<const double> weights,
                                std::span<const int> candidates,
                                SolveScratch& scratch,
                                const BnbSolveOptions& opts = {}) const;

  std::int64_t node_cap() const { return node_cap_; }

 private:
  std::int64_t node_cap_;
  SolveScratch scratch_;  ///< Working memory of `solve`.
};

}  // namespace mhca
