#include "mwis/branch_and_bound.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/assert.h"

namespace mhca {
namespace {

/// One in-flight solve over caller-owned scratch buffers. Local vertex ids
/// are 0..n-1 (sorted original ids), adjacency as n bitset rows for O(n/64)
/// conflict checks.
///
/// Hosts both search modes (see branch_and_bound.h): `run_classic` is the
/// seed algorithm, kept as the exact oracle tests compare against;
/// `run_enhanced` adds reductions, component decomposition, conflict
/// counters and the refined bound stack.
class Search {
 public:
  Search(const Graph& g, std::span<const double> weights,
         std::span<const int> candidates, std::int64_t cap, SolveScratch& s,
         const BnbSolveOptions& opts)
      : s_(s), opts_(opts), cap_(cap) {
    s_.cands.assign(candidates.begin(), candidates.end());
    std::sort(s_.cands.begin(), s_.cands.end());
    MHCA_ASSERT(std::adjacent_find(s_.cands.begin(), s_.cands.end()) ==
                    s_.cands.end(),
                "duplicate candidates");
    n_ = s_.cands.size();
    s_.w.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      MHCA_ASSERT(s_.cands[i] >= 0 && s_.cands[i] < g.size(),
                  "candidate out of range");
      s_.w[i] = weights[static_cast<std::size_t>(s_.cands[i])];
    }
    blocks_ = (n_ + 63) / 64;
    s_.adj.assign(n_ * blocks_, 0);
    if (g.has_adjacency_matrix()) {
      build_adjacency_from_rows(g);
    } else if (g.has_sparse_rows()) {
      build_adjacency_from_sparse_rows(g);
    } else {
      build_adjacency_from_lists(g);
    }
  }

  MwisResult run() {
    MwisResult res = opts_.enhanced ? run_enhanced() : run_classic();
    std::sort(res.vertices.begin(), res.vertices.end());
    res.exact = !aborted_;
    res.nodes_explored = explored_;
    return res;
  }

 private:
  static constexpr std::uint8_t kActive = 0;
  static constexpr std::uint8_t kExcluded = 1;
  static constexpr std::uint8_t kTaken = 2;
  static constexpr std::uint8_t kFolded = 3;

  // ---------------------------------------------------------------- build

  /// Unfinalized graphs: scan each candidate's (typically short) neighbor
  /// list against the sorted candidate array.
  void build_adjacency_from_lists(const Graph& g) {
    for (std::size_t i = 0; i < n_; ++i) {
      for (int u : g.neighbors(s_.cands[i])) {
        const auto it =
            std::lower_bound(s_.cands.begin(), s_.cands.end(), u);
        if (it != s_.cands.end() && *it == u) {
          const auto j = static_cast<std::size_t>(it - s_.cands.begin());
          s_.adj[i * blocks_ + j / 64] |= (std::uint64_t{1} << (j % 64));
        }
      }
    }
  }

  /// Fast path: mask each candidate's packed adjacency row with the global
  /// candidate bitset, then remap surviving bits to local ids. Stale
  /// `global_to_local` entries from earlier solves are harmless — only ids
  /// whose `cand_mask` bit was set *this* build are ever looked up.
  void build_adjacency_from_rows(const Graph& g) {
    const std::size_t gb = g.row_blocks();
    s_.cand_mask.assign(gb, 0);
    if (s_.global_to_local.size() < static_cast<std::size_t>(g.size()))
      s_.global_to_local.resize(static_cast<std::size_t>(g.size()));
    for (std::size_t i = 0; i < n_; ++i) {
      const auto gi = static_cast<std::size_t>(s_.cands[i]);
      s_.cand_mask[gi / 64] |= (std::uint64_t{1} << (gi % 64));
      s_.global_to_local[gi] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const auto row = g.adjacency_row(s_.cands[i]);
      std::uint64_t* out = &s_.adj[i * blocks_];
      for (std::size_t b = 0; b < gb; ++b) {
        std::uint64_t word = row[b] & s_.cand_mask[b];
        while (word != 0) {
          const auto gu = b * 64 + static_cast<std::size_t>(
                                       std::countr_zero(word));
          const auto j = static_cast<std::size_t>(s_.global_to_local[gu]);
          out[j / 64] |= (std::uint64_t{1} << (j % 64));
          word &= word - 1;
        }
      }
    }
  }

  /// Sharded fast path (n beyond the dense-matrix limit): mask each
  /// candidate's stored nonzero blocks against a full-width candidate
  /// bitset and remap the surviving bits to local ids — O(row blocks) per
  /// row, exactly the dense gather restricted to the blocks that exist.
  void build_adjacency_from_sparse_rows(const Graph& g) {
    const std::size_t gb = (static_cast<std::size_t>(g.size()) + 63) / 64;
    s_.cand_mask.assign(gb, 0);
    if (s_.global_to_local.size() < static_cast<std::size_t>(g.size()))
      s_.global_to_local.resize(static_cast<std::size_t>(g.size()));
    for (std::size_t i = 0; i < n_; ++i) {
      const auto gi = static_cast<std::size_t>(s_.cands[i]);
      s_.cand_mask[gi / 64] |= (std::uint64_t{1} << (gi % 64));
      s_.global_to_local[gi] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const auto row_blocks = g.sparse_row_blocks(s_.cands[i]);
      const auto row_words = g.sparse_row_words(s_.cands[i]);
      std::uint64_t* out = &s_.adj[i * blocks_];
      for (std::size_t k = 0; k < row_blocks.size(); ++k) {
        const auto b = static_cast<std::size_t>(row_blocks[k]);
        std::uint64_t word = row_words[k] & s_.cand_mask[b];
        while (word != 0) {
          const auto gu = b * 64 + static_cast<std::size_t>(
                                       std::countr_zero(word));
          const auto j = static_cast<std::size_t>(s_.global_to_local[gu]);
          out[j / 64] |= (std::uint64_t{1} << (j % 64));
          word &= word - 1;
        }
      }
    }
  }

  bool adjacent(std::size_t v, std::size_t u) const {
    return (s_.adj[v * blocks_ + u / 64] & (std::uint64_t{1} << (u % 64))) !=
           0;
  }

  /// Weight-descending (ties by local id) order shared by the clique cover
  /// and the greedy incumbent. `active_only` restricts to post-reduction
  /// survivors.
  void build_order(bool active_only) {
    s_.order.clear();
    for (std::size_t i = 0; i < n_; ++i)
      if (!active_only || s_.vstate[i] == kActive) s_.order.push_back(i);
    std::sort(s_.order.begin(), s_.order.end(),
              [&](std::size_t a, std::size_t b) {
                if (s_.w[a] != s_.w[b]) return s_.w[a] > s_.w[b];
                return a < b;
              });
  }

  // -------------------------------------------------------------- classic

  MwisResult run_classic() {
    build_order(/*active_only=*/false);
    build_clique_cover_greedy();
    sort_cliques_and_suffix(0, num_cliques_, /*sentinel=*/true,
                            /*clamp_negative_maxima=*/false);
    seed_with_greedy();
    s_.chosen_mask.assign(blocks_, 0);
    s_.chosen.clear();
    cur_weight_ = 0.0;
    dfs_classic(0);

    MwisResult res;
    res.vertices.reserve(s_.best_set.size());
    for (std::size_t i : s_.best_set) res.vertices.push_back(s_.cands[i]);
    res.weight = best_weight_;
    return res;
  }

  bool conflicts_with_chosen(std::size_t v) const {
    const std::uint64_t* row = &s_.adj[v * blocks_];
    for (std::size_t b = 0; b < blocks_; ++b)
      if (row[b] & s_.chosen_mask[b]) return true;
    return false;
  }

  /// Greedy clique cover: visit vertices of `order` by weight desc; place
  /// each into the first clique it is fully adjacent to, else open a new
  /// clique. On the extended conflict graph this recovers (refinements of)
  /// the per-master channel cliques. Inner vectors of `s_.cliques` are
  /// recycled across solves; only the first `num_cliques_` are meaningful.
  void build_clique_cover_greedy() {
    num_cliques_ = 0;
    auto& cliques = s_.cliques;
    for (std::size_t v : s_.order) {
      bool placed = false;
      for (std::size_t qi = 0; qi < num_cliques_; ++qi) {
        auto& q = cliques[qi];
        bool all_adjacent = true;
        for (std::size_t u : q) {
          if (!adjacent(v, u)) {
            all_adjacent = false;
            break;
          }
        }
        if (all_adjacent) {
          q.push_back(v);
          placed = true;
          break;
        }
      }
      if (!placed) {
        if (num_cliques_ == cliques.size()) cliques.emplace_back();
        cliques[num_cliques_].clear();
        cliques[num_cliques_].push_back(v);
        ++num_cliques_;
      }
    }
  }

  /// Sort cliques [begin, end) by their max weight descending so the bound
  /// tightens early (members are already weight-descending), then fill
  /// `remaining` with suffix sums of per-clique maxima over that range:
  /// remaining[i] bounds any completion of a partial solution that has
  /// settled cliques begin..i-1 of the range. With `sentinel`,
  /// remaining[end] is written as 0 (the classic search reads it).
  /// `clamp_negative_maxima` floors each clique's contribution at 0 — a
  /// completion may always leave a clique empty, so a negative max must not
  /// drag the bound below what is achievable; the classic search keeps the
  /// seed's unclamped arithmetic (the paper's index weights are positive).
  void sort_cliques_and_suffix(std::size_t begin, std::size_t end,
                               bool sentinel, bool clamp_negative_maxima) {
    auto& cliques = s_.cliques;
    std::sort(cliques.begin() + static_cast<std::ptrdiff_t>(begin),
              cliques.begin() + static_cast<std::ptrdiff_t>(end),
              [&](const auto& a, const auto& b) {
                if (s_.w[a.front()] != s_.w[b.front()])
                  return s_.w[a.front()] > s_.w[b.front()];
                return a.front() < b.front();
              });
    if (s_.remaining.size() < end + 1) s_.remaining.resize(end + 1);
    if (sentinel) s_.remaining[end] = 0.0;
    for (std::size_t i = end; i-- > begin;) {
      double top = s_.w[cliques[i].front()];
      if (clamp_negative_maxima && top < 0.0) top = 0.0;
      s_.remaining[i] = (i + 1 < end ? s_.remaining[i + 1] : 0.0) + top;
    }
  }

  /// One masked weight-descending greedy pass over `s_.order`: every taken
  /// vertex is marked in `greedy_mask` and handed to `take`. The single
  /// scan serves the classic incumbent, the enhanced anytime backstop, and
  /// the per-group incumbents — one place for the tie-handling and the
  /// negative-weight cutoff. `skip_negative` is off on the classic path
  /// (seed behavior, positive-weight domain).
  template <typename Take>
  void greedy_scan(bool skip_negative, Take&& take) {
    s_.greedy_mask.assign(blocks_, 0);
    for (std::size_t v : s_.order) {
      if (skip_negative && s_.w[v] < 0.0) break;  // order is weight-desc
      const std::uint64_t* row = &s_.adj[v * blocks_];
      bool ok = true;
      for (std::size_t b = 0; b < blocks_; ++b)
        if (row[b] & s_.greedy_mask[b]) {
          ok = false;
          break;
        }
      if (ok) {
        s_.greedy_mask[v / 64] |= (std::uint64_t{1} << (v % 64));
        take(v);
      }
    }
  }

  void seed_with_greedy() {
    s_.best_set.clear();
    best_weight_ = 0.0;
    greedy_scan(/*skip_negative=*/false, [&](std::size_t v) {
      s_.best_set.push_back(v);
      best_weight_ += s_.w[v];
    });
  }

  void dfs_classic(std::size_t ci) {
    if (aborted_) return;
    if (++explored_ > cap_) {
      aborted_ = true;
      return;
    }
    if (ci == num_cliques_) {
      if (cur_weight_ > best_weight_) {
        best_weight_ = cur_weight_;
        s_.best_set = s_.chosen;
      }
      return;
    }
    if (cur_weight_ + s_.remaining[ci] <= best_weight_) return;  // bound
    bool rest_pruned = false;
    for (std::size_t v : s_.cliques[ci]) {
      // Members are weight-descending: once cur + w[v] + UB(rest) cannot
      // beat the incumbent, neither can any later (lighter) member — and,
      // for w[v] >= 0, neither can leaving the clique empty.
      if (cur_weight_ + s_.w[v] + s_.remaining[ci + 1] <= best_weight_) {
        rest_pruned = s_.w[v] >= 0.0;
        break;
      }
      if (conflicts_with_chosen(v)) continue;
      s_.chosen_mask[v / 64] |= (std::uint64_t{1} << (v % 64));
      s_.chosen.push_back(v);
      cur_weight_ += s_.w[v];
      dfs_classic(ci + 1);
      cur_weight_ -= s_.w[v];
      s_.chosen.pop_back();
      s_.chosen_mask[v / 64] &= ~(std::uint64_t{1} << (v % 64));
      if (aborted_) return;
    }
    if (!rest_pruned) dfs_classic(ci + 1);  // leave this clique empty
  }

  // ------------------------------------------------------------- enhanced

  MwisResult run_enhanced() {
    // Full-instance greedy backstop, computed on the untouched instance so
    // the anytime contract (result >= greedy) survives reductions + abort.
    build_order(/*active_only=*/false);
    s_.fallback_set.clear();
    double fallback_w = 0.0;
    greedy_scan(/*skip_negative=*/true, [&](std::size_t v) {
      s_.fallback_set.push_back(v);
      fallback_w += s_.w[v];
    });

    s_.vstate.assign(n_, kActive);
    s_.forced.clear();
    s_.folds.clear();
    base_weight_ = 0.0;
    reduce();
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n_; ++i)
      if (s_.vstate[i] != kActive) ++removed;

    // First-mini-round balls rarely reduce at all; reuse the full order
    // (same contents, weights untouched by any fold) instead of re-sorting.
    if (removed != 0) build_order(/*active_only=*/true);
    label_components();
    build_clique_cover_greedy();  // order is active-only here
    group_cliques_by_component();
    seed_groups_with_greedy();

    // Independent DFS per component: subtree sizes add up instead of
    // multiplying. Groups after an abort keep their greedy incumbents.
    s_.conflict_cnt.assign(n_, 0);
    s_.chosen.clear();
    for (std::size_t g = 0; g < num_groups_ && !aborted_; ++g) {
      cur_group_end_ = s_.group_end[g];
      best_w_ = &s_.group_best_w[g];
      best_out_ = &s_.group_best[g];
      cur_weight_ = 0.0;
      dfs_enhanced(s_.group_begin[g]);
    }

    // Assemble: forced takes + per-group bests, then unfold in reverse
    // (a folded vertex joins whenever its kept neighbor stayed out; its
    // weight is already in base_weight_ either way).
    double total = base_weight_;
    s_.chosen_mask.assign(blocks_, 0);
    auto mark = [&](std::size_t v) {
      s_.chosen_mask[v / 64] |= (std::uint64_t{1} << (v % 64));
    };
    auto marked = [&](std::size_t v) {
      return (s_.chosen_mask[v / 64] & (std::uint64_t{1} << (v % 64))) != 0;
    };
    s_.best_set.clear();
    for (std::size_t v : s_.forced) {
      s_.best_set.push_back(v);
      mark(v);
    }
    for (std::size_t g = 0; g < num_groups_; ++g) {
      total += s_.group_best_w[g];
      for (std::size_t v : s_.group_best[g]) {
        s_.best_set.push_back(v);
        mark(v);
      }
    }
    for (std::size_t i = s_.folds.size(); i-- > 0;) {
      const auto [kept, folded] = s_.folds[i];
      if (!marked(kept)) {
        s_.best_set.push_back(folded);
        mark(folded);
      }
    }
    if (fallback_w > total) {  // only reachable after a node-cap abort
      s_.best_set = s_.fallback_set;
      total = fallback_w;
      // Fallback weights are the originals: the fallback sum was taken
      // before any fold mutated s_.w.
    }

    MwisResult res;
    res.vertices.reserve(s_.best_set.size());
    for (std::size_t i : s_.best_set) res.vertices.push_back(s_.cands[i]);
    res.weight = total;
    return res;
  }

  /// Exactness-preserving preprocessing on the local instance. Rules:
  ///   non-positive drop  w[v] <= 0 never improves a solution; remove.
  ///   isolated take      deg 0, w >= 0: some optimum contains v.
  ///   degree-1 take      deg(v) = 1 with neighbor u, w[v] >= w[u]: swap
  ///                      u -> v in any optimum; take v, drop u.
  ///   degree-1 fold      deg(v) = 1, 0 < w[v] < w[u]: v is in the optimum
  ///                      iff u is not. Remove v, charge w[v] to the base,
  ///                      set w[u] -= w[v]; reconstruction re-adds v when
  ///                      u stays out.
  ///   dominance          adjacent u, v with N(v)\{u} ⊆ N(u)\{v} and
  ///                      w[v] >= w[u]: any optimum holding u may swap to
  ///                      v; remove u.
  /// Removals physically clear bits from surviving rows, so every later
  /// stage (cover, components, DFS) sees only live vertices. FIFO worklist
  /// keeps the outcome deterministic.
  void reduce() {
    auto& deg = s_.degree;
    deg.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      int d = 0;
      for (std::size_t b = 0; b < blocks_; ++b)
        d += std::popcount(s_.adj[i * blocks_ + b]);
      deg[i] = d;
    }
    auto& queue = s_.worklist;
    queue.clear();
    for (std::size_t i = 0; i < n_; ++i) queue.push_back(static_cast<int>(i));

    auto enqueue = [&](std::size_t v) { queue.push_back(static_cast<int>(v)); };
    // Detach x from the live instance: clear its bit from every live
    // neighbor's row and requeue them (their degree changed).
    auto detach = [&](std::size_t x) {
      for (std::size_t b = 0; b < blocks_; ++b) {
        std::uint64_t word = s_.adj[x * blocks_ + b];
        while (word != 0) {
          const std::size_t t =
              b * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          if (s_.vstate[t] != kActive) continue;
          s_.adj[t * blocks_ + x / 64] &= ~(std::uint64_t{1} << (x % 64));
          --deg[t];
          enqueue(t);
        }
      }
    };
    auto exclude = [&](std::size_t x) {
      s_.vstate[x] = kExcluded;
      detach(x);
    };
    auto take = [&](std::size_t x) {
      s_.vstate[x] = kTaken;
      s_.forced.push_back(x);
      base_weight_ += s_.w[x];
      for (std::size_t b = 0; b < blocks_; ++b) {
        std::uint64_t word = s_.adj[x * blocks_ + b];
        while (word != 0) {
          const std::size_t u =
              b * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          if (s_.vstate[u] == kActive) exclude(u);
        }
      }
    };

    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const auto x = static_cast<std::size_t>(queue[qi]);
      if (s_.vstate[x] != kActive) continue;
      if (s_.w[x] <= 0.0) {
        // Dropping a zero-weight vertex keeps the optimal *weight* exact.
        exclude(x);
        continue;
      }
      if (deg[x] == 0) {
        take(x);
        continue;
      }
      if (deg[x] == 1) {
        std::size_t u = 0;
        for (std::size_t b = 0; b < blocks_; ++b) {
          const std::uint64_t word = s_.adj[x * blocks_ + b];
          if (word != 0) {
            u = b * 64 + static_cast<std::size_t>(std::countr_zero(word));
            break;
          }
        }
        if (s_.w[x] >= s_.w[u]) {
          exclude(u);
          take(x);  // x is isolated once u is gone
        } else {
          s_.folds.emplace_back(u, x);
          base_weight_ += s_.w[x];
          s_.w[u] -= s_.w[x];
          s_.vstate[x] = kFolded;
          s_.adj[u * blocks_ + x / 64] &= ~(std::uint64_t{1} << (x % 64));
          --deg[u];
          enqueue(u);  // u's degree and weight both changed
        }
        continue;
      }
      // Dominance by a live neighbor v: N(v)\{x} ⊆ N(x)\{v} and
      // w[v] >= w[x]. Row check: bits of v not in x's row must be {x}.
      bool removed = false;
      for (std::size_t b = 0; b < blocks_ && !removed; ++b) {
        std::uint64_t word = s_.adj[x * blocks_ + b];
        while (word != 0) {
          const std::size_t v =
              b * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          if (s_.w[v] < s_.w[x]) continue;
          bool subset = true;
          for (std::size_t bb = 0; bb < blocks_; ++bb) {
            std::uint64_t extra =
                s_.adj[v * blocks_ + bb] & ~s_.adj[x * blocks_ + bb];
            if (bb == x / 64) extra &= ~(std::uint64_t{1} << (x % 64));
            if (extra != 0) {
              subset = false;
              break;
            }
          }
          if (subset) {
            exclude(x);
            removed = true;
            break;
          }
        }
      }
    }
  }

  /// Label live vertices with their connected component, in ascending
  /// discovery order (component ids are dense and deterministic).
  void label_components() {
    s_.comp.assign(n_, -1);
    num_groups_ = 0;
    auto& queue = s_.comp_queue;
    for (std::size_t i = 0; i < n_; ++i) {
      if (s_.vstate[i] != kActive || s_.comp[i] >= 0) continue;
      const int c = static_cast<int>(num_groups_++);
      queue.clear();
      queue.push_back(i);
      s_.comp[i] = c;
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const std::size_t v = queue[qi];
        for (std::size_t b = 0; b < blocks_; ++b) {
          std::uint64_t word = s_.adj[v * blocks_ + b];
          while (word != 0) {
            const std::size_t u =
                b * 64 + static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            if (s_.comp[u] < 0) {
              s_.comp[u] = c;
              queue.push_back(u);
            }
          }
        }
      }
    }
  }

  /// Partition cliques into contiguous per-component ranges (a clique's
  /// members are pairwise adjacent, hence single-component) and build each
  /// range's suffix bound independently.
  void group_cliques_by_component() {
    auto& cliques = s_.cliques;
    std::sort(cliques.begin(),
              cliques.begin() + static_cast<std::ptrdiff_t>(num_cliques_),
              [&](const auto& a, const auto& b) {
                const int ca = s_.comp[a.front()];
                const int cb = s_.comp[b.front()];
                if (ca != cb) return ca < cb;
                if (s_.w[a.front()] != s_.w[b.front()])
                  return s_.w[a.front()] > s_.w[b.front()];
                return a.front() < b.front();
              });
    s_.group_begin.assign(num_groups_, 0);
    s_.group_end.assign(num_groups_, 0);
    std::size_t i = 0;
    for (std::size_t g = 0; g < num_groups_; ++g) {
      s_.group_begin[g] = i;
      while (i < num_cliques_ &&
             s_.comp[cliques[i].front()] == static_cast<int>(g))
        ++i;
      s_.group_end[g] = i;
      sort_cliques_and_suffix(s_.group_begin[g], s_.group_end[g],
                              /*sentinel=*/false,
                              /*clamp_negative_maxima=*/true);
      compute_pair_deductions(s_.group_begin[g], s_.group_end[g]);
    }
    MHCA_ASSERT(i == num_cliques_, "clique grouping lost a clique");
  }

  /// Pairwise tightening of the suffix bound: greedily match cliques of
  /// [begin, end) whose top (max-weight) members conflict — such a pair can
  /// never realize both tops, so min(top - second) of the two cliques comes
  /// off the additive bound. Pairs are formed scanning from the back, so
  /// every pair lies inside each suffix that starts at or before its first
  /// clique: pair_deduct[i] is a sound deduction for remaining[i]. O(1) to
  /// apply per DFS node.
  void compute_pair_deductions(std::size_t begin, std::size_t end) {
    if (s_.pair_deduct.size() < end + 1) s_.pair_deduct.resize(end + 1);
    auto& cliques = s_.cliques;
    auto& matched = s_.pair_matched;
    matched.assign(end - begin, 0);
    // Contributions are floored at 0 (see sort_cliques_and_suffix), so the
    // drop from losing a clique's top is to its best *nonnegative*
    // runner-up, and cliques with non-positive tops contribute nothing —
    // they are skipped below.
    const auto gap = [&](std::size_t q) {
      const auto& c = cliques[q];
      const double second = c.size() > 1 ? s_.w[c[1]] : 0.0;
      return s_.w[c.front()] - (second > 0.0 ? second : 0.0);
    };
    for (std::size_t i = end; i-- > begin;) {
      double deduct = i + 1 < end ? s_.pair_deduct[i + 1] : 0.0;
      if (!matched[i - begin] && s_.w[cliques[i].front()] > 0.0) {
        double best_pair = 0.0;
        std::size_t best_j = end;
        for (std::size_t j = i + 1; j < end; ++j) {
          if (matched[j - begin]) continue;
          if (s_.w[cliques[j].front()] <= 0.0) continue;
          if (!adjacent(cliques[i].front(), cliques[j].front())) continue;
          const double d = std::min(gap(i), gap(j));
          if (d > best_pair) {
            best_pair = d;
            best_j = j;
          }
        }
        if (best_j != end) {
          matched[i - begin] = 1;
          matched[best_j - begin] = 1;
          deduct += best_pair;
        }
      }
      s_.pair_deduct[i] = deduct;
    }
  }

  /// Greedy incumbent per component: one weight-descending pass over the
  /// live vertices; each taken vertex lands in its component's incumbent.
  /// Components are independent, so this equals per-component greedy.
  void seed_groups_with_greedy() {
    s_.group_best_w.assign(num_groups_, 0.0);
    while (s_.group_best.size() < num_groups_) s_.group_best.emplace_back();
    for (std::size_t g = 0; g < num_groups_; ++g) s_.group_best[g].clear();
    greedy_scan(/*skip_negative=*/true, [&](std::size_t v) {
      const auto g = static_cast<std::size_t>(s_.comp[v]);
      s_.group_best[g].push_back(v);
      s_.group_best_w[g] += s_.w[v];
    });
  }


  /// Residual refinement of the clique-cover bound: walk the remaining
  /// cliques of the group replacing each static max by its heaviest member
  /// with no chosen neighbor (its residual availability). Aborts as soon as
  /// the partial sum alone shows no prune is possible, so the common case
  /// stays cheap.
  bool refined_bound_prunes(std::size_t ci) const {
    if (s_.chosen.empty()) return false;  // no conflicts: equals static bound
    double partial = cur_weight_;
    for (std::size_t j = ci; j < cur_group_end_; ++j) {
      if (partial > *best_w_) return false;  // refinement cannot prune
      if (partial + s_.remaining[j] - s_.pair_deduct[j] <= *best_w_)
        return true;
      for (std::size_t u : s_.cliques[j]) {
        if (s_.conflict_cnt[u] == 0) {
          if (s_.w[u] > 0.0) partial += s_.w[u];  // may leave clique empty
          break;
        }
      }
    }
    return partial <= *best_w_;
  }

  void bump_neighbors(std::size_t v, int delta) {
    for (std::size_t b = 0; b < blocks_; ++b) {
      std::uint64_t word = s_.adj[v * blocks_ + b];
      while (word != 0) {
        const std::size_t u =
            b * 64 + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        s_.conflict_cnt[u] += delta;
      }
    }
  }

  void dfs_enhanced(std::size_t ci) {
    if (aborted_) return;
    if (++explored_ > cap_) {
      aborted_ = true;
      return;
    }
    if (ci == cur_group_end_) {
      if (cur_weight_ > *best_w_) {
        *best_w_ = cur_weight_;
        *best_out_ = s_.chosen;
      }
      return;
    }
    if (cur_weight_ + s_.remaining[ci] - s_.pair_deduct[ci] <= *best_w_)
      return;  // static clique bound, pair-corrected
    if (refined_bound_prunes(ci)) return;
    const double rem_next = ci + 1 < cur_group_end_
                                ? s_.remaining[ci + 1] - s_.pair_deduct[ci + 1]
                                : 0.0;
    bool rest_pruned = false;
    for (std::size_t v : s_.cliques[ci]) {
      // Members are weight-descending: once cur + w[v] + UB(rest) cannot
      // beat the incumbent, neither can any later (lighter) member — and,
      // for w[v] >= 0, neither can leaving the clique empty.
      if (cur_weight_ + s_.w[v] + rem_next <= *best_w_) {
        rest_pruned = s_.w[v] >= 0.0;
        break;
      }
      if (s_.conflict_cnt[v] != 0) continue;
      s_.chosen.push_back(v);
      cur_weight_ += s_.w[v];
      bump_neighbors(v, 1);
      dfs_enhanced(ci + 1);
      bump_neighbors(v, -1);
      cur_weight_ -= s_.w[v];
      s_.chosen.pop_back();
      if (aborted_) return;
    }
    if (!rest_pruned) dfs_enhanced(ci + 1);  // leave this clique empty
  }

  SolveScratch& s_;
  const BnbSolveOptions& opts_;
  std::size_t n_ = 0;
  std::size_t blocks_ = 0;
  std::size_t num_cliques_ = 0;
  std::size_t num_groups_ = 0;

  double cur_weight_ = 0.0;
  double best_weight_ = 0.0;  ///< Classic-search incumbent.
  double base_weight_ = 0.0;  ///< Weight settled by reductions.

  // Enhanced search: incumbent of the component group being searched.
  std::size_t cur_group_end_ = 0;
  double* best_w_ = nullptr;
  std::vector<std::size_t>* best_out_ = nullptr;

  std::int64_t explored_ = 0;
  std::int64_t cap_;
  bool aborted_ = false;
};

}  // namespace

MwisResult BranchAndBoundMwisSolver::solve_with_scratch(
    const Graph& g, std::span<const double> weights,
    std::span<const int> candidates, SolveScratch& scratch,
    const BnbSolveOptions& opts) const {
  if (candidates.empty()) return MwisResult{};
  Search s(g, weights, candidates, node_cap_, scratch, opts);
  return s.run();
}

MwisResult BranchAndBoundMwisSolver::solve(const Graph& g,
                                           std::span<const double> weights,
                                           std::span<const int> candidates) {
  return solve_with_scratch(g, weights, candidates, scratch_);
}

}  // namespace mhca
