// Precomputed r-hop neighborhood structure for repeated strategy decisions.
//
// The distributed robust PTAS re-reads the same static neighborhoods every
// decision slot: leader election looks at (2r+1)-hop balls, local MWIS at
// r-hop balls (paper §IV-C). Both depend only on the graph and r — never on
// the weights — so they are computed once here (one bounded BFS per vertex)
// and stored flat in CSR form. `DistributedRobustPtas` walks these spans
// instead of re-flooding max-relaxation rounds and re-running BFS per
// leader.
//
// The election-ball layer is *tiered*, selected per graph the same way
// `Graph::finalize()` selects dense-vs-sparse adjacency:
//
//   - kExplicit (n <= Graph::kAdjacencyMatrixLimit): every (2r+1)-ball is a
//     stored int32 CSR span, as the r-balls always are. Fast to scan, and
//     cheap at small n.
//   - kImplicit (larger graphs): only the per-vertex ball *size* is stored
//     (4 bytes/vertex); membership is re-enumerated on demand by bounded
//     BFS (`BfsScratch::k_hop_find`). At 50k vertices / r = 2 the explicit
//     e-ball spans are ~100 MB and dwarf everything else in the cache;
//     dropping them is what lets the cached decision path reach 10^6
//     vertices on a normal dev box. The election only ever runs an
//     existence scan (first blocker) over the ball, and its verdict is
//     scan-order independent, so decisions are byte-identical across tiers
//     (fuzzed by tests/tiered_simd_differential_test.cc).
//
// `MHCA_EBALL_TIER=explicit|implicit` overrides the size rule (read per
// construction — tests force both tiers on the same graph).
//
// Reuse contract: the cache borrows the graph; the graph must be finalized
// first. When the graph *does* change (dynamics, src/dynamics/README.md),
// `apply_delta` re-synchronizes the cache by recomputing only the balls
// that can have moved — r-balls within r hops of a touched vertex, election
// balls within 2r+1 — instead of re-running one BFS per vertex.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/hop.h"
#include "util/assert.h"

namespace mhca {

class NeighborhoodCache {
 public:
  enum class EballTier { kExplicit, kImplicit };

  NeighborhoodCache() = default;

  /// Precompute, for every vertex v of g, the sorted r-hop ball J_r(v)
  /// (always an explicit CSR span) and the (2r+1)-hop election ball
  /// J_{2r+1}(v) — stored per the selected tier (see file comment). Both
  /// include v.
  ///
  /// `parallelism` fans the per-vertex BFS across worker threads with a
  /// two-pass count-then-fill layout into the CSR arrays (pass 1 sizes
  /// every ball, a prefix sum fixes each vertex's span, pass 2 re-runs the
  /// BFS writing into its disjoint slice), so the built cache is
  /// byte-identical at any worker count *and* at either tier (the implicit
  /// tier keeps both passes; its fill pass checks the re-enumerated e-ball
  /// size against the count pass and simply doesn't store the members).
  /// 1 = the serial single-pass build; 0 = the MHCA_CACHE_BUILD_WORKERS
  /// environment variable if set (CI uses it to pin determinism across
  /// worker counts), else one worker per hardware thread.
  NeighborhoodCache(const Graph& g, int r, int parallelism = 0);

  bool built() const { return !r_offsets_.empty(); }
  int r() const { return r_; }
  int size() const { return size_; }
  EballTier eball_tier() const { return tier_; }

  /// Tier the constructor will pick for an n-vertex graph: the
  /// MHCA_EBALL_TIER override if set, else explicit iff
  /// n <= Graph::kAdjacencyMatrixLimit (the same threshold that selects the
  /// dense adjacency representation). Throws std::logic_error naming the
  /// valid values if the override is set to anything else.
  static EballTier select_eball_tier(int n);

  /// Effective worker count the build will use for `parallelism` on an
  /// n-vertex graph (resolves 0 via MHCA_CACHE_BUILD_WORKERS, then
  /// hardware_concurrency, clamped to n). Exposed so benches can report
  /// the value actually used.
  static int build_workers(int parallelism, int n);

  /// Sorted vertices within r hops of v, including v.
  std::span<const int> r_ball(int v) const {
    return span_of(r_offsets_, r_data_, v);
  }

  /// Sorted vertices within 2r+1 hops of v, including v. Explicit tier
  /// only — the implicit tier stores no membership; enumerate with
  /// `BfsScratch::k_hop_find` / `k_hop_neighborhood` instead.
  std::span<const int> election_ball(int v) const {
    MHCA_ASSERT(tier_ == EballTier::kExplicit,
                "election_ball spans exist only on the explicit tier");
    return span_of(e_offsets_, e_data_, v);
  }

  int r_ball_size(int v) const {
    return static_cast<int>(r_ball(v).size());
  }

  /// |J_{2r+1}(v)| — stored on both tiers (the protocol's message
  /// accounting needs it every round; 4 bytes/vertex is the whole price of
  /// the implicit tier).
  int election_ball_size(int v) const {
    if (tier_ == EballTier::kImplicit)
      return e_sizes_[static_cast<std::size_t>(v)];
    return static_cast<int>(election_ball(v).size());
  }

  /// Total stored ball entries (memory introspection; the implicit tier
  /// contributes no e-ball entries).
  std::int64_t total_entries() const {
    return static_cast<std::int64_t>(r_data_.size() + e_data_.size());
  }

  /// Bytes actually held by the cache's arrays.
  std::int64_t resident_bytes() const;

  /// Bytes the cache would hold with the e-ball layer stored explicitly
  /// (the pre-tiered layout): equals resident_bytes() on the explicit
  /// tier. bench_decision_path gates explicit_layout_bytes() /
  /// resident_bytes() >= 4 at the 50k / r=2 cell (`cache_bytes_ok`).
  std::int64_t explicit_layout_bytes() const;

  /// Re-synchronize with a graph that just changed. `touched` are the
  /// vertices incident to an added/removed edge (the graph must already be
  /// patched). A ball of radius k can have moved only if its owner is
  /// within k new-graph hops of `touched`: touched holds both endpoints of
  /// every changed edge, so (a) a vertex entering some ball got there via
  /// an added edge whose endpoints are touched, and (b) a vertex leaving one
  /// had an old path through a removed edge — the prefix of that path up to
  /// the *first* removed edge survives in the new graph and ends at a
  /// touched vertex. So the reach is split, one multi-source BFS each:
  ///
  ///   - r-balls are recomputed only within r hops;
  ///   - election balls within 2r+1 hops. The explicit tier rebuilds both
  ///     balls of such a vertex from one BFS; the implicit tier stores only
  ///     sizes, so it counts the (2r+1)-balls without building or sorting
  ///     them — 64 at a time with the bit-parallel `BfsScratch::k_hop_sizes`,
  ///     batched in BFS order so each batch's balls mostly overlap — and runs
  ///     the short r-hop BFS for the r-reach alone.
  ///
  /// Runs on the calling thread. The BFS workspace and buffers are kept
  /// across calls: ~12 bytes per vertex (plus 16 on the implicit tier), and
  /// the largest suffix the patch has had to rebuild.
  ///
  /// Only moved bytes are written: spans whose size is unchanged — and
  /// every span before the first size change — keep their offsets and are
  /// patched in place; the suffix from the first size-changing vertex on is
  /// rewritten once. The result is byte-identical to a from-scratch rebuild
  /// (tests/cache_delta_differential_test.cc checks every vertex on both
  /// tiers; tests/dynamics_differential_test.cc fuzzes it end to end).
  void apply_delta(const Graph& g, std::span<const int> touched);

  /// Election balls the last apply_delta refreshed: the size of the
  /// (2r+1)-hop reach of `touched`, as before the reach was split (the
  /// r-hop reach is a subset), so BENCH_dynamics.json's
  /// avg_invalidated_balls stays comparable across revisions.
  int last_invalidated() const { return last_invalidated_; }

 private:
  static std::span<const int> span_of(const std::vector<std::int64_t>& off,
                                      const std::vector<int>& data, int v) {
    const auto b = static_cast<std::size_t>(off[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(off[static_cast<std::size_t>(v) + 1]);
    return {data.data() + b, e - b};
  }

  /// Recomputed spans of an apply_delta, concatenated in vertex order.
  struct Balls {
    std::vector<std::int64_t> off{0};
    std::vector<int> data;
    void clear() {
      off.assign(1, 0);
      data.clear();
    }
    void append(std::span<const int> ball) {
      data.insert(data.end(), ball.begin(), ball.end());
      off.push_back(static_cast<std::int64_t>(data.size()));
    }
  };
  /// Write the recomputed spans `balls` of the ascending vertices `ids`
  /// into (offsets, data).
  void patch(std::vector<std::int64_t>& offsets, std::vector<int>& data,
             std::span<const int> ids, const Balls& balls);

  int r_ = 0;
  int size_ = 0;
  EballTier tier_ = EballTier::kExplicit;
  std::vector<std::int64_t> r_offsets_;  ///< size_+1.
  std::vector<int> r_data_;
  std::vector<std::int64_t> e_offsets_;  ///< size_+1; explicit tier only.
  std::vector<int> e_data_;              ///< Explicit tier only.
  std::vector<int> e_sizes_;             ///< size_; implicit tier only.
  int last_invalidated_ = 0;

  // apply_delta scratch, sized on first use (not counted as resident cache).
  BfsScratch scratch_;
  std::vector<int> e_reach_, r_reach_;
  Balls r_new_, e_new_;  ///< Recomputed spans of the r- and e-reach.
  std::vector<int> r_ball_, e_ball_;
  std::vector<int> tail_;  ///< patch()'s rebuilt suffix.
  std::vector<std::int64_t> tail_sizes_;
};

}  // namespace mhca
