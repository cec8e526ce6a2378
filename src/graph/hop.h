// Bounded-hop BFS utilities (r-hop neighborhoods J_{G,r}(v)) over one
// traversal kernel, BfsScratch::walk, and the flood-size memo built on them.
//
// These are the geometric primitives of the robust PTAS: LocalLeader election
// uses (2r+1)-hop neighborhoods, local MWIS uses r-hop neighborhoods, and
// result broadcast reaches 3r+2 hops (paper §IV-C says 3r+1; winner-adjacent
// losers sit one hop beyond the r-ball).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/assert.h"

namespace mhca {

/// Hops from a changed edge within which a k-hop ball J_k(v) can change,
/// in membership or size: k-1. Say the touched vertices hold both
/// endpoints of every added or removed edge. A ball that gains a vertex
/// reaches it along a new path of at most k hops through an added edge;
/// the path's prefix up to that edge has at most k-1 hops and ends at a
/// touched vertex. A ball that loses one had an old path of at most k hops
/// through a removed edge; the prefix up to the first removed edge
/// survives in the new graph, has at most k-1 hops, and ends at a touched
/// vertex. So after a delta only balls centred within k-1 new-graph hops
/// of a touched vertex need recomputing.
constexpr int ball_stale_radius(int k) { return k - 1; }

/// BfsScratch::walk's `admit` for a plain BFS: every discovered vertex is
/// expanded.
struct AdmitAll {
  constexpr bool operator()(int, int) const { return true; }
};

/// Reusable BFS workspace. Uses a stamp array so repeated traversals over the
/// same graph do not pay an O(V) clear each time.
class BfsScratch {
 public:
  explicit BfsScratch(int n = 0) { resize(n); }

  void resize(int n);

  /// Radius of a walk with no hop bound.
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  /// The bounded BFS every traversal below is built on: walk J_k of
  /// `sources` (duplicates allowed; k = kUnbounded walks the whole
  /// component) in breadth-first order, each vertex's neighbors ascending.
  ///
  ///   - `admit(u, from)` runs once, when u is first discovered from the
  ///     dequeued vertex `from`. u is stamped, and its distance recorded,
  ///     either way, but it is enqueued (visited, and expanded below k
  ///     hops) only if admit returns true. Sources are always enqueued.
  ///   - `visit(x, d)` runs when x, at hop distance d, is dequeued.
  ///     Returning true stops the walk.
  ///
  /// Returns the vertex whose visit stopped the walk, else -1. Afterwards
  /// reached(u) and distance(u) describe every discovered vertex, admitted
  /// or not, until the next walk. Callers pass lambdas, so both callbacks
  /// inline into the loop.
  template <class Admit, class Visit>
  int walk(const Graph& g, std::span<const int> sources, int k, Admit&& admit,
           Visit&& visit) {
    MHCA_ASSERT(k >= 0, "hop count must be non-negative");
    begin(g);
    for (const int v : sources) {
      MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
      const auto vi = static_cast<std::size_t>(v);
      if (stamp_[vi] == epoch_) continue;
      stamp_[vi] = epoch_;
      dist_[vi] = 0;
      queue_.push_back(v);
    }
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const int x = queue_[head];
      const int dx = dist_[static_cast<std::size_t>(x)];
      if (visit(x, dx)) return x;
      if (dx == k) continue;
      for (const int u : g.neighbors(x)) {
        const auto ui = static_cast<std::size_t>(u);
        if (stamp_[ui] == epoch_) continue;
        stamp_[ui] = epoch_;
        dist_[ui] = dx + 1;
        if (admit(u, x)) queue_.push_back(u);
      }
    }
    return -1;
  }

  /// Collect all vertices u with hop distance d(v, u) <= k, **including v**,
  /// sorted ascending.
  std::vector<int> k_hop_neighborhood(const Graph& g, int v, int k);

  /// As above but appends to `out` (cleared first); avoids an allocation.
  void k_hop_neighborhood(const Graph& g, int v, int k, std::vector<int>& out);

  /// Collect J_{k_inner}(v) and J_{k_outer}(v) (k_inner <= k_outer) in one
  /// BFS; both outputs are cleared first and sorted ascending, including v.
  void two_radius_neighborhood(const Graph& g, int v, int k_inner,
                               int k_outer, std::vector<int>& inner,
                               std::vector<int>& outer);

  /// Collect all vertices within k hops of *any* source (sources included;
  /// duplicates among sources are fine), sorted ascending. This is the
  /// blast-radius primitive of incremental maintenance: after an edge
  /// change only the balls centred within ball_stale_radius(k) hops of a
  /// touched vertex can differ (see NeighborhoodCache::apply_delta).
  void multi_source_k_hop(const Graph& g, std::span<const int> sources, int k,
                          std::vector<int>& out);

  /// As above, in BFS discovery order instead of sorted: vertices that are
  /// close in the graph are close in the list.
  void multi_source_k_hop_unsorted(const Graph& g,
                                   std::span<const int> sources, int k,
                                   std::vector<int>& out);

  static constexpr std::size_t kMaxSizeSources = 64;

  /// |J_k(s)| for each of up to kMaxSizeSources `sources` (into sizes[i]
  /// for sources[i]) in one bit-parallel BFS: every reached vertex carries
  /// a 64-bit mask of the sources whose ball holds it, so the edge scans
  /// follow the *union* of the balls rather than their sum — a several-fold
  /// saving when the sources are close together, as consecutive entries of
  /// a BFS order are. Size-only; FloodSizes recounts its stale entries with
  /// it. Allocates 16 bytes per vertex on first use. Not a walk(): it
  /// leaves reached() and distance() alone.
  void k_hop_sizes(const Graph& g, std::span<const int> sources, int k,
                   std::span<int> sizes);

  /// Early-exit bounded BFS: visit the vertices of J_k(v) (v included) in
  /// BFS order and return the first one satisfying `pred`, or -1 when none
  /// does. Nothing is materialized or sorted — this is the enumeration
  /// primitive of the NeighborhoodCache's *implicit* election-ball tier,
  /// where the (2r+1)-ball is walked on demand instead of stored (see
  /// src/graph/README.md). The visited set is exactly the stored ball, so
  /// any existence test over it (e.g. the election blocker predicate, whose
  /// verdict is scan-order independent) answers identically to a scan of
  /// the explicit span.
  template <class Pred>
  int k_hop_find(const Graph& g, int v, int k, Pred&& pred) {
    return walk(g, {&v, 1}, k, AdmitAll{},
                [&](int x, int) { return pred(x); });
  }

  /// True if the last walk discovered v (admitted or not).
  bool reached(int v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

  /// Hop distance at which the last walk discovered v. v must be reached().
  int distance(int v) const { return dist_[static_cast<std::size_t>(v)]; }

 private:
  /// Start a walk over g: size the arrays to it and take a fresh epoch. On
  /// wrap-around the stamps are refilled, so no stale stamp can alias the
  /// new epoch.
  void begin(const Graph& g);

  std::vector<std::uint32_t> stamp_;
  std::vector<int> dist_;
  std::vector<int> queue_;
  std::uint32_t epoch_ = 0;
  // k_hop_sizes state (all zero between calls).
  std::vector<std::uint64_t> reached_by_;
  std::vector<std::uint64_t> arriving_;
  std::vector<int> reached_, arrived_;
  std::vector<std::pair<int, std::uint64_t>> frontier_;
};

/// |J_k(v)| for every vertex of a graph, for one radius k, counted on
/// demand: the flood sizes the robust PTAS's message accounting charges
/// (LD and weight-broadcast floods reach 2r+1 hops, LB floods 3r+2).
///
/// Nothing is allocated or counted before the first sum(). From then on an
/// entry is counted when a sum() first asks for it, and again only after an
/// invalidate() has marked it stale; entries nobody asks for are never
/// counted. A recount takes the stale entries a sum() asks for, sorted by
/// their position in the BFS that invalidated them, and counts them 64 at a
/// time with BfsScratch::k_hop_sizes, so each batch holds vertices that are
/// close in that BFS and overlapping balls are walked once.
class FloodSizes {
 public:
  explicit FloodSizes(int k) : k_(k) {}

  int radius() const { return k_; }

  /// True before the first sum(): nothing allocated, nothing to invalidate.
  bool empty() const { return size_.empty(); }

  /// Σ |J_k(v)| over `vs` (a vertex listed twice counts twice), recounting
  /// the stale entries among them on g with `scratch`.
  std::int64_t sum(const Graph& g, std::span<const int> vs,
                   BfsScratch& scratch);

  /// Hops from a changed edge within which |J_k| can change
  /// (ball_stale_radius).
  int stale_radius() const { return ball_stale_radius(k_); }

  /// g just changed, and `reach` is `scratch`'s last
  /// multi_source_k_hop_unsorted output from the touched vertices, to at
  /// least stale_radius() hops, on the new graph. Marks stale every vertex
  /// of `reach` within stale_radius() hops. Those vertices are a prefix of
  /// the BFS order, so one reach to the largest radius serves every memo.
  /// No-op before the first sum().
  void invalidate(std::span<const int> reach, const BfsScratch& scratch);

  /// The stored |J_k(v)|, or -1 while v is stale or was never counted.
  int cached(int v) const {
    return empty() ? kStale : size_[static_cast<std::size_t>(v)];
  }

  /// Bytes held by the memo (0 while empty()).
  std::int64_t resident_bytes() const;

  /// Entries counted since construction.
  std::int64_t recounted() const { return recounted_; }

 private:
  static constexpr int kStale = -1;
  static constexpr int kQueued = -2;  ///< Stale and in this sum()'s list.

  int k_;
  std::vector<int> size_;            ///< kStale until counted.
  std::vector<std::int64_t> order_;  ///< Recount position of a stale entry.
  std::int64_t next_order_ = 0;
  std::vector<int> stale_;           ///< sum()'s recount list.
  std::int64_t recounted_ = 0;
};

/// Convenience wrapper allocating a scratch internally.
std::vector<int> k_hop_neighborhood(const Graph& g, int v, int k);

}  // namespace mhca
