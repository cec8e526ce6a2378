// Undirected simple graph with a two-phase representation.
//
// One representation serves both the conflict graph G over users and the
// extended conflict graph H over (user, channel) virtual vertices.
//
// Build phase: edges accumulate in per-vertex sorted adjacency vectors.
// Read phase: `finalize()` packs the adjacency into a flat CSR layout
// (`offsets_` / `edges_`), so neighbor iteration is one contiguous span and
// `has_edge` is a binary search over the shorter of the two sorted rows.
// CSR is the only finalized layout: O(V + E) memory at any n.
//
// All graph factories in the library finalize before returning; an
// unfinalized graph still answers every query through the build-phase
// vectors. See src/graph/README.md for the memory/complexity table.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mhca {

/// Undirected simple graph on vertices 0..size()-1.
///
/// Neighbor lists are sorted ascending in both phases, so `neighbors()` is
/// ordered and `has_edge` is O(log deg) (binary search).
/// Vertices and edges are added once during construction; the structure is
/// immutable after `finalize()` by convention (all algorithms take
/// `const Graph&`). Calling `add_edge` on a finalized graph reopens the
/// build phase (dropping the CSR arrays) — safe, but wasteful if done
/// repeatedly.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int n)
      : n_(n), adj_(static_cast<std::size_t>(n)) {}

  int size() const { return n_; }

  /// Add an undirected edge {u, v}. Self-loops and duplicates are rejected
  /// (duplicates silently ignored so generators can be sloppy).
  void add_edge(int u, int v);

  /// Pack the adjacency into CSR and release the build-phase vectors.
  /// Idempotent; O(V + E).
  void finalize();

  /// Build a finalized graph on n vertices in one pass from per-vertex
  /// neighbor claims: CSR rows `offsets` (size n + 1) over `claims`, row v
  /// naming the vertices v believes it is adjacent to. Edge {u, v} exists
  /// iff either row names the other — the union semantics of calling
  /// add_edge(v, u) for every claim — so asymmetric rows (stale neighbor
  /// knowledge) are fine. Rows may be unsorted and repeat ids; self claims
  /// and out-of-range ids are rejected. O(V + E log Δ), and the result is
  /// identical to the add_edge + finalize() build of the same claims.
  static Graph from_claims(int n, std::span<const std::int64_t> offsets,
                           std::span<const int> claims);

  /// Incrementally patch a *finalized* graph: insert `added` edges and
  /// delete `removed` edges without reopening the build phase. The CSR
  /// arrays are rewritten in one merge pass over the old rows
  /// (O(V + E + Δ log Δ) with memcpy-level constants — far below a
  /// definalize()/finalize() cycle, which re-materializes every per-vertex
  /// adjacency vector). Every added edge must be absent and every removed
  /// edge present (asserted), so a delta and its inverse round-trip
  /// exactly; the result is byte-identical to rebuilding the graph from the
  /// new edge set (see tests/dynamics_differential_test.cc).
  void apply_delta(std::span<const std::pair<int, int>> added,
                   std::span<const std::pair<int, int>> removed);

  bool finalized() const { return !offsets_.empty(); }

  bool has_edge(int u, int v) const;

  /// Sorted neighbor ids of v. A contiguous CSR span once finalized.
  std::span<const int> neighbors(int v) const {
    if (finalized()) {
      const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
      const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
      return {edges_.data() + b, e - b};
    }
    const auto& a = adj_[static_cast<std::size_t>(v)];
    return {a.data(), a.size()};
  }

  int degree(int v) const {
    return static_cast<int>(neighbors(v).size());
  }

  std::int64_t num_edges() const;
  double average_degree() const;
  /// Bytes held by the adjacency structures (build-phase lists and CSR),
  /// counted by element size.
  std::int64_t resident_bytes() const;
  int max_degree() const;

  /// True if every pair of vertices is joined by a path (empty graph: true).
  bool is_connected() const;

  /// True if `vs` has no duplicate vertex and no two of its vertices are
  /// adjacent. O(|vs| + Σ deg(v)) single-pass neighbor-mark check over a
  /// reusable (thread-local, epoch-stamped) scratch bitmap — cheap enough
  /// to validate every decision's winner set on the hot path (it runs
  /// inside the engine's end-of-run assert and the net runtime's conflict
  /// detector; the old pairwise check was O(|vs|²) `has_edge` probes and
  /// dominated whole 50k-vertex decisions).
  bool is_independent_set(std::span<const int> vs) const;

 private:
  /// Reopen the build phase: reconstruct adjacency vectors from the CSR and
  /// drop it.
  void definalize();

  int n_ = 0;

  // Build phase.
  std::vector<std::vector<int>> adj_;

  // Read phase (empty until finalize()).
  std::vector<std::int64_t> offsets_;   ///< size n_+1.
  std::vector<int> edges_;              ///< size 2|E|, sorted per row.
};

}  // namespace mhca
