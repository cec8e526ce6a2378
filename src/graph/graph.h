// Undirected simple graph with a two-phase representation.
//
// One representation serves both the conflict graph G over users and the
// extended conflict graph H over (user, channel) virtual vertices.
//
// Build phase: edges accumulate in per-vertex sorted adjacency vectors.
// Read phase: `finalize()` packs the adjacency into a flat CSR layout
// (`offsets_` / `edges_`) so neighbor iteration is one contiguous span, plus
// one of two packed bitset forms behind the same API:
//
//   - n <= kAdjacencyMatrixLimit: a dense bitset adjacency matrix (n^2
//     bits), so `has_edge` is a single bit test and solvers gather local
//     adjacency rows with word-wide masks over the full column range;
//   - n >  kAdjacencyMatrixLimit: sharded sparse rows — per vertex, only
//     the *nonzero* 64-column blocks of its matrix row, stored as parallel
//     (block index, word) CSR arrays. `has_edge` is a binary search over
//     the row's O(deg) blocks plus a bit test, and solvers gather adjacency
//     by masking each stored block against a candidate bitset, so the hot
//     paths keep word-wide semantics at any n with O(V + E) memory instead
//     of O(n^2) bits.
//
// All graph factories in the library finalize before returning; an
// unfinalized graph still answers every query through the build-phase
// vectors, just slower. See src/graph/README.md for the memory/complexity
// table and the representation-selection rule.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mhca {

/// Undirected simple graph on vertices 0..size()-1.
///
/// Neighbor lists are sorted ascending in both phases, so `neighbors()` is
/// ordered and `has_edge` is O(1) (bitset) or O(log deg) (binary search).
/// Vertices and edges are added once during construction; the structure is
/// immutable after `finalize()` by convention (all algorithms take
/// `const Graph&`). Calling `add_edge` on a finalized graph reopens the
/// build phase (dropping the packed structure) — safe, but wasteful if done
/// repeatedly.
class Graph {
 public:
  /// Densest n for which `finalize()` builds the dense bitset adjacency
  /// matrix (n^2 bits; 8192 vertices = 8 MiB — small beside the CSR
  /// arrays). Larger graphs get sharded sparse rows instead (O(V + E)
  /// memory); see the header comment for the trade-off.
  static constexpr int kAdjacencyMatrixLimit = 8192;

  Graph() = default;
  explicit Graph(int n)
      : n_(n), adj_(static_cast<std::size_t>(n)) {}

  int size() const { return n_; }

  /// Add an undirected edge {u, v}. Self-loops and duplicates are rejected
  /// (duplicates silently ignored so generators can be sloppy).
  void add_edge(int u, int v);

  /// Pack the adjacency into CSR (and, for small n, the bitset matrix) and
  /// release the build-phase vectors. Idempotent; O(V + E).
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
  /// delete `removed` edges without reopening the build phase. The bitset
  /// matrix is patched bit by bit (O(1) per edge); the CSR arrays are
  /// rewritten in one merge pass over the old rows (O(V + E + Δ log Δ) with
  /// memcpy-level constants — far below a definalize()/finalize() cycle,
  /// which re-materializes every per-vertex adjacency vector). Every added
  /// edge must be absent and every removed edge present (asserted), so a
  /// delta and its inverse round-trip exactly; the result is byte-identical
  /// to rebuilding the graph from the new edge set (see
  /// tests/dynamics_differential_test.cc).
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

  /// True once `finalize()` has built the packed adjacency matrix
  /// (only for graphs with size() <= kAdjacencyMatrixLimit).
  bool has_adjacency_matrix() const { return !bits_.empty(); }

  /// Words per adjacency-matrix row (= ceil(size()/64)); 0 if no matrix.
  std::size_t row_blocks() const { return row_blocks_; }

  /// Row v of the packed adjacency matrix: bit u set iff {v, u} is an edge.
  std::span<const std::uint64_t> adjacency_row(int v) const {
    return {bits_.data() + static_cast<std::size_t>(v) * row_blocks_,
            row_blocks_};
  }

  /// True once `finalize()` has built the sharded sparse rows (only for
  /// graphs with size() > kAdjacencyMatrixLimit). Mutually exclusive with
  /// `has_adjacency_matrix()`.
  bool has_sparse_rows() const { return !srow_offsets_.empty(); }

  /// Ascending indices of the nonzero 64-column blocks of row v. Aligned
  /// with `sparse_row_words(v)`: block b of the span covers columns
  /// [64*b, 64*b+64) and its word has bit (u % 64) set iff {v, u} is an
  /// edge with u / 64 == b.
  std::span<const int> sparse_row_blocks(int v) const {
    const auto b = static_cast<std::size_t>(srow_offsets_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(srow_offsets_[static_cast<std::size_t>(v) + 1]);
    return {srow_blocks_.data() + b, e - b};
  }

  /// The words of row v's nonzero blocks; aligned with sparse_row_blocks.
  std::span<const std::uint64_t> sparse_row_words(int v) const {
    const auto b = static_cast<std::size_t>(srow_offsets_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(srow_offsets_[static_cast<std::size_t>(v) + 1]);
    return {srow_words_.data() + b, e - b};
  }

  std::int64_t num_edges() const;
  double average_degree() const;
  /// Bytes held by the adjacency structures (build-phase lists, CSR, and
  /// the bitset matrix or sparse rows), counted by element size.
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
  /// drop the packed structure.
  void definalize();

  /// Build the bitset matrix (n <= kAdjacencyMatrixLimit) or the sharded
  /// sparse rows from the (already current) CSR arrays.
  void pack_rows();

  /// Rebuild the sharded sparse rows from the (already current) CSR arrays.
  void build_sparse_rows();

  /// Append row v's nonzero blocks, derived from its sorted CSR neighbor
  /// row, onto the sparse-row output arrays.
  void append_sparse_row(int v, std::vector<int>& blocks,
                         std::vector<std::uint64_t>& words) const;

  int n_ = 0;

  // Build phase.
  std::vector<std::vector<int>> adj_;

  // Read phase (empty until finalize()).
  std::vector<std::int64_t> offsets_;   ///< size n_+1.
  std::vector<int> edges_;              ///< size 2|E|, sorted per row.
  std::vector<std::uint64_t> bits_;     ///< n_ rows of row_blocks_ words.
  std::size_t row_blocks_ = 0;
  // Sharded sparse rows (only when n_ > kAdjacencyMatrixLimit).
  std::vector<std::int64_t> srow_offsets_;  ///< size n_+1.
  std::vector<int> srow_blocks_;            ///< Nonzero block ids per row.
  std::vector<std::uint64_t> srow_words_;   ///< Aligned block words.
};

}  // namespace mhca
