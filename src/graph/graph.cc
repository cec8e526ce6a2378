#include "graph/graph.h"

#include <algorithm>

#include "graph/hop.h"
#include "util/assert.h"

namespace mhca {

void Graph::add_edge(int u, int v) {
  MHCA_ASSERT(u >= 0 && u < size() && v >= 0 && v < size(),
              "edge endpoint out of range");
  MHCA_ASSERT(u != v, "self-loops are not allowed");
  if (finalized()) definalize();
  if (has_edge(u, v)) return;
  auto& au = adj_[static_cast<std::size_t>(u)];
  auto& av = adj_[static_cast<std::size_t>(v)];
  au.insert(std::lower_bound(au.begin(), au.end(), v), v);
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
}

void Graph::finalize() {
  if (finalized()) return;
  const auto n = static_cast<std::size_t>(n_);
  offsets_.assign(n + 1, 0);
  std::int64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offsets_[v] = total;
    total += static_cast<std::int64_t>(adj_[v].size());
  }
  offsets_[n] = total;
  edges_.resize(static_cast<std::size_t>(total));
  for (std::size_t v = 0; v < n; ++v)
    std::copy(adj_[v].begin(), adj_[v].end(),
              edges_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]));
  adj_.clear();
  adj_.shrink_to_fit();
}

Graph Graph::from_claims(int n, std::span<const std::int64_t> offsets,
                         std::span<const int> claims) {
  MHCA_ASSERT(n >= 0 && offsets.size() == static_cast<std::size_t>(n) + 1,
              "from_claims: offsets must hold n + 1 entries");
  MHCA_ASSERT(offsets.front() == 0 &&
                  offsets.back() == static_cast<std::int64_t>(claims.size()),
              "from_claims: offsets must span the claims exactly");
  const auto nn = static_cast<std::size_t>(n);
  // Count both half-edges of every claim, then scatter them into their rows.
  std::vector<std::int64_t> start(nn + 1, 0);
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    MHCA_ASSERT(offsets[vi] <= offsets[vi + 1],
                "from_claims: offsets must be non-decreasing");
    for (auto i = offsets[vi]; i < offsets[vi + 1]; ++i) {
      const int u = claims[static_cast<std::size_t>(i)];
      MHCA_ASSERT(u >= 0 && u < n, "edge endpoint out of range");
      MHCA_ASSERT(u != v, "self-loops are not allowed");
      ++start[vi + 1];
      ++start[static_cast<std::size_t>(u) + 1];
    }
  }
  for (std::size_t v = 0; v < nn; ++v) start[v + 1] += start[v];
  std::vector<int> half(static_cast<std::size_t>(start[nn]));
  std::vector<std::int64_t> fill(start.begin(), start.end() - 1);
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    for (auto i = offsets[vi]; i < offsets[vi + 1]; ++i) {
      const int u = claims[static_cast<std::size_t>(i)];
      half[static_cast<std::size_t>(fill[vi]++)] = u;
      half[static_cast<std::size_t>(fill[static_cast<std::size_t>(u)]++)] = v;
    }
  }
  // Sort and deduplicate each row, compacting in place into the CSR.
  Graph g;
  g.n_ = n;
  g.offsets_.assign(nn + 1, 0);
  auto out = half.begin();
  for (std::size_t v = 0; v < nn; ++v) {
    const auto b = half.begin() + static_cast<std::ptrdiff_t>(start[v]);
    const auto e = half.begin() + static_cast<std::ptrdiff_t>(start[v + 1]);
    std::sort(b, e);
    const auto last = std::unique(b, e);
    out = out == b ? last : std::copy(b, last, out);
    g.offsets_[v + 1] = static_cast<std::int64_t>(out - half.begin());
  }
  half.resize(static_cast<std::size_t>(out - half.begin()));
  half.shrink_to_fit();
  g.edges_ = std::move(half);
  return g;
}

void Graph::apply_delta(std::span<const std::pair<int, int>> added,
                        std::span<const std::pair<int, int>> removed) {
  MHCA_ASSERT(finalized(), "apply_delta requires a finalized graph");
  if (added.empty() && removed.empty()) return;

  // Expand each undirected change into its two directed half-edges and sort
  // them, so the per-row merge below consumes both lists in one sweep.
  std::vector<std::pair<int, int>> add2, rem2;
  add2.reserve(added.size() * 2);
  rem2.reserve(removed.size() * 2);
  for (const auto& [u, v] : added) {
    MHCA_ASSERT(u >= 0 && u < size() && v >= 0 && v < size(),
                "edge endpoint out of range");
    MHCA_ASSERT(u != v, "self-loops are not allowed");
    MHCA_ASSERT(!has_edge(u, v), "apply_delta: added edge already present");
    add2.emplace_back(u, v);
    add2.emplace_back(v, u);
  }
  for (const auto& [u, v] : removed) {
    MHCA_ASSERT(u >= 0 && u < size() && v >= 0 && v < size(),
                "edge endpoint out of range");
    MHCA_ASSERT(has_edge(u, v), "apply_delta: removed edge not present");
    rem2.emplace_back(u, v);
    rem2.emplace_back(v, u);
  }
  std::sort(add2.begin(), add2.end());
  std::sort(rem2.begin(), rem2.end());
  for (std::size_t i = 1; i < add2.size(); ++i)
    MHCA_ASSERT(add2[i] != add2[i - 1], "apply_delta: duplicate added edge");
  for (std::size_t i = 1; i < rem2.size(); ++i)
    MHCA_ASSERT(rem2[i] != rem2[i - 1], "apply_delta: duplicate removed edge");

  const auto n = static_cast<std::size_t>(n_);
  std::vector<int> new_edges;
  new_edges.reserve(edges_.size() + add2.size() - rem2.size());
  std::vector<std::int64_t> new_offsets(n + 1, 0);
  std::size_t ai = 0, ri = 0;
  for (std::size_t v = 0; v < n; ++v) {
    new_offsets[v] = static_cast<std::int64_t>(new_edges.size());
    const auto row = neighbors(static_cast<int>(v));
    std::size_t i = 0;
    // Merge the sorted old row with this row's sorted additions, skipping
    // this row's removals. Rows without changes reduce to one bulk append.
    while (ai < add2.size() && add2[ai].first == static_cast<int>(v)) {
      const int u = add2[ai].second;
      while (i < row.size() && row[i] < u) {
        if (ri < rem2.size() && rem2[ri].first == static_cast<int>(v) &&
            rem2[ri].second == row[i]) {
          ++ri;
        } else {
          new_edges.push_back(row[i]);
        }
        ++i;
      }
      new_edges.push_back(u);
      ++ai;
    }
    while (i < row.size()) {
      if (ri < rem2.size() && rem2[ri].first == static_cast<int>(v) &&
          rem2[ri].second == row[i]) {
        ++ri;
      } else {
        new_edges.push_back(row[i]);
      }
      ++i;
    }
  }
  new_offsets[n] = static_cast<std::int64_t>(new_edges.size());
  MHCA_ASSERT(ai == add2.size() && ri == rem2.size(),
              "apply_delta: unconsumed edge changes");
  offsets_ = std::move(new_offsets);
  edges_ = std::move(new_edges);
}

void Graph::definalize() {
  adj_.assign(static_cast<std::size_t>(n_), {});
  for (int v = 0; v < n_; ++v) {
    const auto nb = neighbors(v);
    adj_[static_cast<std::size_t>(v)].assign(nb.begin(), nb.end());
  }
  offsets_.clear();
  edges_.clear();
}

bool Graph::has_edge(int u, int v) const {
  if (u < 0 || v < 0 || u >= size() || v >= size() || u == v) return false;
  const auto nu = neighbors(u);
  const auto nv = neighbors(v);
  const auto shorter = nu.size() <= nv.size() ? nu : nv;
  const int target = nu.size() <= nv.size() ? v : u;
  return std::binary_search(shorter.begin(), shorter.end(), target);
}

std::int64_t Graph::num_edges() const {
  if (finalized()) return offsets_[static_cast<std::size_t>(n_)] / 2;
  std::int64_t twice = 0;
  for (const auto& a : adj_) twice += static_cast<std::int64_t>(a.size());
  return twice / 2;
}

std::int64_t Graph::resident_bytes() const {
  const auto bytes = [](const auto& vec) {
    return static_cast<std::int64_t>(vec.size() * sizeof(vec[0]));
  };
  std::int64_t total = bytes(adj_) + bytes(offsets_) + bytes(edges_);
  for (const auto& a : adj_) total += bytes(a);
  return total;
}

double Graph::average_degree() const {
  if (size() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(size());
}

int Graph::max_degree() const {
  int best = 0;
  for (int v = 0; v < size(); ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::is_connected() const {
  if (size() <= 1) return true;
  BfsScratch scratch(size());
  const int origin = 0;
  int reached = 0;
  scratch.walk(*this, {&origin, 1}, BfsScratch::kUnbounded, AdmitAll{},
               [&](int, int) {
                 ++reached;
                 return false;
               });
  return reached == size();
}

bool Graph::is_independent_set(std::span<const int> vs) const {
  // Mark each member, then scan each member's neighbor row for an earlier
  // mark: an edge {a, b} with a before b in vs is caught at b (a is marked
  // and a ∈ N(b)), and a duplicate is caught at its second occurrence. The
  // stamp array makes the scratch reusable without an O(n) clear — one
  // thread-local instance serves every graph on the thread (the engine's
  // end-of-run assert and the net runtime both validate here, possibly
  // from replication worker threads).
  struct MarkScratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
  };
  thread_local MarkScratch s;
  if (s.stamp.size() < static_cast<std::size_t>(size()))
    s.stamp.resize(static_cast<std::size_t>(size()), 0);
  if (++s.epoch == 0) {  // wrap: stale stamps could alias the new epoch
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }
  for (int v : vs) {
    const auto vi = static_cast<std::size_t>(v);
    if (s.stamp[vi] == s.epoch) return false;  // duplicate vertex
    for (int u : neighbors(v))
      if (s.stamp[static_cast<std::size_t>(u)] == s.epoch) return false;
    s.stamp[vi] = s.epoch;
  }
  return true;
}

}  // namespace mhca
