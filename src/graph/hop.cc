#include "graph/hop.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "util/assert.h"

namespace mhca {

void BfsScratch::resize(int n) {
  stamp_.assign(static_cast<std::size_t>(n), 0);
  dist_.assign(static_cast<std::size_t>(n), 0);
  queue_.clear();
  queue_.reserve(static_cast<std::size_t>(n));
  epoch_ = 0;
}

void BfsScratch::begin(const Graph& g) {
  if (static_cast<int>(stamp_.size()) != g.size()) resize(g.size());
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  queue_.clear();
}

std::vector<int> BfsScratch::k_hop_neighborhood(const Graph& g, int v, int k) {
  std::vector<int> out;
  k_hop_neighborhood(g, v, k, out);
  return out;
}

void BfsScratch::k_hop_neighborhood(const Graph& g, int v, int k,
                                    std::vector<int>& out) {
  multi_source_k_hop(g, {&v, 1}, k, out);
}

void BfsScratch::two_radius_neighborhood(const Graph& g, int v, int k_inner,
                                         int k_outer, std::vector<int>& inner,
                                         std::vector<int>& outer) {
  MHCA_ASSERT(0 <= k_inner && k_inner <= k_outer,
              "need 0 <= k_inner <= k_outer");
  k_hop_neighborhood(g, v, k_outer, outer);
  // The BFS left dist_ stamped for every vertex of the outer ball; the
  // inner ball is its distance-<= k_inner subset (outer is already sorted).
  inner.clear();
  for (int u : outer)
    if (distance(u) <= k_inner) inner.push_back(u);
}

void BfsScratch::multi_source_k_hop(const Graph& g,
                                    std::span<const int> sources, int k,
                                    std::vector<int>& out) {
  multi_source_k_hop_unsorted(g, sources, k, out);
  std::sort(out.begin(), out.end());
}

void BfsScratch::multi_source_k_hop_unsorted(const Graph& g,
                                             std::span<const int> sources,
                                             int k, std::vector<int>& out) {
  out.clear();
  walk(g, sources, k, AdmitAll{}, [&](int x, int) {
    out.push_back(x);
    return false;
  });
}

void BfsScratch::k_hop_sizes(const Graph& g, std::span<const int> sources,
                             int k, std::span<int> sizes) {
  MHCA_ASSERT(k >= 0, "hop count must be non-negative");
  MHCA_ASSERT(sources.size() <= kMaxSizeSources &&
                  sizes.size() >= sources.size(),
              "k_hop_sizes takes at most 64 sources, one size slot each");
  const auto n = static_cast<std::size_t>(g.size());
  if (reached_by_.size() != n) {
    reached_by_.assign(n, 0);
    arriving_.assign(n, 0);
  }
  // reached_by_[u] = sources whose ball holds u so far; frontier_ pairs a
  // vertex with the sources that reached it at the current depth only.
  reached_.clear();
  frontier_.clear();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const int v = sources[i];
    MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
    auto& bits = reached_by_[static_cast<std::size_t>(v)];
    if (bits == 0) reached_.push_back(v);
    bits |= std::uint64_t{1} << i;
  }
  for (int v : reached_)
    frontier_.emplace_back(v, reached_by_[static_cast<std::size_t>(v)]);
  for (int depth = 0; depth < k && !frontier_.empty(); ++depth) {
    arrived_.clear();
    for (const auto& [x, bits] : frontier_) {
      for (int u : g.neighbors(x)) {
        const auto ui = static_cast<std::size_t>(u);
        const std::uint64_t fresh = bits & ~reached_by_[ui];
        if (fresh == 0) continue;
        if (reached_by_[ui] == 0) reached_.push_back(u);
        if (arriving_[ui] == 0) arrived_.push_back(u);
        arriving_[ui] |= fresh;
        reached_by_[ui] |= fresh;
      }
    }
    frontier_.clear();
    for (int u : arrived_) {
      auto& bits = arriving_[static_cast<std::size_t>(u)];
      frontier_.emplace_back(u, bits);
      bits = 0;
    }
  }
  std::fill_n(sizes.begin(), sources.size(), 0);
  for (int u : reached_) {
    auto& bits = reached_by_[static_cast<std::size_t>(u)];
    for (std::uint64_t m = bits; m != 0; m &= m - 1)
      ++sizes[static_cast<std::size_t>(std::countr_zero(m))];
    bits = 0;
  }
}

std::int64_t FloodSizes::sum(const Graph& g, std::span<const int> vs,
                             BfsScratch& scratch) {
  const auto n = static_cast<std::size_t>(g.size());
  if (empty()) {
    // Everything starts stale, in vertex order.
    size_.assign(n, kStale);
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::int64_t{0});
    next_order_ = static_cast<std::int64_t>(n);
  }
  MHCA_ASSERT(size_.size() == n, "graph size changed under the memo");
  stale_.clear();
  for (const int v : vs) {
    MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
    int& s = size_[static_cast<std::size_t>(v)];
    if (s == kStale) {
      s = kQueued;
      stale_.push_back(v);
    }
  }
  if (!stale_.empty()) {
    std::sort(stale_.begin(), stale_.end(), [&](int a, int b) {
      return order_[static_cast<std::size_t>(a)] <
             order_[static_cast<std::size_t>(b)];
    });
    constexpr std::size_t kBatch = BfsScratch::kMaxSizeSources;
    const std::span<const int> order = stale_;
    std::array<int, kBatch> sizes{};
    for (std::size_t b = 0; b < order.size(); b += kBatch) {
      const auto batch = order.subspan(b, std::min(kBatch, order.size() - b));
      scratch.k_hop_sizes(g, batch, k_, sizes);
      for (std::size_t i = 0; i < batch.size(); ++i)
        size_[static_cast<std::size_t>(batch[i])] = sizes[i];
    }
    recounted_ += static_cast<std::int64_t>(stale_.size());
  }
  std::int64_t total = 0;
  for (const int v : vs) total += size_[static_cast<std::size_t>(v)];
  return total;
}

void FloodSizes::invalidate(std::span<const int> reach,
                            const BfsScratch& scratch) {
  if (empty()) return;
  for (const int v : reach) {
    // BFS order: the rest is farther.
    if (scratch.distance(v) > stale_radius()) break;
    const auto vi = static_cast<std::size_t>(v);
    size_[vi] = kStale;
    order_[vi] = next_order_++;
  }
}

std::int64_t FloodSizes::resident_bytes() const {
  return static_cast<std::int64_t>(size_.capacity() * sizeof(int) +
                                   order_.capacity() * sizeof(std::int64_t) +
                                   stale_.capacity() * sizeof(int));
}

std::vector<int> k_hop_neighborhood(const Graph& g, int v, int k) {
  BfsScratch scratch(g.size());
  return scratch.k_hop_neighborhood(g, v, k);
}

}  // namespace mhca
