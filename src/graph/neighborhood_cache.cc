#include "graph/neighborhood_cache.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "graph/hop.h"
#include "util/assert.h"
#include "util/parallel.h"

namespace mhca {

int NeighborhoodCache::build_workers(int parallelism, int n) {
  if (parallelism == 0) {
    if (const char* env = std::getenv("MHCA_CACHE_BUILD_WORKERS"))
      parallelism = std::atoi(env);
  }
  if (parallelism <= 0) {
    parallelism = static_cast<int>(std::thread::hardware_concurrency());
    if (parallelism <= 0) parallelism = 1;
  }
  return std::min(parallelism, std::max(n, 1));
}

NeighborhoodCache::EballTier NeighborhoodCache::select_eball_tier(int n) {
  if (const char* env = std::getenv("MHCA_EBALL_TIER")) {
    if (std::strcmp(env, "explicit") == 0) return EballTier::kExplicit;
    MHCA_ASSERT(std::strcmp(env, "implicit") == 0,
                std::string("MHCA_EBALL_TIER='") + env +
                    "' is not a tier; valid values: explicit, implicit "
                    "(unset = by size)");
    return EballTier::kImplicit;
  }
  return n <= Graph::kAdjacencyMatrixLimit ? EballTier::kExplicit
                                           : EballTier::kImplicit;
}

NeighborhoodCache::NeighborhoodCache(const Graph& g, int r, int parallelism)
    : r_(r), size_(g.size()), tier_(select_eball_tier(g.size())) {
  MHCA_ASSERT(r >= 1, "r must be at least 1");
  const auto n = static_cast<std::size_t>(size_);
  const bool implicit = tier_ == EballTier::kImplicit;
  r_offsets_.assign(n + 1, 0);
  if (implicit)
    e_sizes_.assign(n, 0);
  else
    e_offsets_.assign(n + 1, 0);

  const int workers = build_workers(parallelism, size_);
  if (workers <= 1) {
    // Serial single-pass build: one BFS to 2r+1 hops per vertex yields both
    // balls (the r-ball is the distance-<= r subset of the election ball),
    // appended as they are produced. The implicit tier keeps only the
    // election ball's size.
    BfsScratch scratch(size_);
    std::vector<int> r_ball;
    std::vector<int> e_ball;
    for (int v = 0; v < size_; ++v) {
      scratch.two_radius_neighborhood(g, v, r_, 2 * r_ + 1, r_ball, e_ball);
      if (implicit) {
        e_sizes_[static_cast<std::size_t>(v)] =
            static_cast<int>(e_ball.size());
      } else {
        e_offsets_[static_cast<std::size_t>(v) + 1] =
            e_offsets_[static_cast<std::size_t>(v)] +
            static_cast<std::int64_t>(e_ball.size());
        e_data_.insert(e_data_.end(), e_ball.begin(), e_ball.end());
      }
      r_offsets_[static_cast<std::size_t>(v) + 1] =
          r_offsets_[static_cast<std::size_t>(v)] +
          static_cast<std::int64_t>(r_ball.size());
      r_data_.insert(r_data_.end(), r_ball.begin(), r_ball.end());
    }
    return;
  }

  // Parallel count-then-fill build. Each worker owns a contiguous vertex
  // slice; per-vertex output is a pure function of (g, v, r), so the filled
  // arrays are byte-identical to the serial build at any worker count
  // (tests/large_n_test.cc pins this). Pass 1 runs a size-only BFS per
  // vertex (no sort, no materialization) into the disjoint offset slots;
  // pass 2, after a serial prefix sum, re-runs the BFS and writes each ball
  // into its final CSR span — two BFS sweeps, but no transient second copy
  // of the multi-hundred-MB ball arrays. On the implicit tier the e-ball
  // count lands directly in e_sizes_ and the fill pass only cross-checks
  // it against the re-enumerated ball.
  std::vector<BfsScratch> scratches(static_cast<std::size_t>(workers));
  const auto slice = [&](int j) {
    const std::int64_t lo = static_cast<std::int64_t>(j) * size_ / workers;
    const std::int64_t hi =
        static_cast<std::int64_t>(j + 1) * size_ / workers;
    return std::pair<int, int>{static_cast<int>(lo), static_cast<int>(hi)};
  };
  parallel_run(
      workers,
      [&](int j) {
        auto& scratch = scratches[static_cast<std::size_t>(j)];
        scratch.resize(size_);
        const auto [lo, hi] = slice(j);
        for (int v = lo; v < hi; ++v) {
          std::int64_t e_size = 0;
          scratch.two_radius_sizes(g, v, r_, 2 * r_ + 1,
                                   r_offsets_[static_cast<std::size_t>(v) + 1],
                                   e_size);
          if (implicit)
            e_sizes_[static_cast<std::size_t>(v)] = static_cast<int>(e_size);
          else
            e_offsets_[static_cast<std::size_t>(v) + 1] = e_size;
        }
      },
      workers);
  for (std::size_t v = 0; v < n; ++v) {
    r_offsets_[v + 1] += r_offsets_[v];
    if (!implicit) e_offsets_[v + 1] += e_offsets_[v];
  }
  r_data_.resize(static_cast<std::size_t>(r_offsets_[n]));
  if (!implicit) e_data_.resize(static_cast<std::size_t>(e_offsets_[n]));
  parallel_run(
      workers,
      [&](int j) {
        auto& scratch = scratches[static_cast<std::size_t>(j)];
        std::vector<int> r_ball;
        std::vector<int> e_ball;
        const auto [lo, hi] = slice(j);
        for (int v = lo; v < hi; ++v) {
          const auto vi = static_cast<std::size_t>(v);
          scratch.two_radius_neighborhood(g, v, r_, 2 * r_ + 1, r_ball,
                                          e_ball);
          const std::int64_t e_counted =
              implicit ? e_sizes_[vi] : e_offsets_[vi + 1] - e_offsets_[vi];
          MHCA_ASSERT(static_cast<std::int64_t>(r_ball.size()) ==
                              r_offsets_[vi + 1] - r_offsets_[vi] &&
                          static_cast<std::int64_t>(e_ball.size()) ==
                              e_counted,
                      "count pass disagrees with fill pass");
          std::copy(r_ball.begin(), r_ball.end(),
                    r_data_.begin() +
                        static_cast<std::ptrdiff_t>(r_offsets_[vi]));
          if (!implicit)
            std::copy(e_ball.begin(), e_ball.end(),
                      e_data_.begin() +
                          static_cast<std::ptrdiff_t>(e_offsets_[vi]));
        }
      },
      workers);
}

std::int64_t NeighborhoodCache::resident_bytes() const {
  const auto bytes = [](const auto& vec) {
    return static_cast<std::int64_t>(vec.size() * sizeof(vec[0]));
  };
  return bytes(r_offsets_) + bytes(r_data_) + bytes(e_offsets_) +
         bytes(e_data_) + bytes(e_sizes_);
}

std::int64_t NeighborhoodCache::explicit_layout_bytes() const {
  if (tier_ == EballTier::kExplicit) return resident_bytes();
  std::int64_t e_entries = 0;
  for (const int s : e_sizes_) e_entries += s;
  const auto bytes = [](const auto& vec) {
    return static_cast<std::int64_t>(vec.size() * sizeof(vec[0]));
  };
  return resident_bytes() - bytes(e_sizes_) +
         static_cast<std::int64_t>(size_ + 1) *
             static_cast<std::int64_t>(sizeof(std::int64_t)) +
         e_entries * static_cast<std::int64_t>(sizeof(int));
}

void NeighborhoodCache::apply_delta(const Graph& g,
                                    std::span<const int> touched) {
  MHCA_ASSERT(built(), "apply_delta on an unbuilt cache");
  MHCA_ASSERT(g.size() == size_, "graph size changed under the cache");
  for (int t : touched)
    MHCA_ASSERT(t >= 0 && t < size_, "touched vertex out of range");
  if (touched.empty()) {
    last_invalidated_ = 0;
    return;
  }

  // The two reaches (see the header): r-balls within r hops of
  // `touched`, election balls within 2r+1. The (2r+1)-reach stays in BFS
  // order on the implicit tier, so each 64-source batch of k_hop_sizes
  // holds nearby vertices whose balls mostly overlap.
  const bool implicit = tier_ == EballTier::kImplicit;
  scratch_.multi_source_k_hop_unsorted(g, touched, 2 * r_ + 1, e_reach_);
  if (!implicit) std::sort(e_reach_.begin(), e_reach_.end());
  scratch_.multi_source_k_hop(g, touched, r_, r_reach_);

  // Recompute the reach's balls into flat buffers (they hold the blast
  // radius, not the whole cache), then patch them in.
  r_new_.clear();
  e_new_.clear();
  if (implicit) {
    constexpr std::size_t kBatch = BfsScratch::kMaxSizeSources;
    const std::span<const int> order = e_reach_;
    std::array<int, kBatch> sizes{};
    for (std::size_t b = 0; b < order.size(); b += kBatch) {
      const auto batch = order.subspan(b, std::min(kBatch, order.size() - b));
      scratch_.k_hop_sizes(g, batch, 2 * r_ + 1, sizes);
      for (std::size_t i = 0; i < batch.size(); ++i)
        e_sizes_[static_cast<std::size_t>(batch[i])] = sizes[i];
    }
    for (const int v : r_reach_) {
      scratch_.k_hop_neighborhood(g, v, r_, r_ball_);
      r_new_.append(r_ball_);
    }
  } else {
    auto next_r = r_reach_.begin();
    for (const int v : e_reach_) {
      scratch_.two_radius_neighborhood(g, v, r_, 2 * r_ + 1, r_ball_, e_ball_);
      e_new_.append(e_ball_);
      if (next_r != r_reach_.end() && *next_r == v) {
        ++next_r;
        r_new_.append(r_ball_);
      }
    }
  }
  patch(r_offsets_, r_data_, r_reach_, r_new_);
  if (!implicit) patch(e_offsets_, e_data_, e_reach_, e_new_);
  last_invalidated_ = static_cast<int>(e_reach_.size());
}

void NeighborhoodCache::patch(std::vector<std::int64_t>& offsets,
                              std::vector<int>& data,
                              std::span<const int> ids, const Balls& balls) {
  // A span whose size did not change — and every span before the first
  // size change — keeps its offset and is overwritten in place; only the
  // suffix from the first size-changing vertex on is rebuilt in tail_
  // (recomputed spans from `balls`, the others from their still intact old
  // position) and copied back.
  const auto at = [](auto& vec, std::int64_t i) {
    return vec.begin() + static_cast<std::ptrdiff_t>(i);
  };
  const auto new_size = [&](std::size_t k) {
    return balls.off[k + 1] - balls.off[k];
  };
  const auto old_size = [&](std::size_t v) {
    return offsets[v + 1] - offsets[v];
  };
  std::size_t k = 0;
  for (; k < ids.size(); ++k) {
    const auto v = static_cast<std::size_t>(ids[k]);
    if (new_size(k) != old_size(v)) break;
    std::copy_n(at(balls.data, balls.off[k]), new_size(k),
                at(data, offsets[v]));
  }
  if (k == ids.size()) return;
  const auto lo = static_cast<std::size_t>(ids[k]);
  const auto n = static_cast<std::size_t>(size_);
  tail_.clear();
  tail_sizes_.clear();
  const auto take = [&](const std::vector<int>& src, std::int64_t b,
                        std::int64_t len) {
    tail_.insert(tail_.end(), at(src, b), at(src, b + len));
    tail_sizes_.push_back(len);
  };
  for (std::size_t v = lo; v < n; ++v) {
    if (k < ids.size() && static_cast<std::size_t>(ids[k]) == v) {
      take(balls.data, balls.off[k], new_size(k));
      ++k;
    } else {
      take(data, offsets[v], old_size(v));
    }
  }
  const std::int64_t base = offsets[lo];
  data.resize(static_cast<std::size_t>(base) + tail_.size());
  std::copy(tail_.begin(), tail_.end(), at(data, base));
  for (std::size_t v = lo; v < n; ++v)
    offsets[v + 1] = offsets[v] + tail_sizes_[v - lo];
}

}  // namespace mhca
