#include "reference/classic_bnb.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace mhca::reference {
namespace {

/// One solve. Local ids 0..n-1 index the sorted candidates; `adj_` is the
/// n x n local adjacency read once through Graph::has_edge.
class ClassicSearch {
 public:
  ClassicSearch(const Graph& g, std::span<const double> weights,
                std::span<const int> candidates, std::int64_t cap)
      : cands_(candidates.begin(), candidates.end()), cap_(cap) {
    std::sort(cands_.begin(), cands_.end());
    MHCA_ASSERT(std::adjacent_find(cands_.begin(), cands_.end()) ==
                    cands_.end(),
                "duplicate candidates");
    n_ = cands_.size();
    w_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      MHCA_ASSERT(cands_[i] >= 0 && cands_[i] < g.size(),
                  "candidate out of range");
      w_[i] = weights[static_cast<std::size_t>(cands_[i])];
    }
    adj_.assign(n_ * n_, 0);
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t j = i + 1; j < n_; ++j)
        if (g.has_edge(cands_[i], cands_[j]))
          adj_[i * n_ + j] = adj_[j * n_ + i] = 1;
  }

  MwisResult run() {
    // Weight-descending order, ties by local (= ascending original) id.
    std::vector<std::size_t> order(n_);
    for (std::size_t i = 0; i < n_; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (w_[a] != w_[b]) return w_[a] > w_[b];
      return a < b;
    });

    // Greedy clique cover: each vertex joins the first clique it is fully
    // adjacent to, else opens a new one (members stay weight-descending).
    for (std::size_t v : order) {
      auto fits = [&](const std::vector<std::size_t>& q) {
        return std::all_of(q.begin(), q.end(),
                           [&](std::size_t u) { return adjacent(v, u); });
      };
      const auto it = std::find_if(cliques_.begin(), cliques_.end(), fits);
      if (it != cliques_.end()) {
        it->push_back(v);
      } else {
        cliques_.push_back({v});
      }
    }
    // Heaviest clique first; suffix sums of the per-clique maxima bound any
    // completion (remaining_[c] covers cliques c..end).
    std::sort(cliques_.begin(), cliques_.end(),
              [&](const auto& a, const auto& b) {
                if (w_[a.front()] != w_[b.front()])
                  return w_[a.front()] > w_[b.front()];
                return a.front() < b.front();
              });
    remaining_.assign(cliques_.size() + 1, 0.0);
    for (std::size_t c = cliques_.size(); c-- > 0;)
      remaining_[c] = remaining_[c + 1] + w_[cliques_[c].front()];

    // Greedy incumbent over the same order.
    for (std::size_t v : order) {
      if (conflicts(v, best_set_)) continue;
      best_set_.push_back(v);
      best_weight_ += w_[v];
    }

    dfs(0);

    MwisResult res;
    for (std::size_t i : best_set_) res.vertices.push_back(cands_[i]);
    std::sort(res.vertices.begin(), res.vertices.end());
    res.weight = best_weight_;
    res.exact = !aborted_;
    res.nodes_explored = explored_;
    return res;
  }

 private:
  bool adjacent(std::size_t v, std::size_t u) const {
    return adj_[v * n_ + u] != 0;
  }

  bool conflicts(std::size_t v, const std::vector<std::size_t>& set) const {
    return std::any_of(set.begin(), set.end(),
                       [&](std::size_t u) { return adjacent(v, u); });
  }

  void dfs(std::size_t c) {
    if (aborted_) return;
    if (++explored_ > cap_) {
      aborted_ = true;
      return;
    }
    if (c == cliques_.size()) {
      if (cur_weight_ > best_weight_) {
        best_weight_ = cur_weight_;
        best_set_ = chosen_;
      }
      return;
    }
    if (cur_weight_ + remaining_[c] <= best_weight_) return;  // bound
    bool rest_pruned = false;
    for (std::size_t v : cliques_[c]) {
      // Members are weight-descending: once cur + w[v] + UB(rest) cannot
      // beat the incumbent, no lighter member can, and for w[v] >= 0
      // neither can leaving the clique empty.
      if (cur_weight_ + w_[v] + remaining_[c + 1] <= best_weight_) {
        rest_pruned = w_[v] >= 0.0;
        break;
      }
      if (conflicts(v, chosen_)) continue;
      chosen_.push_back(v);
      cur_weight_ += w_[v];
      dfs(c + 1);
      cur_weight_ -= w_[v];
      chosen_.pop_back();
      if (aborted_) return;
    }
    if (!rest_pruned) dfs(c + 1);  // leave this clique empty
  }

  std::vector<int> cands_;
  std::size_t n_ = 0;
  std::vector<double> w_;
  std::vector<char> adj_;
  std::vector<std::vector<std::size_t>> cliques_;
  std::vector<double> remaining_;
  std::vector<std::size_t> chosen_;
  std::vector<std::size_t> best_set_;
  double cur_weight_ = 0.0;
  double best_weight_ = 0.0;
  std::int64_t explored_ = 0;
  std::int64_t cap_;
  bool aborted_ = false;
};

}  // namespace

MwisResult classic_bnb(const Graph& g, std::span<const double> weights,
                       std::span<const int> candidates,
                       std::int64_t node_cap) {
  if (candidates.empty()) return MwisResult{};
  return ClassicSearch(g, weights, candidates, node_cap).run();
}

}  // namespace mhca::reference
