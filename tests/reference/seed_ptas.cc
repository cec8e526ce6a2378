#include "reference/seed_ptas.h"

#include <algorithm>
#include <limits>

#include "util/assert.h"

namespace mhca::reference {
namespace {

/// Election key: (weight, -id) lexicographic, so higher weight wins and the
/// lower id breaks exact ties.
using Key = std::pair<double, int>;

Key key_of(int v, std::span<const double> w) {
  return {w[static_cast<std::size_t>(v)], -v};
}

constexpr Key kMinKey{-std::numeric_limits<double>::infinity(),
                      std::numeric_limits<int>::min()};

}  // namespace

SeedPtas::SeedPtas(const Graph& h, DistributedPtasConfig cfg)
    : h_(h), cfg_(cfg), solver_(cfg.bnb_node_cap), bfs_(h.size()) {
  MHCA_ASSERT(cfg_.r >= 1, "r must be at least 1");
  MHCA_ASSERT(cfg_.local_solver == LocalSolverKind::kExact,
              "the reference runs the exact local solver only");
}

int SeedPtas::ball_size(int v, int radius) {
  bfs_.k_hop_neighborhood(h_, v, radius, ball_);
  return static_cast<int>(ball_.size());
}

std::int64_t SeedPtas::weight_broadcast_messages(
    std::span<const int> prev_winners) {
  std::int64_t msgs = 0;
  for (int v : prev_winners) msgs += ball_size(v, 2 * cfg_.r + 1);
  return msgs;
}

std::vector<int> SeedPtas::elect(std::span<const double> weights,
                                 const std::vector<VertexStatus>& status) {
  const auto n = static_cast<std::size_t>(h_.size());
  relax_.resize(n);
  relax_next_.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    relax_[v] = status[v] == VertexStatus::kCandidate
                    ? key_of(static_cast<int>(v), weights)
                    : kMinKey;
  for (int step = 0; step < 2 * cfg_.r + 1; ++step) {
    for (std::size_t v = 0; v < n; ++v) {
      Key best = relax_[v];
      for (int u : h_.neighbors(static_cast<int>(v)))
        best = std::max(best, relax_[static_cast<std::size_t>(u)]);
      relax_next_[v] = best;
    }
    std::swap(relax_, relax_next_);
  }
  std::vector<int> leaders;
  for (std::size_t v = 0; v < n; ++v)
    if (status[v] == VertexStatus::kCandidate &&
        relax_[v] == key_of(static_cast<int>(v), weights))
      leaders.push_back(static_cast<int>(v));
  return leaders;
}

DistributedPtasResult SeedPtas::run(std::span<const double> weights,
                                    std::span<const char> active) {
  const int n = h_.size();
  const int r = cfg_.r;
  MHCA_ASSERT(static_cast<int>(weights.size()) == n, "weight vector mismatch");
  MHCA_ASSERT(active.empty() || static_cast<int>(active.size()) == n,
              "activity mask mismatch");
  std::vector<VertexStatus> status(static_cast<std::size_t>(n),
                                   VertexStatus::kCandidate);
  int candidates = n;
  for (std::size_t v = 0; v < active.size(); ++v) {
    if (!active[v]) {
      status[v] = VertexStatus::kLoser;
      --candidates;
    }
  }
  const auto mark = [&](int v, VertexStatus s) {
    status[static_cast<std::size_t>(v)] = s;
    --candidates;
  };
  const auto is_candidate = [&](int v) {
    return status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate;
  };

  DistributedPtasResult res;
  int mini_round = 0;
  while (candidates > 0 &&
         (cfg_.max_mini_rounds == 0 || mini_round < cfg_.max_mini_rounds)) {
    ++mini_round;
    MiniRoundRecord rec;
    rec.mini_round = mini_round;
    const std::vector<int> leaders = elect(weights, status);
    MHCA_ASSERT(!leaders.empty(),
                "a candidate of globally maximal weight must elect itself");
    rec.leaders = static_cast<int>(leaders.size());

    // Leaders' r-balls are pairwise disjoint and non-adjacent (Theorem 3),
    // so gathering every instance before applying any verdict is the
    // sequential protocol.
    std::vector<std::vector<int>> instances;
    for (int leader : leaders) {
      bfs_.k_hop_neighborhood(h_, leader, r, ball_);
      std::vector<int>& cands = instances.emplace_back();
      for (int v : ball_)
        if (is_candidate(v)) cands.push_back(v);
    }
    for (std::size_t li = 0; li < leaders.size(); ++li) {
      const MwisResult local = solver_.solve(h_, weights, instances[li]);
      res.solver_nodes_explored += local.nodes_explored;
      if (!local.exact) res.all_local_solves_exact = false;
      for (int v : local.vertices) {
        mark(v, VertexStatus::kWinner);
        res.winners.push_back(v);
        res.weight += weights[static_cast<std::size_t>(v)];
        ++rec.new_winners;
      }
      for (int v : instances[li]) {
        if (!is_candidate(v)) continue;
        mark(v, VertexStatus::kLoser);
        ++rec.new_losers;
      }
      // Winner-adjacent candidates just outside the r-ball lose too.
      for (int w : local.vertices) {
        for (int u : h_.neighbors(w)) {
          if (!is_candidate(u)) continue;
          mark(u, VertexStatus::kLoser);
          ++rec.new_losers;
        }
      }
      if (cfg_.count_messages) {
        rec.messages += ball_size(leaders[li], 2 * r + 1);  // LD flood
        rec.messages += ball_size(leaders[li], 3 * r + 2);  // LB flood
      }
    }
    rec.candidates_remaining = candidates;
    rec.cumulative_weight = res.weight;
    res.total_messages += rec.messages;
    res.total_mini_timeslots += (2 * r + 1) + (3 * r + 2);
    res.mini_rounds.push_back(rec);
  }
  res.mini_rounds_used = mini_round;
  res.all_marked = candidates == 0;
  std::sort(res.winners.begin(), res.winners.end());
  MHCA_ASSERT(h_.is_independent_set(res.winners),
              "reference PTAS produced a conflicting strategy");
  return res;
}

}  // namespace mhca::reference
