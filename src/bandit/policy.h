// Learning-policy interface: per-arm optimistic indices.
//
// A policy maps the sufficient statistics (µ̃_k, m_k) and the round number t
// to an exploration-adjusted weight per arm; the MWIS oracle then selects
// the strategy maximizing the summed index (paper eq. 4). Different papers'
// policies differ only in the index formula, so comparisons (CAB vs LLR vs
// UCB1) share the entire decision and transmission machinery.
//
// The index is a pure function of (µ̃_k, m_k, k, t, K) — `index_from` — so a
// distributed vertex can evaluate it from locally stored statistics without
// any global state; `index` is a convenience over a global ArmEstimates.
// That purity is load-bearing: the message-level runtime (src/net) computes
// each vertex's index once per round and lets every agent whose stored
// statistics match bit for bit reuse it, so an implementation that kept
// state, read a clock or drew randomness would change --net decisions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/estimates.h"
#include "util/rng.h"

namespace mhca {

class IndexPolicy {
 public:
  virtual ~IndexPolicy() = default;

  virtual std::string name() const = 0;

  /// Index of an arm with observed mean `mean` played `count` times, at
  /// (1-based) round t, among `num_arms` arms total. Must return
  /// unplayed_index(k, num_arms) when count = 0, and must be pure: the same
  /// arguments give the same bits on every call (see the header comment).
  virtual double index_from(double mean, std::int64_t count, int k,
                            std::int64_t t, int num_arms) const = 0;

  /// Index of arm k given global estimates.
  double index(const ArmEstimates& est, int k, std::int64_t t) const {
    return index_from(est.mean(k), est.count(k), k, t, est.num_arms());
  }

  /// Fill `out` (resized to K) with all arms' indices.
  void compute_indices(const ArmEstimates& est, std::int64_t t,
                       std::vector<double>& out) const;

  /// ε-greedy hook: return true to replace this round's indices with
  /// uniform random weights. Default: never.
  virtual bool randomize_round(std::int64_t t, Rng& rng) const;

  /// Deterministic optimistic value for never-played arms: strictly above
  /// any reachable reward (rewards live in [0,1]), distinct per arm so ties
  /// are broken identically in every runtime.
  static double unplayed_index(int k, int num_arms);
};

/// Available learning policies.
enum class PolicyKind {
  kCab,        ///< Paper's adopted policy (eq. 3; Zhou & Li 2013).
  kLlr,        ///< LLR, Gai–Krishnamachari–Jain 2012 (paper's baseline).
  kUcb1,       ///< Classic UCB1 bonus per arm (extension).
  kGreedy,     ///< Exploit-only (no bonus) — ablation baseline.
  kEpsGreedy,  ///< Random strategy with probability ε — ablation baseline.
  kThompson,   ///< Derandomized Thompson sampling (extension).
};

std::string to_string(PolicyKind kind);

struct PolicyParams {
  int llr_max_strategy_len = 1;  ///< L in the LLR bonus; use N.
  double epsilon = 0.1;          ///< ε for kEpsGreedy.
  std::uint64_t thompson_seed = 0x7503a11ULL;  ///< kThompson derandomizer.
};

std::unique_ptr<IndexPolicy> make_policy(PolicyKind kind,
                                         const PolicyParams& params = {});

}  // namespace mhca
