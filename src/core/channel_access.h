// The paper's channel-access scheme as a step API, for callers that own the
// radio environment: decide() a strategy, report() what each transmitter
// observed, repeat (Algorithm 2, one round per decide()).
//
// Build it from a scenario (see examples/quickstart.cc):
//
//   scenario::ScenarioRunner runner(scenario::parse_scenario_file(path));
//   ChannelAccessScheme scheme = runner.make_scheme();
//   for (;;) {
//     const Strategy& s = scheme.decide();
//     ... node i transmits on s.channel_of_node[i] ...
//     scheme.report(i, observed_rate);  // once per node that transmitted
//   }
//
// Batch simulation against a channel model is ScenarioRunner::run() /
// run_with(). Both paths decide through the same DecisionOracle
// (sim/decision_oracle.h): reporting a model's samples for
// current_vertices() in order reproduces the simulation exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/policy.h"
#include "graph/conflict_graph.h"
#include "graph/extended_graph.h"
#include "sim/config.h"
#include "sim/decision_oracle.h"
#include "util/rng.h"

namespace mhca {

class ChannelAccessScheme {
 public:
  /// The scheme over `network` with `num_channels` channels, learning with
  /// `policy` and deciding with the oracle `cfg` selects (`cfg.seed` drives
  /// the policy's randomized rounds; the horizon fields are unused).
  ChannelAccessScheme(ConflictGraph network, int num_channels,
                      std::unique_ptr<IndexPolicy> policy,
                      const SimulationConfig& cfg);
  // The oracle holds a reference into ecg_, so the scheme stays put.
  ChannelAccessScheme(const ChannelAccessScheme&) = delete;
  ChannelAccessScheme& operator=(const ChannelAccessScheme&) = delete;

  const ExtendedConflictGraph& extended_graph() const { return ecg_; }
  const ConflictGraph& network() const { return network_; }
  const IndexPolicy& policy() const { return *policy_; }
  const ArmEstimates& estimates() const { return est_; }
  std::int64_t current_round() const { return t_; }

  /// Advance one round and compute the strategy from current estimates
  /// (Algorithm 2's strategy-decision part).
  const Strategy& decide();

  /// Report the data rate `node` observed on its current channel
  /// (normalized to [0,1]); updates the node's arm statistics (eqs. 5-6).
  /// At most once per node per round.
  void report(int node, double reward);

  /// The current strategy as vertices of H.
  const std::vector<int>& current_vertices() const {
    return current_vertices_;
  }

 private:
  ConflictGraph network_;
  ExtendedConflictGraph ecg_;
  std::unique_ptr<IndexPolicy> policy_;
  ArmEstimates est_;
  DecisionOracle oracle_;
  Rng rng_;

  std::int64_t t_ = 0;
  std::vector<double> weights_;
  std::vector<int> current_vertices_;
  Strategy current_;
  std::vector<std::int64_t> reported_round_;  ///< Per node; 0 = never.
};

}  // namespace mhca
