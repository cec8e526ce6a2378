#include "core/channel_access.h"

#include "util/assert.h"

namespace mhca {

ChannelAccessScheme::ChannelAccessScheme(ConflictGraph network,
                                         int num_channels,
                                         std::unique_ptr<IndexPolicy> policy,
                                         const SimulationConfig& cfg)
    : network_(std::move(network)),
      ecg_(network_, num_channels),
      policy_(std::move(policy)),
      est_(ecg_.num_vertices()),
      oracle_(ecg_.graph(), cfg),
      rng_(cfg.seed),
      reported_round_(static_cast<std::size_t>(network_.num_nodes()), 0) {
  MHCA_ASSERT(policy_ != nullptr, "the scheme needs a policy");
  current_.channel_of_node.assign(
      static_cast<std::size_t>(network_.num_nodes()), Strategy::kNoChannel);
}

const Strategy& ChannelAccessScheme::decide() {
  ++t_;
  if (policy_->randomize_round(t_, rng_)) {
    weights_.resize(static_cast<std::size_t>(ecg_.num_vertices()));
    for (auto& w : weights_) w = rng_.uniform();
  } else {
    policy_->compute_indices(est_, t_, weights_);
  }
  current_vertices_ = oracle_.decide(weights_).winners;
  current_ = ecg_.to_strategy(current_vertices_);
  return current_;
}

void ChannelAccessScheme::report(int node, double reward) {
  MHCA_ASSERT(node >= 0 && node < network_.num_nodes(), "node out of range");
  MHCA_ASSERT(t_ >= 1, "report before the first decide()");
  const auto i = static_cast<std::size_t>(node);
  const int chan = current_.channel_of_node[i];
  MHCA_ASSERT(chan != Strategy::kNoChannel,
              "node did not transmit in the current strategy");
  MHCA_ASSERT(reported_round_[i] != t_,
              "node already reported in this round");
  reported_round_[i] = t_;
  est_.observe(ecg_.vertex_of(node, chan), reward);
}

}  // namespace mhca
