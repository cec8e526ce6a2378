#include "scenario/registries.h"

#include <algorithm>

#include "channel/adversarial.h"
#include "channel/bernoulli.h"
#include "channel/gaussian.h"
#include "channel/markov.h"
#include "channel/trace.h"
#include "graph/generators.h"

namespace mhca::scenario {

namespace {

int require_int(const ParamMap& p, const std::string& key,
                const std::string& component) {
  if (!p.has(key))
    throw ScenarioError("missing required key '" + key + "' for " + component);
  const int v = checked_int32(p.get_int(key, 0), key);
  if (v < 1)
    throw ScenarioError("bad value " + std::to_string(v) + " for '" + key +
                        "' of " + component + ": must be >= 1");
  return v;
}

// ------------------------------------------------- topology generators

/// Up to this many nodes, a geometric topology that leaves force_connected
/// unset is rejection-sampled until connected; above it the first sample is
/// kept. A sparse random geometric graph is connected with a probability
/// that decays exponentially in n, so the default rejection sampling works
/// for small networks (every committed scenario has <= 100 nodes) and would
/// exhaust max_attempts on large ones.
constexpr int kGeometricConnectedMaxNodes = 500;

void register_builtin_topologies(TopologyRegistry& reg) {
  reg.add("geometric",
          {"nodes", "avg_degree", "side", "radius", "force_connected",
           "max_attempts"},
          [](const ParamMap& p, Rng& rng) {
            const int n = require_int(p, "nodes", "topology 'geometric'");
            const bool fc = p.get_bool("force_connected",
                                       n <= kGeometricConnectedMaxNodes);
            if (p.has("side") || p.has("radius")) {
              if (!(p.has("side") && p.has("radius")))
                throw ScenarioError(
                    "topology 'geometric' needs both 'side' and 'radius' "
                    "(or neither — then 'avg_degree' sizes the disk)");
              return random_geometric(
                  n, p.get_double("side", 0.0), p.get_double("radius", 0.0),
                  rng, fc,
                  checked_int32(p.get_int("max_attempts", 200), "max_attempts"));
            }
            return random_geometric_avg_degree(
                n, p.get_double("avg_degree", 6.0), rng, fc);
          },
          /*required_keys=*/{"nodes"});
  reg.add(
      "linear", {"nodes"},
      [](const ParamMap& p, Rng&) {
        return linear_network(require_int(p, "nodes", "topology 'linear'"));
      },
      /*required_keys=*/{"nodes"});
  reg.add(
      "grid", {"rows", "cols"},
      [](const ParamMap& p, Rng&) {
        return grid_network(require_int(p, "rows", "topology 'grid'"),
                            require_int(p, "cols", "topology 'grid'"));
      },
      /*required_keys=*/{"rows", "cols"});
  reg.add(
      "complete", {"nodes"},
      [](const ParamMap& p, Rng&) {
        return complete_network(
            require_int(p, "nodes", "topology 'complete'"));
      },
      /*required_keys=*/{"nodes"});
  reg.add(
      "erdos_renyi", {"nodes", "p"},
      [](const ParamMap& p, Rng& rng) {
        return erdos_renyi(require_int(p, "nodes", "topology 'erdos_renyi'"),
                           p.get_double("p", 0.2), rng);
      },
      /*required_keys=*/{"nodes"});
}

// ----------------------------------------------------- channel models

AdversaryKind parse_adversary(const std::string& s) {
  if (s == "drift") return AdversaryKind::kDrift;
  if (s == "swap") return AdversaryKind::kSwap;
  if (s == "ramp") return AdversaryKind::kRamp;
  throw ScenarioError("unknown adversary '" + s +
                      "' for channel model 'adversarial'; "
                      "valid: drift, swap, ramp");
}

void register_builtin_channels(ChannelRegistry& reg) {
  reg.add("gaussian", {"std_frac"},
          [](const ParamMap& p, const ChannelBuildContext& ctx, Rng& rng) {
            return std::unique_ptr<ChannelModel>(
                std::make_unique<GaussianChannelModel>(
                    ctx.num_nodes, ctx.num_channels, rng,
                    p.get_double("std_frac", 0.1)));
          });
  reg.add("bernoulli", {"p_lo", "p_hi"},
          [](const ParamMap& p, const ChannelBuildContext& ctx, Rng& rng) {
            return std::unique_ptr<ChannelModel>(
                std::make_unique<BernoulliChannelModel>(
                    ctx.num_nodes, ctx.num_channels, rng,
                    p.get_double("p_lo", 0.2), p.get_double("p_hi", 0.95)));
          });
  reg.add("markov", {"bad_fraction", "p_lo", "p_hi"},
          [](const ParamMap& p, const ChannelBuildContext& ctx, Rng& rng) {
            return std::unique_ptr<ChannelModel>(
                std::make_unique<GilbertElliottChannelModel>(
                    ctx.num_nodes, ctx.num_channels, rng,
                    p.get_double("bad_fraction", 0.2),
                    p.get_double("p_lo", 0.05), p.get_double("p_hi", 0.3)));
          });
  reg.add("adversarial", {"adversary", "noise_std"},
          [](const ParamMap& p, const ChannelBuildContext& ctx, Rng& rng) {
            return std::unique_ptr<ChannelModel>(
                std::make_unique<AdversarialChannelModel>(
                    ctx.num_nodes, ctx.num_channels,
                    parse_adversary(p.get_string("adversary", "drift")),
                    std::max<std::int64_t>(ctx.horizon, 1), rng,
                    p.get_double("noise_std", 0.02)));
          });
  // Record another model into a replayable trace (the synthetic-substitution
  // path when no measured trace is at hand). Parameters other than `source`
  // and `record_slots` pass through to the source model, which validates
  // them — hence the open key set.
  reg.add("trace", {"source", "record_slots", kOpenKeys},
          [&reg](const ParamMap& p, const ChannelBuildContext& ctx, Rng& rng) {
            const std::string source = p.get_string("source", "gaussian");
            if (source == "trace")
              throw ScenarioError(
                  "channel model 'trace' cannot record itself; pick a "
                  "different 'source'");
            const std::int64_t record_slots = p.get_int(
                "record_slots",
                std::clamp<std::int64_t>(ctx.horizon, 1, 256));
            if (record_slots < 1)
              throw ScenarioError(
                  "bad value " + std::to_string(record_slots) +
                  " for 'record_slots' of channel model 'trace': must be "
                  ">= 1");
            ParamMap source_params;
            for (const auto& [k, v] : p.entries())
              if (k != "source" && k != "record_slots") source_params.set(k, v);
            ChannelBuildContext source_ctx = ctx;
            source_ctx.horizon = record_slots;
            const std::unique_ptr<ChannelModel> src =
                reg.create(source, source_params, source_ctx, rng);
            return std::unique_ptr<ChannelModel>(
                std::make_unique<TraceChannelModel>(
                    record_trace(*src, record_slots)));
          });
}

// -------------------------------------------------- learning policies

void register_builtin_policies(PolicyRegistry& reg) {
  // All built-ins share builtin_policy_params, the single ParamMap ->
  // PolicyParams mapping (also used by to_net_config).
  const auto builtin = [](PolicyKind kind) {
    return [kind](const ParamMap& p, const PolicyBuildContext& ctx) {
      return make_policy(kind, builtin_policy_params(p, ctx.num_nodes));
    };
  };
  reg.add("cab", {}, builtin(PolicyKind::kCab));
  reg.add("llr", {"L"}, builtin(PolicyKind::kLlr));
  reg.add("ucb1", {}, builtin(PolicyKind::kUcb1));
  reg.add("greedy", {}, builtin(PolicyKind::kGreedy));
  reg.add("eps", {"epsilon"}, builtin(PolicyKind::kEpsGreedy));
  reg.add("thompson", {"seed"}, builtin(PolicyKind::kThompson));
}

}  // namespace

PolicyParams builtin_policy_params(const ParamMap& params, int num_nodes) {
  PolicyParams pp;
  pp.llr_max_strategy_len =
      checked_int32(params.get_int("L", num_nodes), "L");
  pp.epsilon = params.get_double("epsilon", pp.epsilon);
  pp.thompson_seed = params.get_uint("seed", pp.thompson_seed);
  return pp;
}

TopologyRegistry& topology_registry() {
  static TopologyRegistry* reg = [] {
    auto* r = new TopologyRegistry("topology");
    register_builtin_topologies(*r);
    return r;
  }();
  return *reg;
}

ChannelRegistry& channel_registry() {
  static ChannelRegistry* reg = [] {
    auto* r = new ChannelRegistry("channel model");
    register_builtin_channels(*r);
    return r;
  }();
  return *reg;
}

PolicyRegistry& policy_registry() {
  static PolicyRegistry* reg = [] {
    auto* r = new PolicyRegistry("policy");
    register_builtin_policies(*r);
    return r;
  }();
  return *reg;
}

}  // namespace mhca::scenario
