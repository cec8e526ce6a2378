#include "scenario/runner.h"

#include <utility>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "scenario/registries.h"
#include "util/assert.h"
#include "util/hash.h"

namespace mhca::scenario {

namespace {

std::unique_ptr<ChannelModel> build_channel(const Scenario& s, int num_nodes,
                                            Rng& rng) {
  const ChannelBuildContext ctx{num_nodes, s.num_channels, s.run.slots};
  return channel_registry().create(s.channel.kind, s.channel.params, ctx, rng);
}

}  // namespace

net::NetConfig to_net_config(const Scenario& s, int num_nodes) {
  net::NetConfig cfg;
  cfg.r = s.solver.r;
  cfg.D = s.solver.D;
  cfg.policy = policy_kind_from_string(s.policy.kind);
  cfg.policy_params = builtin_policy_params(s.policy.params, num_nodes);
  cfg.local_solver = s.solver.local_solver;
  cfg.bnb_node_cap = s.solver.node_cap;
  cfg.faults = s.net.faults;
  cfg.membership = membership_mode_from_string(s.net.membership);
  cfg.liveness = s.net.liveness;
  cfg.mtu = s.net.mtu;
  return cfg;
}

std::uint64_t dynamics_seed_of(const Scenario& s, std::uint64_t base_seed) {
  if (s.dynamics.seed != 0) return s.dynamics.seed;
  // Mixed so nearby run seeds don't produce correlated churn streams.
  return splitmix64(base_seed);
}

struct ScenarioRunner::Parts {
  Scenario s;
  ConflictGraph network;
  std::unique_ptr<ChannelModel> model;
};

// The build order fixes the Rng discipline of a scenario: one master
// Rng(run.seed) first generates the topology, then the channel model — the
// exact sequence hand-written experiments in this repo follow, which is what
// makes scenario-vs-legacy results byte-identical (tests/scenario_test.cc).
ScenarioRunner::Parts ScenarioRunner::make_parts(Scenario s) {
  validate_fields(s);
  Rng rng(s.run.seed);
  ConflictGraph network =
      topology_registry().create(s.topology.kind, s.topology.params, rng);
  std::unique_ptr<ChannelModel> model;
  if (!s.channel.kind.empty())
    model = build_channel(s, network.num_nodes(), rng);
  return Parts{std::move(s), std::move(network), std::move(model)};
}

ScenarioRunner::Parts ScenarioRunner::make_parts(Scenario s,
                                                 ConflictGraph network) {
  validate_fields(s);
  std::unique_ptr<ChannelModel> model;
  if (!s.channel.kind.empty()) {
    Rng rng(s.run.seed);
    model = build_channel(s, network.num_nodes(), rng);
  }
  return Parts{std::move(s), std::move(network), std::move(model)};
}

ScenarioRunner::ScenarioRunner(Parts parts)
    : s_(std::move(parts.s)),
      network_(std::move(parts.network)),
      ecg_(network_, s_.num_channels),
      model_(std::move(parts.model)),
      policy_(policy_registry().create(s_.policy.kind, s_.policy.params,
                                       PolicyBuildContext{
                                           network_.num_nodes()})) {}

ScenarioRunner::ScenarioRunner(Scenario s)
    : ScenarioRunner(make_parts(std::move(s))) {}

ScenarioRunner::ScenarioRunner(Scenario s, ConflictGraph network)
    : ScenarioRunner(make_parts(std::move(s), std::move(network))) {}

const ChannelModel& ScenarioRunner::model() const {
  MHCA_ASSERT(model_ != nullptr,
              "scenario has no built channel model ([channel] kind is empty)");
  return *model_;
}

SimulationResult ScenarioRunner::run() const {
  if (!model_)
    throw ScenarioError(
        "scenario has no channel model; run_with() an external one");
  return run_with(*model_);
}

dynamics::DynamicNetwork ScenarioRunner::make_dynamic_network(
    std::uint64_t base_seed) const {
  MHCA_ASSERT(is_dynamic(s_), "make_dynamic_network on a static scenario");
  Rng rng(dynamics_seed_of(s_, base_seed));
  const dynamics::DynamicsBuildContext ctx{&network_, s_.run.slots};
  std::unique_ptr<dynamics::DynamicsModel> model =
      dynamics::dynamics_registry().create(s_.dynamics.model.kind,
                                           s_.dynamics.model.params, ctx, rng);
  dynamics::DynamicNetwork dyn(network_, s_.num_channels, std::move(model),
                               s_.dynamics.incremental);
  // Batched maintenance aligns the structural flushes with the decision
  // slots; with update_period == 1 every slot decides, so eager == batched.
  if (s_.dynamics.batch && s_.run.update_period > 1)
    dyn.set_batch_period(s_.run.update_period);
  return dyn;
}

ChannelAccessScheme ScenarioRunner::make_scheme() const {
  if (is_dynamic(s_))
    throw ScenarioError(
        "make_scheme() drives the static step API; dynamic scenarios run "
        "through run()/run_net() (set dynamics.kind=static to step by hand)");
  return ChannelAccessScheme(
      network_, s_.num_channels,
      policy_registry().create(s_.policy.kind, s_.policy.params,
                               PolicyBuildContext{network_.num_nodes()}),
      to_simulation_config(s_));
}

SimulationResult ScenarioRunner::run_with(const ChannelModel& model) const {
  if (is_dynamic(s_)) {
    // Each run gets a fresh topology trajectory from slot 1: the dynamic
    // network copies this runner's base graph, so repeated runs (and the
    // runner's own components) never see a half-evolved topology.
    dynamics::DynamicNetwork dyn = make_dynamic_network(s_.run.seed);
    Simulator sim(dyn.ecg(), model, *policy_, to_simulation_config(s_), &dyn);
    return sim.run();
  }
  Simulator sim(ecg_, model, *policy_, to_simulation_config(s_));
  return sim.run();
}

ReplicationReport ScenarioRunner::replicate() const {
  if (s_.replication.replications < 1)
    throw ScenarioError(
        "replicate() needs replication.replications >= 1 (got " +
        std::to_string(s_.replication.replications) + ")");
  if (s_.channel.kind.empty())
    throw ScenarioError("replicate() needs a scenario channel model");
  const Scenario& s = s_;
  const ExtendedConflictGraph& ecg = ecg_;
  const ConflictGraph& network = network_;
  const IndexPolicy& policy = *policy_;
  const ScenarioRunner& self = *this;
  // Fixed base topology, fresh channel realization per seed (the repo's
  // replication convention) — and, for dynamic scenarios, a fresh topology
  // trajectory per seed unless dynamics.seed pins one. Policies are
  // stateless, so one instance is safely shared across the pool.
  const auto experiment = [&s, &ecg, &network, &policy,
                           &self](std::uint64_t seed) {
    Rng rng(seed * 7919 + 11);
    const std::unique_ptr<ChannelModel> model =
        build_channel(s, network.num_nodes(), rng);
    SimulationConfig cfg = to_simulation_config(s);
    cfg.seed = seed;
    if (is_dynamic(s)) {
      dynamics::DynamicNetwork dyn = self.make_dynamic_network(seed);
      Simulator sim(dyn.ecg(), *model, policy, cfg, &dyn);
      return sim.run();
    }
    Simulator sim(ecg, *model, policy, cfg);
    return sim.run();
  };
  ReplicationConfig rcfg;
  rcfg.replications = s_.replication.replications;
  rcfg.seed0 = s_.replication.seed0;
  rcfg.parallelism = s_.replication.parallelism;
  return mhca::replicate(experiment, rcfg);
}

NetRunSummary ScenarioRunner::run_net() const {
  net::LoopbackTransport loopback;
  return run_net_impl(loopback);
}

NetRunSummary ScenarioRunner::run_net_sharded(
    net::Transport& transport) const {
  if (is_dynamic(s_))
    throw ScenarioError(
        "run_net_sharded() supports static scenarios only (sharded churn "
        "rediscovery would need its own exchange barrier)");
  if (membership_mode_from_string(s_.net.membership) !=
      net::MembershipMode::kOmniscient)
    throw ScenarioError(
        "run_net_sharded() requires net.membership = omniscient (the "
        "sharded runtime cannot replay the view-sync membership phase's "
        "same-pass hello responses yet)");
  return run_net_impl(transport);
}

NetRunSummary ScenarioRunner::run_net_impl(net::Transport& transport) const {
  if (!model_)
    throw ScenarioError("run_net() needs a scenario channel model");
  if (s_.run.update_period != 1)
    throw ScenarioError(
        "run_net() decides every round and does not implement "
        "run.update_period = " + std::to_string(s_.run.update_period) +
        "; set run.update_period=1 for the message-level runtime");
  const net::NetConfig net_cfg = to_net_config(s_, network_.num_nodes());
  const bool view_sync =
      net_cfg.membership == net::MembershipMode::kViewSync;
  // The telemetry registry is the single source of truth for every numeric
  // field of the summary: the run publishes into it, and the summary below
  // is *derived* from registry lookups — no field-by-field mirror to drift.
  // When no session registry is installed (obs::set_metrics), a local
  // scratch registry plays the same role, so the data flow — and therefore
  // every decision — is identical with observability on or off.
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* const reg =
      obs::metrics() != nullptr ? obs::metrics() : &local_registry;
  NetRunSummary out;
  out.decision_digest = 0xDEC15105;  // non-zero init: an empty run digests
  const auto drive = [&](net::DistributedRuntime& runtime,
                         dynamics::DynamicNetwork* dyn) {
    obs::Counter& conflicts = reg->counter("decision.conflicts");
    obs::Counter& tx_abstained = reg->counter("decision.tx_abstained");
    obs::Histogram& round_observed = reg->histogram("decision.round_observed");
    obs::Histogram& round_strategy_size =
        reg->histogram("decision.round_strategy_size");
    double total_observed = 0.0;
    for (std::int64_t round = 1; round <= s_.run.slots; ++round) {
      if (dyn != nullptr && round > 1) {
        const dynamics::SlotChange& ch = dyn->advance(round);
        if (ch.changed) {
          // View-sync agents get only link-layer truth (their own direct
          // neighbors, their own on/off state); omniscient agents get the
          // god's-eye scoped rediscovery.
          if (view_sync)
            runtime.on_wire_change(ch.touched_vertices,
                                   dyn->active_vertices());
          else
            runtime.on_topology_change(ch.touched_vertices,
                                       dyn->active_vertices());
        }
      }
      net::NetRoundResult res = runtime.step();
      total_observed += res.observed_sum;
      round_observed.observe(res.observed_sum);
      round_strategy_size.observe(static_cast<double>(res.strategy.size()));
      if (res.conflict) conflicts.inc();
      tx_abstained.add(res.tx_abstained);
      // Every round's winner set, in round order: the decisions themselves,
      // not just the wire traffic — shard runs must agree on this digest.
      out.decision_digest = hash_combine(
          out.decision_digest, static_cast<std::uint64_t>(res.round));
      for (int v : res.strategy)
        out.decision_digest =
            hash_combine(out.decision_digest, static_cast<std::uint64_t>(v));
      out.last_strategy = std::move(res.strategy);
    }
    reg->counter("decision.rounds").add(runtime.rounds_run());
    reg->gauge("decision.total_observed").set(total_observed);
    reg->gauge("decision.strategy_size")
        .set(static_cast<double>(out.last_strategy.size()));
    reg->gauge("decision.max_table_size")
        .set(static_cast<double>(runtime.max_table_size()));
    obs::publish_membership_counters(*reg, runtime.counters());
    obs::publish_channel_stats(*reg, runtime.channel_stats());
    obs::publish_transport_stats(*reg, transport.stats());
    obs::publish_net_memory(*reg, runtime.memory_footprint());
    // ---- The summary, read back out of the registry. The two 64-bit
    // digests stay direct: they are identities, not measurements, and a
    // registry of doubles cannot hold them exactly (> 2^53).
    out.rounds = reg->counter_value("decision.rounds");
    out.conflicts = static_cast<int>(reg->counter_value("decision.conflicts"));
    out.tx_abstained = reg->counter_value("decision.tx_abstained");
    out.total_observed = reg->gauge_value("decision.total_observed");
    out.max_table_size = static_cast<std::size_t>(
        reg->gauge_value("decision.max_table_size"));
    out.retries = reg->counter_value("membership.retries");
    out.timeouts = reg->counter_value("membership.timeouts");
    out.view_changes = reg->counter_value("membership.view_changes");
    out.stale_decisions = reg->counter_value("membership.stale_decisions");
    out.messages = reg->counter_value("channel.messages");
    out.drops = reg->counter_value("channel.drops");
    out.duplicates = reg->counter_value("channel.duplicates");
    out.deferred = reg->counter_value("channel.deferred");
    out.bytes_on_wire = reg->counter_value("channel.bytes_on_wire");
    out.fragments = reg->counter_value("channel.fragments");
    for (int t = 0; t < net::kNumMsgTypes; ++t) {
      const char* label = obs::msg_type_label(t);
      out.messages_by_type[t] =
          reg->counter_value(std::string("channel.messages.") + label);
      out.bytes_by_type[t] =
          reg->counter_value(std::string("channel.bytes.") + label);
    }
    const auto mem_gauge = [&](const char* key) {
      return static_cast<std::int64_t>(reg->gauge_value(key));
    };
    out.memory.member_lists = mem_gauge("net.mem.member_lists_bytes");
    out.memory.tables = mem_gauge("net.mem.tables_bytes");
    out.memory.local_graphs = mem_gauge("net.mem.local_graphs_bytes");
    out.memory.index_memo = mem_gauge("net.mem.index_memo_bytes");
    out.trace_hash = runtime.channel().trace_hash();
  };
  if (is_dynamic(s_)) {
    dynamics::DynamicNetwork dyn = make_dynamic_network(s_.run.seed);
    net::DistributedRuntime runtime(dyn.ecg(), *model_, net_cfg, transport);
    drive(runtime, &dyn);
  } else {
    net::DistributedRuntime runtime(ecg_, *model_, net_cfg, transport);
    drive(runtime, nullptr);
  }
  return out;
}

}  // namespace mhca::scenario
