// Quickstart: the public API in ~60 lines.
//
// The primary entry point is the declarative Scenario API: describe the
// whole experiment (topology x channel x policy x solver x run) as data,
// and let ScenarioRunner build and drive it. Callers that own the radio
// environment step the same scenario by hand through make_scheme().
#include <iostream>

#include "channel/gaussian.h"
#include "core/channel_access.h"
#include "scenario/runner.h"
#include "sim/optimum.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;

  // --- Scenario mode: the experiment as data (see src/scenario/README.md;
  // the same text can live in a .ini file and run via `mhca_sim run`). ---
  scenario::Scenario s = scenario::parse_scenario(R"(name = quickstart
[topology]
kind = geometric
nodes = 20
avg_degree = 5.0
[channel]
kind = gaussian
channels = 8
[policy]
kind = cab
[run]
slots = 500
seed = 7
)");
  // Any knob is one override away — no recompilation:
  scenario::apply_override(s, "solver.D=4");

  scenario::ScenarioRunner runner(s);
  const SimulationResult res = runner.run();
  const OptimumInfo opt =
      compute_optimum(runner.extended_graph(), runner.model());

  TablePrinter table({"metric", "value"});
  table.row("slots", res.total_slots);
  table.row("avg transmitters per slot", fixed(res.avg_strategy_size, 2));
  table.row("avg observed throughput (kbps)",
            fixed(res.total_observed / 500.0 * kRateScaleKbps, 1));
  table.row("avg effective throughput (kbps, theta-discounted)",
            fixed(res.total_effective / 500.0 * kRateScaleKbps, 1));
  table.row("static optimum R1 (kbps)", fixed(opt.weight * kRateScaleKbps, 1));
  table.row("expected/optimal ratio",
            fixed(res.total_expected / 500.0 / opt.weight, 3));
  table.print(std::cout);

  // --- Step-by-step mode: you own the radio environment. The scenario
  // still names the network, policy and solver; make_scheme() hands back a
  // decide()/report() handle over the runner's network. ---
  ChannelAccessScheme scheme = runner.make_scheme();
  const ConflictGraph& network = scheme.network();
  Rng rng(11);
  GaussianChannelModel environment(network.num_nodes(), 8, rng);
  for (std::int64_t t = 1; t <= 50; ++t) {
    const Strategy& st = scheme.decide();
    for (int node = 0; node < network.num_nodes(); ++node) {
      const int chan = st.channel_of_node[static_cast<std::size_t>(node)];
      if (chan == Strategy::kNoChannel) continue;  // node stays silent
      // Transmit, then report the observed normalized data rate:
      scheme.report(node, environment.sample(node, chan, t));
    }
  }
  std::cout << "after 50 step-mode rounds the scheme tried "
            << scheme.estimates().total_plays() << " (node, channel) plays\n";
  return 0;
}
