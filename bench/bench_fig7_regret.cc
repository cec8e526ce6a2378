// Reproduces Fig. 7: practical regret (a) and practical β-regret (b) over
// time, Algorithm 2 (CAB index) vs the LLR learning policy, on a small
// random connected network (15 users, 3 channels) whose optimum is computed
// exactly by branch and bound — the paper's methodology verbatim.
//
// Paper claims to reproduce:
//   * Algorithm 2 outperforms LLR on both metrics.
//   * Practical regret stays far above 0 (θ = 0.5 forfeits half of every
//     decision slot's throughput).
//   * β-regret converges to a *negative* value for both policies
//     (β = Theorem-2 ρ = sqrt(M (2r+1)^2) = sqrt(75) for M = 3, r = 2).
//
// The two curves are one Scenario override apart (policy.kind); both
// runners share the seed, hence face the identical network and channels.
#include <iostream>

#include "channel/rates.h"
#include "scenario/runner.h"
#include "sim/export.h"
#include "sim/metrics.h"
#include "sim/optimum.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

const char* kBase = R"(name = fig7-regret
[topology]
kind = geometric
nodes = 15
avg_degree = 4.0
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[run]
slots = 1000
seed = 20140707
series_stride = 50
)";

}  // namespace

int main() {
  using namespace mhca;
  const scenario::Scenario base = scenario::parse_scenario(kBase);

  const scenario::ScenarioRunner cab_runner(base);
  scenario::Scenario llr_scenario = base;
  scenario::apply_override(llr_scenario, "policy.kind=llr");
  const scenario::ScenarioRunner llr_runner(llr_scenario);

  const OptimumInfo opt =
      compute_optimum(cab_runner.extended_graph(), cab_runner.model());
  const double r1_kbps = opt.weight * kRateScaleKbps;
  const double beta = theorem2_rho(base.num_channels, base.solver.r);

  std::cout << "=== Fig. 7: practical regret / beta-regret vs time slot ===\n"
            << "Network: " << cab_runner.network().num_nodes() << " users x "
            << base.num_channels
            << " channels, exact optimum R1 = " << fixed(r1_kbps, 2)
            << " kbps (computed by brute-force BnB, exact="
            << (opt.exact ? "yes" : "no") << ")\n"
            << "theta = 0.5 (Table II timing), beta = rho = " << fixed(beta, 3)
            << "\n\n";

  SimulationResult cab, llr;
  parallel_run(2, [&](int i) {
    if (i == 0)
      cab = cab_runner.run();
    else
      llr = llr_runner.run();
  });

  const auto pr_cab = practical_regret_series(cab, opt.weight);
  const auto pr_llr = practical_regret_series(llr, opt.weight);
  const auto br_cab = beta_regret_series(cab, opt.weight, beta);
  const auto br_llr = beta_regret_series(llr, opt.weight, beta);

  TablePrinter table({"slot", "regret Alg2", "regret LLR", "b-regret Alg2",
                      "b-regret LLR"});
  for (std::size_t i = 0; i < cab.slots.size(); ++i) {
    table.row(cab.slots[i], fixed(pr_cab[i] * kRateScaleKbps, 1),
              fixed(pr_llr[i] * kRateScaleKbps, 1),
              fixed(br_cab[i] * kRateScaleKbps, 1),
              fixed(br_llr[i] * kRateScaleKbps, 1));
  }
  table.print(std::cout);

  const bool alg2_beats_llr = pr_cab.back() <= pr_llr.back();
  const bool beta_negative = br_cab.back() < 0 && br_llr.back() < 0;
  const bool theta_loss = pr_cab.back() > 0.25 * opt.weight;
  std::cout << "\nSummary (kbps):\n";
  TablePrinter sum({"metric", "Alg2 (CAB)", "LLR", "paper-shape check"});
  sum.row("final practical regret", fixed(pr_cab.back() * kRateScaleKbps, 1),
          fixed(pr_llr.back() * kRateScaleKbps, 1),
          alg2_beats_llr ? "Alg2 <= LLR: OK" : "MISMATCH");
  sum.row("final beta-regret", fixed(br_cab.back() * kRateScaleKbps, 1),
          fixed(br_llr.back() * kRateScaleKbps, 1),
          beta_negative ? "both negative: OK" : "MISMATCH");
  sum.row("regret >> 0 (theta loss)",
          fixed(pr_cab.back() / opt.weight, 3), fixed(pr_llr.back() / opt.weight, 3),
          theta_loss ? "OK" : "MISMATCH");
  sum.print(std::cout);

  if (export_series_csv(cab, "fig7_alg2.csv", kRateScaleKbps) &&
      export_series_csv(llr, "fig7_llr.csv", kRateScaleKbps))
    std::cout << "\n(raw series exported to ./fig7_alg2.csv, ./fig7_llr.csv)\n";
  // A failed paper-shape check fails the run (ctest label `paper`).
  return alg2_beats_llr && beta_negative && theta_loss ? 0 : 1;
}
