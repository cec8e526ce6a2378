// Reproduces Fig. 8 (a)-(d): estimated vs actual average effective
// throughput under different weight-update periods y = 1, 5, 10, 20, on a
// large random network (100 users, 10 channels), Algorithm 2 (CAB) vs LLR.
//
// Paper claims to reproduce:
//   * Actual effective throughput approaches the ideal as y grows
//     (fractions 1/2, 9/10, 19/20, 39/40), with the big jump from y=1 to 5.
//   * CAB's estimated throughput tracks its actual throughput closely;
//     LLR's estimate stays heavily inflated.
//   * CAB's actual throughput >= LLR's.
//   * Unfrequent update barely hurts estimation accuracy.
//
// The 2x4 grid (policy x update period) is Scenario overrides on one base;
// a shared seed keeps the network and channels identical across all cells.
#include <iostream>

#include "channel/rates.h"
#include "scenario/runner.h"
#include "sim/timing.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

const char* kBase = R"(name = fig8-periodic
[topology]
kind = geometric
nodes = 100
avg_degree = 6.0
[channel]
kind = gaussian
channels = 10
[policy]
kind = cab
[solver]
node_cap = 20000
[run]
seed = 8881
)";

}  // namespace

int main() {
  using namespace mhca;
  const int kPeriods = 1000;  // per case: 1000 weight updates (paper setup)
  const scenario::Scenario base = scenario::parse_scenario(kBase);

  std::cout << "=== Fig. 8: estimated vs actual avg effective throughput ===\n"
            << "Network: " << base.topology.params.get_int("nodes", 0)
            << " users x " << base.num_channels
            << " channels; each case runs 1000 weight updates.\n"
            << "All values kbps.\n";

  auto run = [&](const std::string& policy, int y) {
    const std::int64_t slots = static_cast<std::int64_t>(y) * kPeriods;
    scenario::Scenario s = base;
    scenario::apply_override(s, "policy.kind=" + policy);
    scenario::apply_override(s, "run.update_period=" + std::to_string(y));
    scenario::apply_override(s, "run.slots=" + std::to_string(slots));
    scenario::apply_override(s,
                             "run.series_stride=" + std::to_string(slots / 10));
    return scenario::ScenarioRunner(s).run();
  };

  // All (policy, y) cells are independent (stateless channel sampling, one
  // runner per job) — run them on all cores, then print in order.
  const std::vector<int> ys{1, 5, 10, 20};
  std::vector<SimulationResult> cab_results(ys.size());
  std::vector<SimulationResult> llr_results(ys.size());
  parallel_run(static_cast<int>(ys.size()) * 2, [&](int i) {
    const auto yi = static_cast<std::size_t>(i / 2);
    if (i % 2 == 0)
      cab_results[yi] = run("cab", ys[yi]);
    else
      llr_results[yi] = run("llr", ys[yi]);
  });

  RoundTiming timing;
  bool all_ok = true;
  for (std::size_t yi = 0; yi < ys.size(); ++yi) {
    const int y = ys[yi];
    const SimulationResult& cab = cab_results[yi];
    const SimulationResult& llr = llr_results[yi];
    std::cout << "\n--- " << y << " time slot(s) per period ("
              << cab.total_slots << " slots, ideal fraction "
              << fixed(timing.periodic_fraction(y), 3) << ") ---\n";
    TablePrinter table({"slot", "Alg2 est", "Alg2 actual", "LLR est",
                        "LLR actual"});
    for (std::size_t i = 0; i < cab.slots.size(); ++i) {
      table.row(cab.slots[i],
                fixed(cab.cumavg_estimated[i] * kRateScaleKbps, 0),
                fixed(cab.cumavg_effective[i] * kRateScaleKbps, 0),
                fixed(llr.cumavg_estimated[i] * kRateScaleKbps, 0),
                fixed(llr.cumavg_effective[i] * kRateScaleKbps, 0));
    }
    table.print(std::cout);

    const double cab_gap = std::abs(cab.cumavg_estimated.back() -
                                    cab.cumavg_effective.back()) /
                           cab.cumavg_effective.back();
    const double llr_gap = std::abs(llr.cumavg_estimated.back() -
                                    llr.cumavg_effective.back()) /
                           llr.cumavg_effective.back();
    const bool more_accurate = cab_gap < llr_gap;
    const bool not_worse = cab.cumavg_effective.back() >=
                           0.98 * llr.cumavg_effective.back();
    all_ok = all_ok && more_accurate && not_worse;
    std::cout << "estimate/actual relative gap: Alg2 " << fixed(cab_gap, 3)
              << "  LLR " << fixed(llr_gap, 3)
              << (more_accurate ? "  (Alg2 more accurate: OK)"
                                : "  (MISMATCH)")
              << "\nactual throughput: Alg2 "
              << fixed(cab.cumavg_effective.back() * kRateScaleKbps, 0)
              << " vs LLR "
              << fixed(llr.cumavg_effective.back() * kRateScaleKbps, 0)
              << (not_worse ? "  (Alg2 >= LLR: OK)" : "  (MISMATCH)")
              << "\nrealized fraction of observed: "
              << fixed(cab.total_effective / cab.total_observed, 3)
              << " (ideal " << fixed(timing.periodic_fraction(y), 3) << ")\n";
  }
  // A failed paper-shape check fails the run (ctest label `paper`).
  return all_ok ? 0 : 1;
}
