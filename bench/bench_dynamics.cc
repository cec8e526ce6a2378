// Benchmark of dynamic-topology maintenance: incremental in-place patching
// (Graph::apply_delta + NeighborhoodCache::apply_delta scoped invalidation
// via DistributedRobustPtas::on_graph_delta) against the full per-slot
// rebuild (graphs reconstructed from scratch, fresh engine = fresh cache)
// across churn rates and network sizes.
//
// Both sides replay the *same* delta trajectory (same model, same seed) and
// decide with the same weights every slot; the bench verifies winners and
// weights are byte-identical on every decision — the speedup column
// isolates maintenance cost, not behavior. Mild churn touches a few balls
// out of thousands, so scoped invalidation should win big at low rates and
// converge toward the rebuild cost as the blast radius approaches the
// whole graph.
//
// Emits a table on stdout and machine-readable JSON (default
// BENCH_dynamics.json, or argv[1]); `--smoke` shrinks the grid for CI.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace mhca;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Cell {
  std::string model;          ///< "churn@p" or "waypoint@speed".
  int users = 0;
  int vertices = 0;
  int slots = 0;
  int changed_slots = 0;
  double avg_touched = 0.0;      ///< H vertices touched per changed slot.
  double avg_invalidated = 0.0;  ///< Balls recomputed per changed slot.
  double cache_build_ms = 0.0;   ///< One-time full cache build (= the cost
                                 ///< the full path pays per changed slot).
  double inc_ms = 0.0;           ///< Maintenance ms per changed slot, incr.
  double full_ms = 0.0;          ///< Maintenance ms per changed slot, full.
  double speedup = 0.0;
  bool identical = true;
};

std::unique_ptr<dynamics::DynamicsModel> build_model(
    const std::string& kind, const scenario::ParamMap& params,
    const ConflictGraph& base, std::int64_t slots) {
  Rng rng(0xD1CE);
  const dynamics::DynamicsBuildContext ctx{&base, slots};
  return dynamics::dynamics_registry().create(kind, params, ctx, rng);
}

Cell run_cell(const std::string& kind, const scenario::ParamMap& params,
              const std::string& label, int users, int channels, int slots) {
  Cell cell;
  cell.model = label;
  cell.users = users;
  cell.slots = slots;

  Rng topo_rng(static_cast<std::uint64_t>(users) * 977 + 13);
  ConflictGraph base = random_geometric_avg_degree(
      users, 6.0, topo_rng, /*force_connected=*/false);

  dynamics::DynamicNetwork inc(base, channels,
                               build_model(kind, params, base, slots),
                               /*incremental=*/true);
  dynamics::DynamicNetwork full(base, channels,
                                build_model(kind, params, base, slots),
                                /*incremental=*/false);
  cell.vertices = inc.ecg().num_vertices();

  DistributedPtasConfig cfg;
  cfg.r = 2;
  cfg.local_solve_parallelism = 1;
  auto inc_engine =
      std::make_unique<DistributedRobustPtas>(inc.ecg().graph(), cfg);
  const auto tc0 = Clock::now();
  auto full_engine =
      std::make_unique<DistributedRobustPtas>(full.ecg().graph(), cfg);
  cell.cache_build_ms = ms_since(tc0);

  Rng weight_rng(static_cast<std::uint64_t>(users) * 31 + 7);
  std::vector<double> weights(static_cast<std::size_t>(cell.vertices));

  double inc_ms = 0.0, full_ms = 0.0;
  std::int64_t touched = 0, invalidated = 0;
  for (int t = 2; t <= slots; ++t) {
    const auto ti = Clock::now();
    const dynamics::SlotChange& ca = inc.advance(t);
    if (ca.changed) inc_engine->on_graph_delta(ca.touched_vertices);
    const double ims = ms_since(ti);

    const auto tf = Clock::now();
    const dynamics::SlotChange& cb = full.advance(t);
    if (cb.changed)
      full_engine =
          std::make_unique<DistributedRobustPtas>(full.ecg().graph(), cfg);
    const double fms = ms_since(tf);

    if (ca.changed != cb.changed) cell.identical = false;
    if (!ca.changed) continue;
    ++cell.changed_slots;
    inc_ms += ims;
    full_ms += fms;
    touched += static_cast<std::int64_t>(ca.touched_vertices.size());
    invalidated += inc_engine->neighborhood_cache().last_invalidated();

    // Decide on both sides with the same weights; byte-identical or bust.
    for (auto& w : weights) w = weight_rng.uniform(0.05, 1.0);
    const DistributedPtasResult a =
        inc_engine->run(weights, inc.active_vertex_mask());
    const DistributedPtasResult b =
        full_engine->run(weights, full.active_vertex_mask());
    if (a.winners != b.winners || a.weight != b.weight)
      cell.identical = false;
  }
  if (cell.changed_slots > 0) {
    const double n = static_cast<double>(cell.changed_slots);
    cell.inc_ms = inc_ms / n;
    cell.full_ms = full_ms / n;
    cell.avg_touched = static_cast<double>(touched) / n;
    cell.avg_invalidated = static_cast<double>(invalidated) / n;
    cell.speedup = cell.inc_ms > 0.0 ? cell.full_ms / cell.inc_ms : 0.0;
  }
  return cell;
}

std::string json_of(const std::vector<Cell>& cells, int channels) {
  std::string out;
  char buf[768];
  out += "{\n  \"bench\": \"dynamics\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"channels\": %d, \"avg_degree\": 6.0, "
                "\"r\": 2, \"weights\": \"uniform[0.05,1)\", "
                "\"full_mode\": \"rebuild G+H from scratch, fresh engine "
                "(fresh NeighborhoodCache) per changed slot\"},\n",
                channels);
  out += buf;
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"model\": \"%s\", \"users\": %d, \"vertices\": %d, "
        "\"slots\": %d, \"changed_slots\": %d, \"avg_touched_vertices\": "
        "%.1f, \"avg_invalidated_balls\": %.1f, \"cache_build_ms\": %.3f, "
        "\"incremental_ms_per_changed_slot\": %.3f, "
        "\"full_rebuild_ms_per_changed_slot\": %.3f, \"speedup\": %.2f, "
        "\"identical_decisions\": %s}%s\n",
        c.model.c_str(), c.users, c.vertices, c.slots, c.changed_slots,
        c.avg_touched, c.avg_invalidated, c.cache_build_ms, c.inc_ms,
        c.full_ms, c.speedup, c.identical ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_dynamics.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke")
      smoke = true;
    else
      json_path = a;
  }
  const int kChannels = 4;

  std::cout << "=== Dynamic topology maintenance: incremental (apply_delta "
               "+ scoped cache invalidation) vs full per-slot rebuild ===\n\n";

  struct Spec {
    const char* kind;
    const char* label;
    std::vector<std::pair<const char*, const char*>> params;
  };
  std::vector<Spec> specs{
      {"churn", "churn p=0.0005",
       {{"leave_prob", "0.0005"}, {"join_prob", "0.3"}}},
      {"churn", "churn p=0.002", {{"leave_prob", "0.002"}, {"join_prob", "0.3"}}},
      {"churn", "churn p=0.01", {{"leave_prob", "0.01"}, {"join_prob", "0.3"}}},
      {"churn", "churn p=0.05", {{"leave_prob", "0.05"}, {"join_prob", "0.3"}}},
      // Slow mobility: the spatial-grid edge re-derivation (O(n·k)/slot)
      // leaves a small blast radius as the dominant per-slot cost, so
      // scoped invalidation beats the rebuild. Fast mobility (below)
      // touches most balls anyway — the honest parity case.
      {"waypoint", "waypoint v=0.005", {{"speed", "0.005"}}},
      {"waypoint", "waypoint v=0.05", {{"speed", "0.05"}}},
  };
  std::vector<int> sizes{120, 320, 800};
  int slots = 150;
  if (smoke) {
    specs.resize(2);
    sizes = {60};
    slots = 40;
  }

  std::vector<Cell> cells;
  TablePrinter table({"model", "users", "|H|", "changed slots",
                      "touched/slot", "balls redone", "incr ms", "full ms",
                      "speedup", "identical"});
  const auto add_cell = [&](const Spec& spec, int users) {
    scenario::ParamMap p;
    for (const auto& [k, v] : spec.params) p.set(k, v);
    const Cell c = run_cell(spec.kind, p, spec.label, users, kChannels, slots);
    cells.push_back(c);
    table.row(c.model, std::to_string(c.users), std::to_string(c.vertices),
              std::to_string(c.changed_slots), fixed(c.avg_touched, 1),
              fixed(c.avg_invalidated, 1), fixed(c.inc_ms, 3),
              fixed(c.full_ms, 3), fixed(c.speedup, 1) + "x",
              c.identical ? "yes" : "NO");
  };
  for (int users : sizes)
    for (const Spec& spec : specs) add_cell(spec, users);
  // One cell past the 8,192-vertex tier switch (8,400 vertices), so the
  // implicit tier's delta — size-only e-ball counts — is tracked here too.
  if (!smoke) add_cell(specs[1], 2100);  // churn p=0.002
  table.print(std::cout);

  bool all_identical = true, low_churn_wins = true;
  const int largest = sizes.back();
  for (const Cell& c : cells) {
    all_identical = all_identical && c.identical;
    // The headline claim: at the lowest churn rate, incremental clearly
    // beats the rebuild. Judged at the largest network only — the win
    // grows with size, and the small cells see a handful of changed slots
    // (single-digit sample counts swing the per-slot average).
    if (c.users == largest &&
        c.model.find("0.0005") != std::string::npos && c.changed_slots > 0)
      low_churn_wins = low_churn_wins && c.speedup > 1.5;
  }
  std::cout << "\ndecisions identical across maintenance modes: "
            << (all_identical ? "yes" : "NO — BUG") << "\n";

  const std::string json = json_of(cells, kChannels);
  std::ofstream out(json_path);
  out << json;
  out.flush();
  if (!out) {
    std::cerr << "error: failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  if (!all_identical) return 1;
  if (!smoke && !low_churn_wins) {
    std::cerr << "warning: incremental maintenance did not clearly beat the "
                 "full rebuild at the lowest churn rate\n";
    return 1;
  }
  return 0;
}
