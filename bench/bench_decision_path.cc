// Micro-benchmark of one full strategy decision (leader election + local
// MWIS solves over H) on random geometric networks, comparing the seed
// re-derivation reference (tests/reference/seed_ptas.h: per-decision
// max-relaxation floods, per-leader BFS) against the engine
// (DistributedRobustPtas: NeighborhoodCache + incremental SoA election +
// reusable SolveScratch).
//
// Both run the same local-solve algorithm (the enhanced branch-and-bound
// search) with the same per-solve effort cap, so their decisions are
// byte-identical *unconditionally* — node-cap aborts and weight ties
// included; the bench verifies that on every measured decision. The
// speedup column therefore isolates the decision-path infrastructure.
// The engine's per-stage breakdown (setup / election / gather / solve /
// apply / validate / other) shows where it spends its time, and the solver
// columns track search effort. The buckets are *total*: every cell asserts
// that Σ stages covers ≥95% of the engine's ms/decision (small absolute
// tolerance for sub-millisecond cells), and the bench exits nonzero
// otherwise — an untimed hot spot on the decision path (like the O(W²)
// winner validation that once hid 742 ms per decision at 50k vertices)
// can no longer go unaccounted. The reference has no stage clock.
//
// The grid crosses Graph::kAdjacencyMatrixLimit (8192): the large-n cells
// run without a dense adjacency matrix — sharded sparse rows feed the
// solver gather, and the incremental SoA election carries candidate sets
// across mini-rounds — demonstrating that the decision path no longer has
// an 8192-vertex wall. `--smoke` shrinks the grid for CI (one modest
// beyond-the-limit cell instead of the 50k-vertex one).
//
// Emits a human-readable table on stdout and machine-readable JSON (default
// BENCH_decision_path.json, or argv[1]) so the perf trajectory of the
// decision path is tracked from PR 1 on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/neighborhood_cache.h"
#include "mwis/distributed_ptas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference/seed_ptas.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace mhca;
using Clock = std::chrono::steady_clock;

struct Cell {
  int users = 0;
  int r = 0;
  int vertices = 0;
  int decisions = 0;
  double cache_build_ms = 0.0;   ///< One-time NeighborhoodCache cost.
  double seed_ms = 0.0;          ///< Per-decision, seed reference.
  double cached_ms = 0.0;        ///< Per-decision, engine.
  double speedup = 0.0;
  bool identical = true;         ///< Winners + weight match every decision.
  DecisionStageTimes cached_stages;  ///< Per-decision averages.
  double cached_coverage = 0.0;  ///< Best-rep Σ buckets / cached ms_per_decision.
  bool coverage_ok = true;       ///< Coverage passes the ≥95% gate.
  double nodes_per_decision = 0.0;   ///< B&B nodes (identical across paths).
  bool all_solves_exact = true;      ///< No local solve hit the node cap.
  // Cache-build worker sweep (large cells): wall-clock at pinned worker
  // counts and whether every build produced byte-identical balls.
  bool build_swept = false;
  double build_ms_w1 = 0.0;
  double build_ms_w2 = 0.0;
  double build_ms_w4 = 0.0;
  bool build_identical = true;
  // Observability overhead (representative cells): the engine with the
  // telemetry spine disabled (null recorder/registry — the default for
  // every production run) vs enabled (spans + metrics recorded). Reported,
  // not gated: the zero-work contract of the disabled path is a
  // deterministic test (tests/obs_test.cc), not a timing comparison.
  bool obs_measured = false;
  double obs_off_ms = 0.0;
  double obs_on_ms = 0.0;
  double obs_overhead_pct = 0.0;  ///< Off vs the interleaved baseline.
  // Memory accounting for the cached path's NeighborhoodCache: the bytes it
  // actually keeps resident, what the same contents would cost in the
  // all-explicit (pre-tiered) layout, and the resulting reduction ratio.
  const char* eball_tier = "explicit";
  long long cache_resident_bytes = 0;
  long long cache_explicit_bytes = 0;
  double cache_bytes_ratio = 1.0;
  bool cache_bytes_ok = true;  ///< Implicit-tier cells must shrink >= 4x.
  int cache_build_workers = 1;  ///< Effective worker count of the build.
  double peak_rss_mb = 0.0;     ///< Process VmHWM after this cell (monotonic).
};

/// Peak resident set size of this process so far, in MB (Linux VmHWM;
/// 0 where /proc is unavailable). Monotonic over the run, so per-cell
/// values record the high-water mark as the grid walks up in size — the
/// 1M-vertex cell's figure is the number that matters.
double read_peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Byte-identical cache contents: same per-vertex r-ball spans (span
/// equality over the whole CSR implies identical offsets and data) and the
/// same e-ball side for the tier both caches landed on — explicit spans
/// when stored, the per-vertex size array when the tier keeps only sizes.
bool caches_identical(const NeighborhoodCache& a, const NeighborhoodCache& b) {
  if (a.size() != b.size() || a.r() != b.r() ||
      a.eball_tier() != b.eball_tier())
    return false;
  const bool expl = a.eball_tier() == NeighborhoodCache::EballTier::kExplicit;
  for (int v = 0; v < a.size(); ++v) {
    const auto ra = a.r_ball(v), rb = b.r_ball(v);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
    if (expl) {
      const auto ea = a.election_ball(v), eb = b.election_ball(v);
      if (!std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
        return false;
    } else if (a.election_ball_size(v) != b.election_ball_size(v)) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<double>> make_weight_sequence(int n, int decisions,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> ws(static_cast<std::size_t>(decisions));
  for (auto& w : ws) {
    w.resize(static_cast<std::size_t>(n));
    for (auto& x : w) x = rng.uniform(0.05, 1.0);
  }
  return ws;
}

template <typename F>
double time_decisions_ms(F&& decide, int decisions) {
  const auto t0 = Clock::now();
  for (int d = 0; d < decisions; ++d) decide(d);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         static_cast<double>(decisions);
}

/// Best-of-`reps` timing, with the two sides interleaved so scheduler noise
/// and frequency drift hit both sides equally. Minimum-of-repetitions is
/// the standard variance killer for micro-benchmarks on shared machines.
template <typename A, typename B>
std::pair<double, double> time_paths_ms(A&& seed_decide, B&& cached_decide,
                                        int decisions, int reps) {
  double seed_best = 0.0, cached_best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double s = time_decisions_ms(seed_decide, decisions);
    const double c = time_decisions_ms(cached_decide, decisions);
    if (rep == 0 || s < seed_best) seed_best = s;
    if (rep == 0 || c < cached_best) cached_best = c;
  }
  return {seed_best, cached_best};
}

DecisionStageTimes per_decision(const DecisionStageTimes& total,
                                int decisions) {
  const double d = static_cast<double>(decisions);
  return {total.setup_ms / d,   total.election_ms / d, total.gather_ms / d,
          total.solve_ms / d,   total.apply_ms / d,    total.validate_ms / d,
          total.other_ms / d};
}

Cell run_cell(int users, int r, int channels, int decisions) {
  Cell cell;
  cell.users = users;
  cell.r = r;
  cell.decisions = decisions;

  Rng topo_rng(static_cast<std::uint64_t>(users) * 131 +
               static_cast<std::uint64_t>(r) * 17 + 5);
  // Connectivity is irrelevant to the decision path; don't resample for it.
  ConflictGraph cg =
      random_geometric_avg_degree(users, 6.0, topo_rng,
                                  /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, channels);
  const Graph& h = ecg.graph();
  cell.vertices = h.size();

  const auto weights = make_weight_sequence(
      h.size(), decisions, static_cast<std::uint64_t>(users) * 7 + 1);

  // Stage collection stays on: four steady_clock reads per mini-round, far
  // below measurement noise.
  DistributedPtasConfig cached_cfg;
  cached_cfg.r = r;
  cached_cfg.collect_stage_times = true;
  // Pin solves to one thread (the reference is single-threaded): the
  // speedup column isolates the caching infrastructure, not core count
  // (the parallel fan-out is exercised by
  // decision_parallel_determinism_test instead).
  cached_cfg.local_solve_parallelism = 1;

  reference::SeedPtas seed_engine(h, cached_cfg);
  const auto tc0 = Clock::now();
  DistributedRobustPtas cached_engine(h, cached_cfg);
  cell.cache_build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - tc0).count();

  // Memory accounting: what the cache keeps resident at the tier the
  // per-graph selection rule picked, vs the all-explicit layout cost of the
  // same contents. Implicit-tier cells gate the reduction at >= 4x (the
  // explicit tier makes no footprint claim — it IS the explicit layout).
  {
    const NeighborhoodCache& cache = cached_engine.neighborhood_cache();
    const bool implicit =
        cache.eball_tier() == NeighborhoodCache::EballTier::kImplicit;
    cell.eball_tier = implicit ? "implicit" : "explicit";
    cell.cache_resident_bytes = cache.resident_bytes();
    cell.cache_explicit_bytes = cache.explicit_layout_bytes();
    cell.cache_bytes_ratio =
        cell.cache_resident_bytes > 0
            ? static_cast<double>(cell.cache_explicit_bytes) /
                  static_cast<double>(cell.cache_resident_bytes)
            : 1.0;
    cell.cache_bytes_ok = !implicit || cell.cache_bytes_ratio >= 4.0;
    cell.cache_build_workers = NeighborhoodCache::build_workers(0, h.size());
  }

  // Correctness first: identical winners and weight on every decision, and
  // solver-effort accounting (nodes are identical across paths — same
  // search — so one side's count is the cell's count).
  std::int64_t nodes = 0;
  for (int d = 0; d < decisions; ++d) {
    const auto a = seed_engine.run(weights[static_cast<std::size_t>(d)]);
    const auto b = cached_engine.run(weights[static_cast<std::size_t>(d)]);
    if (a.winners != b.winners || a.weight != b.weight)
      cell.identical = false;
    nodes += b.solver_nodes_explored;
    cell.all_solves_exact = cell.all_solves_exact && b.all_local_solves_exact;
  }
  cell.nodes_per_decision =
      static_cast<double>(nodes) / static_cast<double>(decisions);

  // Warmed-up best-of-3 timing over the same weight sequence. The huge
  // cells (250k / 1M vertices) run a single rep — at tens of seconds per
  // seed decision, best-of-N buys noise reduction nobody needs and the
  // headline there is the memory column, not microsecond stability.
  const bool huge = users >= 62500;
  const auto [seed_ms, cached_ms] = time_paths_ms(
      [&](int d) { seed_engine.run(weights[static_cast<std::size_t>(d)]); },
      [&](int d) { cached_engine.run(weights[static_cast<std::size_t>(d)]); },
      decisions, /*reps=*/huge ? 1 : 3);
  cell.seed_ms = seed_ms;
  cell.cached_ms = cached_ms;
  cell.speedup = cell.cached_ms > 0.0 ? cell.seed_ms / cell.cached_ms : 0.0;

  // Stage breakdown: best-of-N instrumented passes of the engine, per-stage
  // minima — the same variance killer the headline timing uses, applied to
  // the breakdown so single-pass scheduler noise doesn't masquerade as a
  // stage regression (stages are an order of magnitude shorter than whole
  // decisions, so they need the extra repetitions; the sub-millisecond
  // small/medium cells get the most).
  const auto min_stages = [](const DecisionStageTimes& a,
                             const DecisionStageTimes& b) {
    return DecisionStageTimes{std::min(a.setup_ms, b.setup_ms),
                              std::min(a.election_ms, b.election_ms),
                              std::min(a.gather_ms, b.gather_ms),
                              std::min(a.solve_ms, b.solve_ms),
                              std::min(a.apply_ms, b.apply_ms),
                              std::min(a.validate_ms, b.validate_ms),
                              std::min(a.other_ms, b.other_ms)};
  };
  // The engine runs its decisions in a streak, exactly like the headline
  // timing loop above.
  const int stage_reps = huge ? 1 : (users <= 800 ? 7 : 3);
  // Coverage pairs each rep's Σ buckets with an external wall clock around
  // that same rep's decision streak: the question "did run() spend time no
  // bucket saw?" only makes sense within one pass. Comparing against the
  // earlier headline loop instead re-measures warm-up drift, not accounting.
  double cached_wall = 0.0;
  for (int rep = 0; rep < stage_reps; ++rep) {
    cached_engine.reset_stage_times();
    const auto tg0 = Clock::now();
    for (int d = 0; d < decisions; ++d)
      cached_engine.run(weights[static_cast<std::size_t>(d)]);
    const double c_wall =
        std::chrono::duration<double, std::milli>(Clock::now() - tg0).count() /
        static_cast<double>(decisions);
    const DecisionStageTimes c =
        per_decision(cached_engine.stage_times(), decisions);
    cell.cached_stages = rep == 0 ? c : min_stages(cell.cached_stages, c);
    if (rep == 0 || c_wall < cached_wall) {
      cached_wall = c_wall;
      cell.cached_coverage = c_wall > 0.0 ? c.total_ms() / c_wall : 1.0;
    }
  }

  // Coverage gate: the stage buckets must account for (nearly) the whole
  // per-decision wall clock of their own pass. Sub-millisecond cells get a
  // small absolute tolerance on top of the 95% ratio (the loop's weight
  // indexing and the Clock reads themselves are outside the buckets); a
  // real accounting gap — the O(W²) validation that cost hundreds of ms
  // per decision off the books — dwarfs both.
  constexpr double kCoverageRatio = 0.95;
  constexpr double kCoverageSlackMs = 0.05;
  cell.coverage_ok =
      cell.cached_coverage >= kCoverageRatio ||
      (1.0 - cell.cached_coverage) * cached_wall <= kCoverageSlackMs;

  // Observability overhead on the paper-scale cells (|H| = 3200 and 50000).
  // The instrumentation is compiled into run() unconditionally — there is
  // no obs-free build in this binary — so the "off" pass is compared with
  // the same path (globals null) measured back-to-back, and the difference
  // is reported as obs_overhead_pct. Both are the same code, so the column
  // is timer noise around zero (±5% seen on shared hosts); a wall-clock
  // gate on it failed on noise alone. That the disabled sites do no work
  // is pinned deterministically instead (tests/obs_test.cc: zero events,
  // registry writes and allocations). "obs on" records the full span set:
  // tracing a decision costs what it costs.
  if ((users == 800 && r == 2) || users == 12500) {
    cell.obs_measured = true;
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    const auto cached_run = [&](int d) {
      cached_engine.run(weights[static_cast<std::size_t>(d)]);
    };
    // Warm up both paths untimed: the first pass after the preceding bench
    // phases sees cold branch predictors and peak turbo, and either would
    // bias whichever side runs first.
    time_decisions_ms(cached_run, decisions);
    obs::set_trace(&recorder);
    obs::set_metrics(&registry);
    time_decisions_ms(cached_run, decisions);
    obs::set_trace(nullptr);
    obs::set_metrics(nullptr);
    recorder.clear();
    double baseline_ms = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      // Alternate which pass runs first: base and off are the same code, so
      // pinning either to a rep's first (fastest-clock) slot would bias the
      // comparison even after warmup.
      const double first = time_decisions_ms(cached_run, decisions);
      const double second = time_decisions_ms(cached_run, decisions);
      const double base = (rep % 2 == 0) ? first : second;
      const double off = (rep % 2 == 0) ? second : first;
      obs::set_trace(&recorder);
      obs::set_metrics(&registry);
      const double on = time_decisions_ms(cached_run, decisions);
      obs::set_trace(nullptr);
      obs::set_metrics(nullptr);
      recorder.clear();
      if (rep == 0 || base < baseline_ms) baseline_ms = base;
      if (rep == 0 || off < cell.obs_off_ms) cell.obs_off_ms = off;
      if (rep == 0 || on < cell.obs_on_ms) cell.obs_on_ms = on;
    }
    cell.obs_overhead_pct =
        baseline_ms > 0.0 ? 100.0 * (cell.obs_off_ms / baseline_ms - 1.0)
                          : 0.0;
  }

  // Cache-build worker sweep on the cells where the build matters: pinned
  // worker counts must produce byte-identical balls (the count-then-fill
  // layout's determinism contract); the timings show how the one-time
  // build scales with cores (on a single-core CI box they simply tie).
  if (users >= 3200 && !huge) {
    cell.build_swept = true;
    const int counts[] = {1, 2, 4};
    double* build_ms[] = {&cell.build_ms_w1, &cell.build_ms_w2,
                          &cell.build_ms_w4};
    NeighborhoodCache prev;  // only two caches alive at a time
    for (std::size_t i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      NeighborhoodCache cur(h, r, counts[i]);
      *build_ms[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (i > 0 && !caches_identical(prev, cur)) cell.build_identical = false;
      prev = std::move(cur);
    }
  }
  cell.peak_rss_mb = read_peak_rss_mb();
  return cell;
}

std::string stages_json(const char* name, const DecisionStageTimes& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "     \"%s\": {\"setup\": %.4f, \"election\": %.4f, "
                "\"gather\": %.4f, \"solve\": %.4f, \"apply\": %.4f, "
                "\"validate\": %.4f, \"other\": %.4f}",
                name, s.setup_ms, s.election_ms, s.gather_ms, s.solve_ms,
                s.apply_ms, s.validate_ms, s.other_ms);
  return buf;
}

std::string json_of(const std::vector<Cell>& cells, int channels) {
  std::string out;
  char buf[1024];
  out += "{\n  \"bench\": \"decision_path\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"channels\": %d, \"avg_degree\": 6.0, "
                "\"weights\": \"uniform[0.05,1)\", "
                "\"bnb_node_cap\": %lld, \"shared_solver\": true, "
                "\"local_solve_parallelism\": 1, "
                "\"hardware_threads\": %u},\n",
                channels,
                static_cast<long long>(DistributedPtasConfig{}.bnb_node_cap),
                std::thread::hardware_concurrency());
  out += buf;
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"users\": %d, \"r\": %d, \"vertices\": %d, "
        "\"decisions\": %d, \"cache_build_ms\": %.4f, "
        "\"seed_ms_per_decision\": %.4f, \"cached_ms_per_decision\": %.4f, "
        "\"speedup\": %.2f, \"identical_results\": %s, "
        "\"solver_nodes_per_decision\": %.0f, \"all_solves_exact\": %s,\n"
        "     \"stage_coverage_cached\": %.4f, \"stage_coverage_ok\": %s,\n",
        c.users, c.r, c.vertices, c.decisions, c.cache_build_ms, c.seed_ms,
        c.cached_ms, c.speedup, c.identical ? "true" : "false",
        c.nodes_per_decision, c.all_solves_exact ? "true" : "false",
        c.cached_coverage, c.coverage_ok ? "true" : "false");
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "     \"eball_tier\": \"%s\", \"cache_resident_bytes\": %lld, "
        "\"cache_explicit_bytes\": %lld, \"cache_bytes_ratio\": %.2f, "
        "\"cache_bytes_ok\": %s, \"cache_build_workers\": %d, "
        "\"peak_rss_mb\": %.1f,\n",
        c.eball_tier, c.cache_resident_bytes, c.cache_explicit_bytes,
        c.cache_bytes_ratio, c.cache_bytes_ok ? "true" : "false",
        c.cache_build_workers, c.peak_rss_mb);
    out += buf;
    if (c.build_swept) {
      std::snprintf(buf, sizeof(buf),
                    "     \"cache_build_workers_ms\": {\"w1\": %.4f, "
                    "\"w2\": %.4f, \"w4\": %.4f, \"identical_balls\": %s},\n",
                    c.build_ms_w1, c.build_ms_w2, c.build_ms_w4,
                    c.build_identical ? "true" : "false");
      out += buf;
    }
    if (c.obs_measured) {
      std::snprintf(buf, sizeof(buf),
                    "     \"obs_off_ms_per_decision\": %.4f, "
                    "\"obs_on_ms_per_decision\": %.4f, "
                    "\"obs_overhead_pct\": %.2f,\n",
                    c.obs_off_ms, c.obs_on_ms, c.obs_overhead_pct);
      out += buf;
    }
    out += stages_json("cached_stages_ms", c.cached_stages) +
           (i + 1 < cells.size() ? "},\n" : "}\n");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_decision_path.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke")
      smoke = true;
    else
      json_path = a;
  }
  const int kChannels = 4;

  std::cout << "=== Decision path: seed re-derivation reference vs engine "
               "(NeighborhoodCache + SolveScratch) ===\n"
            << "    (identical enhanced local solver on both sides; "
               "speedup isolates the caching)\n\n";

  struct GridCell {
    int users;
    int r;
    int decisions;
  };
  // Decision counts trade runtime for timing stability: the per-stage
  // numbers of a cell come from (reps x decisions) instrumented runs, and
  // engine stages are fractions of a millisecond — too short a pass
  // gets dominated by scheduler ticks.
  std::vector<GridCell> grid;
  for (int users : {50, 200, 800})
    for (int r : {1, 2, 3})
      grid.push_back({users, r, users >= 800 ? 16 : (users >= 200 ? 12 : 20)});
  if (smoke) {
    // CI: one cell past the dense-matrix limit proves the sharded path.
    grid.push_back({2300, 2, 3});
  } else {
    // The former 8192-vertex wall and well past it (50k, then 100k H
    // vertices — the 100k cell is pure sparse-row regime and exists
    // because the linear winner validation made it affordable).
    grid.push_back({3200, 2, 4});
    grid.push_back({3200, 3, 4});
    grid.push_back({12500, 2, 3});
    grid.push_back({25000, 2, 2});
    // The road to 1M: 250k- and 1M-vertex cells exist because the implicit
    // e-ball tier made their caches affordable (sizes only, 4 B/vertex,
    // membership re-enumerated by the election's early-exit BFS). One
    // decision each — the point is footprint and feasibility, not variance.
    grid.push_back({62500, 2, 1});
    grid.push_back({250000, 2, 1});
  }

  std::vector<Cell> cells;
  TablePrinter table({"users", "r", "|H|", "decisions", "cache build ms",
                      "seed ms", "cached ms", "speedup", "identical",
                      "coverage", "nodes/decision", "exact"});
  for (const GridCell& gc : grid) {
    const Cell c = run_cell(gc.users, gc.r, kChannels, gc.decisions);
    cells.push_back(c);
    table.row(std::to_string(c.users), std::to_string(c.r),
              std::to_string(c.vertices), std::to_string(c.decisions),
              fixed(c.cache_build_ms, 2), fixed(c.seed_ms, 3),
              fixed(c.cached_ms, 3), fixed(c.speedup, 2) + "x",
              c.identical ? "yes" : "NO",
              fixed(100.0 * c.cached_coverage, 1) + "%" +
                  (c.coverage_ok ? "" : " LOW"),
              fixed(c.nodes_per_decision, 0),
              c.all_solves_exact ? "yes" : "capped");
  }
  table.print(std::cout);

  std::cout << "\n--- cache memory (resident vs all-explicit layout; "
               "implicit-tier cells gate the reduction at >= 4x) ---\n";
  TablePrinter mem({"users", "r", "|H|", "tier", "resident MB",
                    "explicit MB", "ratio", "workers", "peak RSS MB"});
  const auto mb = [](long long bytes) {
    return fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
  };
  for (const Cell& c : cells)
    mem.row(std::to_string(c.users), std::to_string(c.r),
            std::to_string(c.vertices), c.eball_tier,
            mb(c.cache_resident_bytes), mb(c.cache_explicit_bytes),
            fixed(c.cache_bytes_ratio, 2) + "x" +
                (c.cache_bytes_ok ? "" : " LOW"),
            std::to_string(c.cache_build_workers), fixed(c.peak_rss_mb, 1));
  mem.print(std::cout);

  std::cout << "\n--- per-stage breakdown, ms/decision (setup / election / "
               "gather / solve / apply / validate / other) ---\n";
  TablePrinter stages({"users", "r", "engine stages"});
  char sbuf[192];
  const auto stage_str = [&](const DecisionStageTimes& s) {
    std::snprintf(sbuf, sizeof(sbuf),
                  "%.3f / %.3f / %.3f / %.3f / %.3f / %.3f / %.3f",
                  s.setup_ms, s.election_ms, s.gather_ms, s.solve_ms,
                  s.apply_ms, s.validate_ms, s.other_ms);
    return std::string(sbuf);
  };
  for (const Cell& c : cells)
    stages.row(std::to_string(c.users), std::to_string(c.r),
               stage_str(c.cached_stages));
  stages.print(std::cout);

  bool any_swept = false;
  for (const Cell& c : cells) any_swept = any_swept || c.build_swept;
  if (any_swept) {
    std::cout << "\n--- cache build worker sweep (count-then-fill; "
                 "byte-identical contract) ---\n";
    TablePrinter sweep({"users", "r", "w=1 ms", "w=2 ms", "w=4 ms",
                        "identical balls"});
    for (const Cell& c : cells) {
      if (!c.build_swept) continue;
      sweep.row(std::to_string(c.users), std::to_string(c.r),
                fixed(c.build_ms_w1, 2), fixed(c.build_ms_w2, 2),
                fixed(c.build_ms_w4, 2), c.build_identical ? "yes" : "NO");
    }
    sweep.print(std::cout);
  }

  bool any_obs = false;
  for (const Cell& c : cells) any_obs = any_obs || c.obs_measured;
  if (any_obs) {
    std::cout << "\n--- observability overhead (telemetry spine disabled vs "
                 "recording; engine; reported, not gated) ---\n";
    TablePrinter obs_table({"users", "r", "obs off ms", "obs on ms",
                            "off overhead"});
    for (const Cell& c : cells) {
      if (!c.obs_measured) continue;
      obs_table.row(std::to_string(c.users), std::to_string(c.r),
                    fixed(c.obs_off_ms, 3), fixed(c.obs_on_ms, 3),
                    fixed(c.obs_overhead_pct, 1) + "%");
    }
    obs_table.print(std::cout);
  }

  bool all_identical = true, all_covered = true, builds_identical = true,
       bytes_ok = true;
  for (const Cell& c : cells) {
    all_identical = all_identical && c.identical;
    all_covered = all_covered && c.coverage_ok;
    builds_identical = builds_identical && c.build_identical;
    bytes_ok = bytes_ok && c.cache_bytes_ok;
  }
  std::cout << "\nresults identical across paths: "
            << (all_identical ? "yes" : "NO — BUG") << "\n"
            << "stage coverage >= 95% in every cell: "
            << (all_covered ? "yes" : "NO — untimed decision cost") << "\n"
            << "implicit-tier cache footprint >= 4x below explicit: "
            << (bytes_ok ? "yes" : "NO — layout regression") << "\n";
  if (any_swept)
    std::cout << "cache builds byte-identical at all worker counts: "
              << (builds_identical ? "yes" : "NO — BUG") << "\n";

  const std::string json = json_of(cells, kChannels);
  std::ofstream out(json_path);
  out << json;
  out.flush();
  if (!out) {
    std::cerr << "error: failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return all_identical && all_covered && builds_identical && bytes_ok ? 0
                                                                       : 1;
}
