// Simulation configuration shared by the simulator and the step API.
#pragma once

#include <cstdint>

#include "mwis/distributed_ptas.h"
#include "sim/timing.h"

namespace mhca {

/// Which MWIS oracle performs the strategy decision.
enum class SolverKind {
  kDistributedPtas,  ///< Algorithm 3 (lockstep engine) — the paper's scheme.
  kCentralizedPtas,  ///< Centralized robust PTAS (§IV-B).
  kGreedy,           ///< Global greedy heuristic.
  kExact,            ///< Exact branch-and-bound (small instances / optimum).
};

const char* to_string(SolverKind kind);

struct SimulationConfig {
  std::int64_t slots = 1000;  ///< Time horizon n.
  int update_period = 1;      ///< y: strategy refresh every y slots (§V-C).

  // Strategy-decision oracle.
  SolverKind solver = SolverKind::kDistributedPtas;
  int r = 2;  ///< Local-neighborhood radius (paper simulations: r = 2).
  int D = 4;  ///< Mini-round budget per decision (0 = until all marked).
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  /// Per-solve effort cap (distributed local solves and centralized
  /// oracles alike); see DistributedPtasConfig::bnb_node_cap.
  std::int64_t bnb_node_cap = kDefaultBnbNodeCap;
  /// Threads for per-leader local solves within one decision (0 = one per
  /// hardware thread). Deterministic at any setting. Defaults to 1 here —
  /// simulations usually already fan out across replications
  /// (ReplicationConfig.parallelism), and nesting both oversubscribes;
  /// raise it for single-simulation runs on idle cores.
  int local_solve_parallelism = 1;
  /// Retired (memoized clique covers were removed); must be false. Only the
  /// perfbench harness reads it, copying it into DistributedPtasConfig; it
  /// goes once the harness drives ScenarioRunner.
  bool use_memoized_covers = false;
  double ptas_epsilon = 1.0;  ///< ε for the centralized robust PTAS.

  RoundTiming timing;

  std::uint64_t seed = 1;      ///< Drives ε-greedy randomization only.
  bool count_messages = false; ///< Tally protocol messages (costs BFS).
  int series_stride = 1;       ///< Record every k-th slot in the series.
};

}  // namespace mhca
