// Test-only reference: god's-eye convergence oracle for the view-synchronous
// runtime (tests and benchmarks only — nothing here is information an agent
// could act on). Code under src/ must never include it.
//
// The acceptance contract of the membership layer is conditional: the
// message-level runtime must take exactly the lockstep engine's decisions
// *whenever views have converged*, under any fault schedule. This header
// makes "converged" precise and checkable:
//
//   1. every active agent's member table equals the ground-truth
//      (2r+1)-hop ball around it in the current wire,
//   2. every tracked member's adjacency and sufficient statistics equal
//      that member's own live state,
//   3. no agent holds a suspect,
//   4. all active agents of each wire component share one view,
//   5. the channel has no delayed deliveries in flight.
//
// When all five hold, each agent's local picture is exactly the slice of
// global state the lockstep engine reads — so `lockstep_decision` (the
// engine run over weights gathered from the agents' own statistics) must
// predict the runtime's next strategy, winner for winner.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "net/runtime.h"

namespace mhca::reference {

struct ConvergenceReport {
  bool members_match = true;    ///< Tables == ground-truth (2r+1)-balls.
  bool adjacency_match = true;  ///< Believed neighbor lists == wire truth.
  bool stats_match = true;      ///< Stored (µ̃, m) == each member's own.
  bool no_suspects = true;
  /// One ViewId per connected component of the wire (islands a churn split
  /// created cannot exchange messages, so their epochs may diverge).
  bool views_equal = true;
  bool no_pending = true;       ///< No delayed deliveries in flight.

  bool converged() const {
    return members_match && adjacency_match && stats_match && no_suspects &&
           views_equal && no_pending;
  }
};

/// Compare every active agent's local picture against the ground truth of
/// `h` (the runtime's current wire). View-sync runtimes only.
ConvergenceReport check_convergence(const net::DistributedRuntime& rt,
                                    const Graph& h);

/// The strategy the lockstep engine decides for round `t_next` from the
/// agents' own statistics (weights via the runtime's policy) and activity
/// mask — what a converged runtime's step() must produce.
std::vector<int> lockstep_decision(const net::DistributedRuntime& rt,
                                   const Graph& h, std::int64_t t_next);

}  // namespace mhca::reference
