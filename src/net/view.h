// View-synchronous membership identifiers (galera's virtual-synchrony
// ViewId(seq, representative) idiom).
//
// A ViewId names one membership epoch of an agent's local neighborhood. The
// sequence number advances whenever an agent changes its own membership
// table (a member evicted after timeout + exhausted retries, or a new
// member admitted from a hello); the representative is the id of the agent
// that initiated that change. Every control-channel message carries its
// sender's current ViewId, and receivers adopt any strictly greater view
// they hear (total order: seq first, then representative) — so views gossip
// outward with ordinary protocol traffic and, in the absence of new faults
// or churn, every agent of a connected region settles on the same maximal
// view. Decisions are tagged with the view they were made in; an agent
// whose view is in flux decides conservatively (see net/agent.h).
#pragma once

#include <cstdint>

namespace mhca::net {

struct ViewId {
  std::int64_t seq = 0;
  int representative = -1;  ///< Initiator of this membership epoch.

  friend bool operator==(const ViewId&, const ViewId&) = default;
  friend bool operator<(const ViewId& a, const ViewId& b) {
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.representative < b.representative;
  }
  friend bool operator>(const ViewId& a, const ViewId& b) { return b < a; }
};

/// How the runtime learns of membership/topology change.
enum class MembershipMode : std::uint8_t {
  /// The simulator's delta feed drives scoped rediscovery directly
  /// (DistributedRuntime::on_topology_change) — the pre-view-sync behavior,
  /// byte-identical to the lockstep engine every round.
  kOmniscient,
  /// Agents infer membership from the wire alone: periodic stat-carrying
  /// hellos, liveness by timeout + bounded retry with exponential backoff,
  /// evictions/admissions announced as view changes. The lockstep engine is
  /// matched whenever views have converged (see net/README.md).
  kViewSync,
};

/// Liveness knobs of the view-synchronous membership layer.
struct LivenessParams {
  int hello_timeout_slots = 4;  ///< Silence (slots) before suspicion.
  int hello_max_retries = 3;    ///< Probes before eviction.
  int backoff_base = 2;         ///< Probe k waits backoff_base^k slots.

  bool operator==(const LivenessParams&) const = default;
};

}  // namespace mhca::net
