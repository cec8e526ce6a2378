// Control-channel message formats (paper §IV: WB, LS/LD, LB phases).
//
// All strategy-decision coordination rides on a common control channel; the
// message types map to the protocol phases:
//   kHello        — neighborhood discovery and liveness (§IV-C: the first
//                   round must collect ids/weights of the (2r+1)-hop
//                   neighborhood). Under view-synchronous membership hellos
//                   are also the periodic keep-alives, the targeted
//                   retry/backoff probes (probe_target >= 0) and the
//                   solicited re-advertisements (solicit = true).
//   kWeightUpdate — WB: a vertex that transmitted last round floods its new
//                   sufficient statistics (µ̃, m); receivers recompute the
//                   index locally, so only O(1) numbers travel per update
//   kLeaderDeclare— LS/LD: a Candidate claims LocalLeader in 2r+1 hops
//   kDetermination— LB: a leader's Winner/Loser verdicts, flooded 3r+2 hops
//                   (winner-adjacent losers sit r+1 hops out)
//   kViewChange   — membership epoch advance: the initiator's new
//                   ViewId{seq, representative} plus its fresh hello
//                   payload, flooded within the table horizon so the
//                   neighborhood can adopt the view and reconcile
//
// Every message carries the sender's current ViewId and the round it was
// sent in: receivers adopt any strictly greater view they hear (views
// gossip with ordinary traffic) and use the round tag to reject stale
// payloads that a faulty wire delivered late (see net/control_channel.h).
#pragma once

#include <cstdint>
#include <vector>

#include "mwis/distributed_ptas.h"  // VertexStatus
#include "net/view.h"

namespace mhca::net {

enum class MsgType : std::uint8_t {
  kHello,
  kWeightUpdate,
  kLeaderDeclare,
  kDetermination,
  kViewChange,
};
inline constexpr int kNumMsgTypes = 5;

struct StatusEntry {
  int vertex = -1;
  VertexStatus status = VertexStatus::kCandidate;
};

struct Message {
  MsgType type = MsgType::kHello;
  int origin = -1;

  /// Round the message was sent in (view-sync: receivers accept hello
  /// payloads round-monotonically and discard cross-round decision
  /// messages a delayed wire delivers late).
  std::int64_t round = 0;
  /// Sender's membership epoch at send time (adopt-if-greater gossip).
  ViewId view{};

  // kHello payload: the origin's direct neighbors (lets receivers
  // reconstruct the adjacency of their local neighborhood).
  std::vector<int> neighbor_list;
  /// kHello (view-sync): ask receivers to re-advertise themselves (set by
  /// rejoining nodes rebuilding a stale table).
  bool solicit = false;
  /// kHello (view-sync): this hello is a liveness probe for one suspected
  /// member; only that member responds. -1 = not a probe.
  int probe_target = -1;

  // kHello / kWeightUpdate / kViewChange payload: origin's sufficient
  // statistics (hellos and view changes carry them so rebuilt tables stay
  // index-consistent network-wide).
  double mean = 0.0;
  std::int64_t count = 0;

  // kDetermination payload: the leader's verdicts.
  std::vector<StatusEntry> statuses;
};

}  // namespace mhca::net
