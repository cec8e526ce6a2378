// Synchronous common control channel with TTL-bounded flooding and a
// seeded, deterministic fault-injection plane.
//
// Delivery model: a flood from `origin` with time-to-live `ttl` reaches
// exactly the vertices within ttl hops in the control topology (one hop per
// mini-timeslot, every reached vertex retransmits once). The channel counts
// transmissions (= reached vertices, including the origin) and the
// mini-timeslots a phase occupies, matching the accounting of the lockstep
// engine and the paper's §IV-C complexity analysis.
//
// Fault injection (net/faults.h): per (flood, receiving vertex) the channel
// can drop (the vertex neither delivers nor forwards), duplicate (a second
// delivery, billed as a real retransmission — duplicated and retried
// messages are not free airtime), and defer deliveries — to the end of the
// same flood (pure reordering) or into the membership phase of a later
// slot, bounded by delay_slots_max. Every decision is a pure hash of
// (seed, flood counter, vertex), so one (seed, schedule) pair replays the
// same fault pattern byte for byte; `trace_hash()` folds every flood and
// every delivery into one order-sensitive digest that tests compare across
// runs. The paper assumes a reliable control channel — the fault plane
// exists to demonstrate (and test) which protocol guarantees genuinely
// depend on that assumption, and what the view-synchronous membership
// layer recovers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/hop.h"
#include "net/faults.h"
#include "net/message.h"
#include "net/wire.h"

namespace mhca::net {

struct ChannelStats {
  std::int64_t messages = 0;        ///< Total transmissions (incl. dups).
  std::int64_t floods = 0;          ///< Flood operations.
  std::int64_t drops = 0;           ///< Reception failures (lossy mode).
  std::int64_t duplicates = 0;      ///< Duplicate deliveries (billed).
  std::int64_t deferred = 0;        ///< Deliveries reordered or delayed.
  std::int64_t mini_timeslots = 0;  ///< Accumulated phase durations.
  /// Transmissions broken out per message type (indexed by MsgType):
  /// hello / weight-update / leader-declare / determination / view-change.
  /// Lets tests compare the real protocol's bill against the lockstep
  /// engine's analytic accounting, phase by phase.
  std::int64_t messages_by_type[kNumMsgTypes] = {0, 0, 0, 0, 0};
  /// Encoded bytes on the wire (wire::encoded_size per transmission, dups
  /// included) — airtime billed from the real marshalled size, not a count.
  std::int64_t bytes_on_wire = 0;
  /// Same bill broken out per message type.
  std::int64_t bytes_by_type[kNumMsgTypes] = {0, 0, 0, 0, 0};
  /// MTU fragments those transmissions occupy (wire::fragments_of); equals
  /// the datagram count the UDP transport would send.
  std::int64_t fragments = 0;

  std::int64_t of_type(MsgType t) const {
    return messages_by_type[static_cast<std::size_t>(t)];
  }
  std::int64_t bytes_of_type(MsgType t) const {
    return bytes_by_type[static_cast<std::size_t>(t)];
  }
};

class ControlChannel {
 public:
  /// `topology` must outlive the channel (it is the extended graph H; the
  /// paper's control plane shares the conflict structure of the data plane).
  /// The profile is validated with actionable errors (offending knob and
  /// value) before anything else runs.
  explicit ControlChannel(const Graph& topology,
                          const FaultProfile& faults = {});

  /// Flood `msg` within `ttl` hops of msg.origin; `deliver(v, msg)` is
  /// invoked once per delivery for every reached vertex except the origin
  /// (twice when the fault plane duplicates). Deliveries the fault plane
  /// delayed into a later slot are *not* delivered here — they surface from
  /// begin_slot() when their slot comes.
  ///
  /// Delivery order (folded into trace_hash, so it is part of the replay
  /// contract): on a fault-free channel, ascending vertex id over the whole
  /// reach. Under faults, breadth-first discovery order (each vertex's
  /// neighbors ascending), then the copies deferred to the end of this
  /// flood, ordered by their hash-derived shuffle key.
  ///
  /// Wire discipline: the flood's unit of transfer is the *encoded* message
  /// (net/wire.h). Every flood marshals once, the fault plane operates on
  /// those bytes, and every delivery hands receivers the *decoded* copy —
  /// so in-process runs exercise the exact bytes a socket transport would
  /// carry, airtime is billed from encoded_size, and an always-on invariant
  /// asserts decode(encode(msg)) == msg.
  void flood(const Message& msg, int ttl,
             const std::function<void(int, const Message&)>& deliver);

  /// Flood a message that already arrived as wire bytes (a sharded peer's
  /// frame): identical fault/billing/trace behavior. Decodes once, asserts
  /// that re-encoding the decoded message reproduces `bytes`, and returns
  /// the decoded message (what every receiver saw).
  Message flood_encoded(
      const std::shared_ptr<const std::vector<std::uint8_t>>& bytes, int ttl,
      const std::function<void(int, const Message&)>& deliver);

  /// Enter slot `round`: hands every delayed delivery that is now due to
  /// `dispatch(to, msg)`, in deterministic hash-shuffled order. Call once
  /// per slot before any flooding; a no-op on a fault-free channel.
  void begin_slot(std::int64_t round,
                  const std::function<void(int, const Message&)>& dispatch);

  /// Account that a protocol phase occupied `slots` mini-timeslots.
  void charge_timeslots(int slots) { stats_.mini_timeslots += slots; }

  /// Swap the fault profile mid-run (fault *schedules*: a lossy window
  /// followed by a quiet one, etc.). Validated like the constructor's;
  /// deliveries already delayed keep their original due slots.
  void set_fault_profile(const FaultProfile& faults) {
    faults.validate();
    faults_ = faults;
  }

  /// MTU for fragment accounting (and the wire contract of any socket
  /// transport layered on this channel). Rejects mtu outside
  /// [wire::kMinMtu, wire::kMaxMtu] with an actionable error.
  void set_mtu(int mtu);
  int mtu() const { return mtu_; }

  const FaultProfile& faults() const { return faults_; }
  const ChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ChannelStats{}; }

  /// Deliveries still in flight (delayed into a future slot). Convergence
  /// requires this to be zero — a delayed hello can still change a table.
  std::size_t pending_deliveries() const { return pending_.size(); }

  /// Order-sensitive digest of every flood and every delivery so far.
  /// Identical (seed, schedule) runs must produce identical digests — the
  /// byte-for-byte replay guarantee of the fault plane.
  std::uint64_t trace_hash() const { return trace_hash_; }

 private:
  /// A deferred delivery holds the *encoded datagram* (shared across the
  /// copies of one flood), not the struct: what sits in the fault plane's
  /// queues is bytes on a wire, decoded only when finally delivered.
  struct Pending {
    std::int64_t due_round;
    std::uint64_t shuffle_key;  ///< Deterministic delivery-order key.
    int to;
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  };

  /// Per-(flood, vertex, salt) uniform [0,1) draw.
  double fault_draw(int vertex, std::uint64_t salt) const;
  /// Trace folds. `digest` is the flood's message_digest, computed once
  /// per flood (from the decoded message) and folded into every delivery.
  void record_flood(std::uint64_t digest, int ttl,
                    const std::vector<std::uint8_t>& bytes);
  void record_delivery(int to, std::uint64_t digest);
  void deliver_copies(
      int vertex, const Message& msg, std::uint64_t digest,
      const std::shared_ptr<const std::vector<std::uint8_t>>& bytes,
      const std::function<void(int, const Message&)>& deliver,
      std::vector<Pending>& same_flood);
  /// Shared flood body. `msg` is the sent message; `decoded` is its
  /// decoded copy when the caller already has one (an encoded frame whose
  /// bytes it verified), else null and the body decodes `bytes` itself.
  void flood_impl(const Message& msg, const Message* decoded,
                  const std::shared_ptr<const std::vector<std::uint8_t>>&
                      bytes,
                  int ttl,
                  const std::function<void(int, const Message&)>& deliver);
  /// Fault-free reach: fill reach_buf_ with every vertex within `ttl` hops
  /// of `origin` (origin included), ascending by id, without a sort.
  void reach_in_id_order(int origin, int ttl);
  /// One transmission's airtime: message count, bytes, fragments, per type.
  void bill(MsgType type, std::size_t wire_size, std::int64_t transmissions);

  const Graph& topology_;
  FaultProfile faults_;
  int mtu_ = wire::kDefaultMtu;
  std::vector<int> reach_buf_;
  std::vector<std::uint64_t> reach_bits_;  ///< All zero between floods.
  BfsScratch scratch_;  ///< The faulty flood's walk; sized on first use.
  std::int64_t round_ = 0;
  std::vector<Pending> pending_;
  ChannelStats stats_;
  std::uint64_t trace_hash_ = 0x6d686361'6e657432ULL;  // "mhcanet2"
};

}  // namespace mhca::net
