// Pluggable transport: how the protocol runtime moves encoded floods
// between shards — one shard in a single-process run, N in a sharded one.
//
// Sharding model (see net/runtime.h): every shard hosts all agents and
// replays *every* flood through its local ControlChannel, but only the
// owner shard of a vertex (owner = vertex % shard_count) originates that
// vertex's floods — and only the owner computes its expensive payloads
// (the leader's local MWIS solve travels as bytes, not as recomputation).
// Each protocol phase runs through exchange() (how many per phase:
// net/README.md): every shard deposits the frames it originated in one
// step, and every shard receives the union in canonical
// (origin, seq) order. Replaying that canonical order keeps the global
// flood counter — and with it every fault draw and the trace hash —
// identical on all shards and identical to a single-process run.
//
// exchange() is a barrier: it returns only when every shard's frames for
// the current step have arrived. Three backends:
//
//   LoopbackTransport   shard_count == 1; sorts and returns the caller's
//                       own frames — every single-process run's transport.
//   MemoryMeshGroup     N endpoints in one process synchronized by a
//                       condition-variable barrier — what tests use to run
//                       N genuine shard runtimes against each other without
//                       sockets.
//   UdpTransport        N real processes on loopback UDP: fragments frames
//                       to the MTU, stamps every datagram with a per-sender
//                       sequence number, reassembles, and recovers lost
//                       datagrams with receiver-driven retransmit requests
//                       (loopback UDP can overrun SO_RCVBUF; ~50 ms of
//                       silence triggers a re-request, an overall deadline
//                       fails loudly instead of hanging CI).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"

namespace mhca::net {

/// One originated flood, as it travels between shards: the encoded message
/// plus the flood parameters a replaying shard needs.
struct FloodFrame {
  int origin = -1;  ///< Originating vertex (unique owner shard).
  int seq = 0;      ///< Per-origin tiebreak within one exchange.
  int ttl = 0;      ///< Flood TTL, replayed verbatim.
  std::vector<std::uint8_t> bytes;  ///< wire::encode of the message.
};

/// Canonical (origin, seq) order — the replay order every shard agrees on.
void sort_frames(std::vector<FloodFrame>& frames);

struct TransportStats {
  std::int64_t exchanges = 0;
  std::int64_t frames_sent = 0;      ///< Locally originated frames.
  std::int64_t frames_received = 0;  ///< Frames from peer shards.
  std::int64_t datagrams_sent = 0;   ///< UDP only (fragments + control).
  std::int64_t datagrams_received = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t retransmit_requests = 0;  ///< Sent to stalled peers.
  std::int64_t retransmissions = 0;      ///< Datagrams resent on request.
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int shard_index() const = 0;
  virtual int shard_count() const = 0;

  /// Barrier exchange: deposit this shard's frames for the current step;
  /// returns the union of all shards' frames in canonical order. Every
  /// shard must call exchange() the same number of times (the protocol's
  /// control flow is deterministic, so they do). Throws std::runtime_error
  /// with an actionable message if a peer stays silent past the deadline.
  virtual std::vector<FloodFrame> exchange(
      std::vector<FloodFrame> local) = 0;

  /// Linger briefly servicing peers' retransmit requests before teardown
  /// (a shard that finishes first must not take the last step's frames to
  /// the grave). No-op for in-process backends.
  virtual void finish() {}

  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

/// The one-shard mesh: exchange() sorts and returns the local frames. What
/// DistributedRuntime's 3-argument constructor runs over.
class LoopbackTransport : public Transport {
 public:
  int shard_index() const override { return 0; }
  int shard_count() const override { return 1; }
  std::vector<FloodFrame> exchange(std::vector<FloodFrame> local) override;
};

/// N in-process endpoints over a shared two-phase barrier. Endpoints are
/// driven from N threads (one runtime each); the group must outlive them.
class MemoryMeshGroup {
 public:
  explicit MemoryMeshGroup(int shards);
  ~MemoryMeshGroup();

  Transport& endpoint(int index);

 private:
  struct Shared;
  class Endpoint;
  std::shared_ptr<Shared> shared_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

struct UdpOptions {
  int port_base = 47310;  ///< Shard k binds 127.0.0.1:(port_base + k).
  int mtu = wire::kDefaultMtu;
  int resend_after_ms = 50;      ///< Silence before a retransmit request.
  int overall_timeout_ms = 30'000;  ///< Hard deadline per exchange.
  int finish_linger_ms = 300;    ///< finish(): serve late re-requests.
};

/// Real sockets on loopback; one process per shard. See net/README.md for
/// the datagram header layout and the recovery protocol.
class UdpTransport : public Transport {
 public:
  /// Binds the shard's socket; throws std::runtime_error (with the errno
  /// string and the port) if the address is unavailable, and
  /// std::logic_error if port_base .. port_base + shard_count - 1 leaves
  /// [1, 65535].
  UdpTransport(int shard_index, int shard_count, UdpOptions options = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  int shard_index() const override { return index_; }
  int shard_count() const override { return count_; }
  std::vector<FloodFrame> exchange(std::vector<FloodFrame> local) override;
  void finish() override;

 private:
  struct PeerProgress;
  struct SentStep;

  void send_datagram(int peer, const std::vector<std::uint8_t>& dgram);
  void send_step_to(int peer, const SentStep& step);
  /// Handle one incoming datagram; returns true if it advanced the current
  /// step's collection state.
  bool handle_datagram(const std::uint8_t* data, std::size_t len,
                       std::vector<PeerProgress>& peers);
  void integrate(PeerProgress& peer, std::uint16_t frame,
                 std::uint16_t frag, std::uint16_t frag_count,
                 const std::uint8_t* payload, std::size_t payload_len);

  int index_;
  int count_;
  UdpOptions opt_;
  int fd_ = -1;
  std::uint32_t step_ = 0;
  std::uint32_t send_seq_ = 0;  ///< Per-datagram sequence number.
  /// Recent steps' outgoing datagrams, kept for retransmit requests.
  std::vector<SentStep> history_;
  /// Datagrams from peers already at step_ + 1 while we still collect
  /// step_ (they can be ahead by at most one barrier).
  std::vector<std::vector<std::uint8_t>> ahead_;
};

}  // namespace mhca::net
