#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/assert.h"

namespace mhca::net {

void sort_frames(std::vector<FloodFrame>& frames) {
  std::sort(frames.begin(), frames.end(),
            [](const FloodFrame& a, const FloodFrame& b) {
              if (a.origin != b.origin) return a.origin < b.origin;
              return a.seq < b.seq;
            });
}

// ------------------------------------------------------------- loopback

std::vector<FloodFrame> LoopbackTransport::exchange(
    std::vector<FloodFrame> local) {
  ++stats_.exchanges;
  stats_.frames_sent += static_cast<std::int64_t>(local.size());
  sort_frames(local);
  return local;
}

// ---------------------------------------------------------- memory mesh

struct MemoryMeshGroup::Shared {
  std::mutex mu;
  std::condition_variable cv;
  int shards = 1;
  int phase = 0;  ///< 0 = depositing, 1 = collecting.
  int deposited = 0;
  int collected = 0;
  std::vector<FloodFrame> pool;
  std::vector<FloodFrame> merged;
};

class MemoryMeshGroup::Endpoint : public Transport {
 public:
  Endpoint(std::shared_ptr<Shared> shared, int index)
      : shared_(std::move(shared)), index_(index) {}

  int shard_index() const override { return index_; }
  int shard_count() const override { return shared_->shards; }

  std::vector<FloodFrame> exchange(std::vector<FloodFrame> local) override {
    Shared& sh = *shared_;
    const auto mine = static_cast<std::int64_t>(local.size());
    std::unique_lock<std::mutex> lk(sh.mu);
    // Two-phase barrier: wait out any stragglers still collecting the
    // previous step, deposit, and either merge (last depositor) or wait.
    sh.cv.wait(lk, [&] { return sh.phase == 0; });
    for (FloodFrame& f : local) sh.pool.push_back(std::move(f));
    if (++sh.deposited == sh.shards) {
      sh.merged = std::move(sh.pool);
      sh.pool.clear();
      sort_frames(sh.merged);
      sh.collected = 0;
      sh.phase = 1;
      sh.cv.notify_all();
    } else {
      sh.cv.wait(lk, [&] { return sh.phase == 1; });
    }
    std::vector<FloodFrame> out = sh.merged;
    if (++sh.collected == sh.shards) {
      sh.deposited = 0;
      sh.phase = 0;
      sh.cv.notify_all();
    }
    ++stats_.exchanges;
    stats_.frames_sent += mine;
    stats_.frames_received += static_cast<std::int64_t>(out.size()) - mine;
    return out;
  }

 private:
  std::shared_ptr<Shared> shared_;
  int index_;
};

MemoryMeshGroup::MemoryMeshGroup(int shards)
    : shared_(std::make_shared<Shared>()) {
  MHCA_ASSERT(shards >= 1, "MemoryMeshGroup needs at least one shard");
  shared_->shards = shards;
  endpoints_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    endpoints_.push_back(std::make_unique<Endpoint>(shared_, i));
}

MemoryMeshGroup::~MemoryMeshGroup() = default;

Transport& MemoryMeshGroup::endpoint(int index) {
  MHCA_ASSERT(index >= 0 &&
                  index < static_cast<int>(endpoints_.size()),
              "endpoint index out of range");
  return *endpoints_[static_cast<std::size_t>(index)];
}

// ------------------------------------------------------------------ UDP
//
// Datagram header (24 bytes, packed LE):
//   offset size field
//        0    2 magic        0x4D55
//        2    1 version      1
//        3    1 kind         1 = DATA, 2 = DONE, 3 = REQ
//        4    2 shard        sender's shard index
//        6    2 reserved     0
//        8    4 step         exchange barrier number (1-based)
//       12    2 frame        DATA: frame index; DONE: frame count
//       14    2 frag         fragment index within the frame
//       16    2 frag_count   fragments in the frame
//       18    2 payload_len  bytes after the header
//       20    4 seq          per-sender datagram sequence number
//
// A frame body (before fragmentation): origin i32, seq i32, ttl i32,
// len u32, then the encoded message. DONE closes a step (carries the frame
// count so receivers know when reassembly is complete); REQ asks the peer
// to resend everything it sent for `step` (receiver-driven recovery —
// loopback UDP loses datagrams only to buffer overrun, so the sender
// keeps its recent steps' datagrams and replays them on request).

namespace {

constexpr std::uint16_t kDgramMagic = 0x4D55;
constexpr std::uint8_t kDgramVersion = 1;
constexpr std::uint8_t kKindData = 1;
constexpr std::uint8_t kKindDone = 2;
constexpr std::uint8_t kKindReq = 3;
constexpr std::size_t kFrameBodyHeader = 16;  // origin, seq, ttl, len

static_assert(wire::kDatagramHeaderSize == 24);

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

struct DgramHeader {
  std::uint8_t kind = 0;
  std::uint16_t shard = 0;
  std::uint32_t step = 0;
  std::uint16_t frame = 0;
  std::uint16_t frag = 0;
  std::uint16_t frag_count = 0;
  std::uint16_t payload_len = 0;
  std::uint32_t seq = 0;
};

/// Returns false on anything that is not one of ours (foreign traffic on
/// the port is ignored, never fatal).
bool parse_header(const std::uint8_t* data, std::size_t len,
                  DgramHeader& h) {
  if (len < wire::kDatagramHeaderSize) return false;
  if (get16(data) != kDgramMagic || data[2] != kDgramVersion) return false;
  h.kind = data[3];
  h.shard = get16(data + 4);
  h.step = get32(data + 8);
  h.frame = get16(data + 12);
  h.frag = get16(data + 14);
  h.frag_count = get16(data + 16);
  h.payload_len = get16(data + 18);
  h.seq = get32(data + 20);
  if (h.kind < kKindData || h.kind > kKindReq) return false;
  if (wire::kDatagramHeaderSize + h.payload_len != len) return false;
  return true;
}

sockaddr_in shard_addr(int port_base, int shard) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_base + shard));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

struct UdpTransport::SentStep {
  std::uint32_t step = 0;
  std::vector<std::vector<std::uint8_t>> datagrams;
};

struct UdpTransport::PeerProgress {
  int expected_frames = -1;  ///< -1 until the DONE datagram arrives.
  int completed_frames = 0;
  struct FrameBuf {
    int frag_count = 0;
    int received = 0;
    std::vector<std::vector<std::uint8_t>> parts;
  };
  std::map<std::uint16_t, FrameBuf> frames;
  bool done = false;

  void update_done() {
    done = expected_frames >= 0 && completed_frames == expected_frames;
  }
};

UdpTransport::UdpTransport(int shard_index, int shard_count,
                           UdpOptions options)
    : index_(shard_index), count_(shard_count), opt_(options) {
  MHCA_ASSERT(shard_count >= 1, "shard_count must be >= 1");
  MHCA_ASSERT(shard_index >= 0 && shard_index < shard_count,
              "shard_index " + std::to_string(shard_index) +
                  " out of range for " + std::to_string(shard_count) +
                  " shards");
  MHCA_ASSERT(opt_.mtu >= wire::kMinMtu && opt_.mtu <= wire::kMaxMtu,
              "mtu = " + std::to_string(opt_.mtu) +
                  " is outside the supported [" +
                  std::to_string(wire::kMinMtu) + ", " +
                  std::to_string(wire::kMaxMtu) + "] range");
  // Shard k binds port_base + k: every one of those ports must be a real
  // port, or the last shards would wrap onto port 0 (an ephemeral bind no
  // peer can reach).
  MHCA_ASSERT(opt_.port_base >= 1 && opt_.port_base + count_ - 1 <= 65535,
              "port_base = " + std::to_string(opt_.port_base) + " with " +
                  std::to_string(count_) + " shards needs ports " +
                  std::to_string(opt_.port_base) + ".." +
                  std::to_string(opt_.port_base + count_ - 1) +
                  ", outside the valid [1, 65535] range");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0)
    throw std::runtime_error(std::string("UdpTransport: socket() failed: ") +
                             std::strerror(errno));
  // Loopback floods arrive in bursts; a deep receive buffer is the first
  // line of defense, the retransmit protocol the second.
  int rcvbuf = 4 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_usec = 20'000;  // 20 ms poll quantum for the recv loop
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const sockaddr_in addr = shard_addr(opt_.port_base, index_);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(
        "UdpTransport: bind(127.0.0.1:" +
        std::to_string(opt_.port_base + index_) + ") failed: " +
        std::strerror(err) + " (is another shard or process on the port?)");
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::send_datagram(int peer,
                                 const std::vector<std::uint8_t>& dgram) {
  const sockaddr_in addr = shard_addr(opt_.port_base, peer);
  (void)::sendto(fd_, dgram.data(), dgram.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ++stats_.datagrams_sent;
  stats_.bytes_sent += static_cast<std::int64_t>(dgram.size());
}

void UdpTransport::send_step_to(int peer, const SentStep& step) {
  for (const auto& dgram : step.datagrams) send_datagram(peer, dgram);
}

void UdpTransport::integrate(PeerProgress& peer, std::uint16_t frame,
                             std::uint16_t frag, std::uint16_t frag_count,
                             const std::uint8_t* payload,
                             std::size_t payload_len) {
  if (frag_count == 0 || frag >= frag_count) return;  // malformed; ignore
  auto& buf = peer.frames[frame];
  if (buf.frag_count == 0) {
    buf.frag_count = frag_count;
    buf.parts.resize(frag_count);
  }
  if (buf.frag_count != frag_count) return;  // inconsistent; ignore
  if (!buf.parts[frag].empty() || buf.received > frag_count) return;  // dup
  if (payload_len == 0) return;  // DATA fragments always carry bytes
  buf.parts[frag].assign(payload, payload + payload_len);
  if (++buf.received == buf.frag_count) ++peer.completed_frames;
  peer.update_done();
}

bool UdpTransport::handle_datagram(const std::uint8_t* data, std::size_t len,
                                   std::vector<PeerProgress>& peers) {
  DgramHeader h;
  if (!parse_header(data, len, h)) return false;
  if (h.shard >= static_cast<std::uint16_t>(count_) ||
      static_cast<int>(h.shard) == index_)
    return false;
  ++stats_.datagrams_received;
  stats_.bytes_received += static_cast<std::int64_t>(len);

  if (h.kind == kKindReq) {
    // A stalled peer wants a step of ours again. Serve it from history.
    for (const SentStep& s : history_) {
      if (s.step == h.step) {
        ++stats_.retransmissions;
        send_step_to(h.shard, s);
        break;
      }
    }
    return false;
  }
  if (h.step < step_) return false;  // stale duplicate of a finished step
  if (h.step > step_) {
    // The peer already completed our step and moved on (it can lead by at
    // most one barrier); park its next-step datagrams for later.
    ahead_.emplace_back(data, data + len);
    return false;
  }
  PeerProgress& peer = peers[h.shard];
  if (peer.done) return false;
  if (h.kind == kKindDone) {
    peer.expected_frames = h.frame;
    peer.update_done();
    return true;
  }
  integrate(peer, h.frame, h.frag, h.frag_count,
            data + wire::kDatagramHeaderSize, h.payload_len);
  return true;
}

std::vector<FloodFrame> UdpTransport::exchange(
    std::vector<FloodFrame> local) {
  using Clock = std::chrono::steady_clock;
  ++step_;
  ++stats_.exchanges;
  stats_.frames_sent += static_cast<std::int64_t>(local.size());

  // Serialize + fragment this shard's frames into outgoing datagrams.
  SentStep sent;
  sent.step = step_;
  const std::size_t cap =
      static_cast<std::size_t>(opt_.mtu) - wire::kDatagramHeaderSize;
  const auto header = [&](std::uint8_t kind, std::uint16_t frame,
                          std::uint16_t frag, std::uint16_t frag_count,
                          std::uint16_t payload_len,
                          std::vector<std::uint8_t>& out) {
    put16(out, kDgramMagic);
    out.push_back(kDgramVersion);
    out.push_back(kind);
    put16(out, static_cast<std::uint16_t>(index_));
    put16(out, 0);  // reserved
    put32(out, step_);
    put16(out, frame);
    put16(out, frag);
    put16(out, frag_count);
    put16(out, payload_len);
    put32(out, send_seq_++);
  };
  MHCA_ASSERT(local.size() < 0xFFFF, "too many frames in one exchange");
  for (std::size_t f = 0; f < local.size(); ++f) {
    const FloodFrame& fr = local[f];
    std::vector<std::uint8_t> body;
    body.reserve(kFrameBodyHeader + fr.bytes.size());
    put32(body, static_cast<std::uint32_t>(fr.origin));
    put32(body, static_cast<std::uint32_t>(fr.seq));
    put32(body, static_cast<std::uint32_t>(fr.ttl));
    put32(body, static_cast<std::uint32_t>(fr.bytes.size()));
    body.insert(body.end(), fr.bytes.begin(), fr.bytes.end());
    const std::size_t n_frags = (body.size() + cap - 1) / cap;
    MHCA_ASSERT(n_frags < 0xFFFF, "frame does not fit 65534 fragments");
    for (std::size_t frag = 0; frag < n_frags; ++frag) {
      const std::size_t off = frag * cap;
      const std::size_t n = std::min(cap, body.size() - off);
      std::vector<std::uint8_t> dgram;
      dgram.reserve(wire::kDatagramHeaderSize + n);
      header(kKindData, static_cast<std::uint16_t>(f),
             static_cast<std::uint16_t>(frag),
             static_cast<std::uint16_t>(n_frags),
             static_cast<std::uint16_t>(n), dgram);
      dgram.insert(dgram.end(), body.begin() + static_cast<long>(off),
                   body.begin() + static_cast<long>(off + n));
      sent.datagrams.push_back(std::move(dgram));
    }
  }
  {
    std::vector<std::uint8_t> done;
    header(kKindDone, static_cast<std::uint16_t>(local.size()), 0, 1, 0,
           done);
    sent.datagrams.push_back(std::move(done));
  }
  history_.push_back(std::move(sent));
  if (history_.size() > 4) history_.erase(history_.begin());
  const SentStep& mine = history_.back();
  for (int p = 0; p < count_; ++p)
    if (p != index_) send_step_to(p, mine);

  // Collect every peer's frames for this step.
  std::vector<PeerProgress> peers(static_cast<std::size_t>(count_));
  peers[static_cast<std::size_t>(index_)].done = true;
  const auto all_done = [&] {
    for (const PeerProgress& p : peers)
      if (!p.done) return false;
    return true;
  };
  // First, datagrams that arrived early while we were still in the
  // previous barrier.
  if (!ahead_.empty()) {
    std::vector<std::vector<std::uint8_t>> parked;
    parked.swap(ahead_);
    // datagrams_received/bytes_received were already counted at park time;
    // undo the double count before re-handling.
    for (const auto& d : parked) {
      --stats_.datagrams_received;
      stats_.bytes_received -= static_cast<std::int64_t>(d.size());
      handle_datagram(d.data(), d.size(), peers);
    }
  }

  const auto start = Clock::now();
  auto last_progress = start;
  std::uint8_t buf[65536];
  while (!all_done()) {
    const auto r = ::recv(fd_, buf, sizeof(buf), 0);
    const auto now = Clock::now();
    if (r > 0 &&
        handle_datagram(buf, static_cast<std::size_t>(r), peers)) {
      last_progress = now;
      continue;
    }
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    if (duration_cast<milliseconds>(now - start).count() >
        opt_.overall_timeout_ms) {
      std::string missing;
      for (int p = 0; p < count_; ++p)
        if (!peers[static_cast<std::size_t>(p)].done)
          missing += (missing.empty() ? "" : ", ") + std::to_string(p);
      throw std::runtime_error(
          "UdpTransport: shard " + std::to_string(index_) + " timed out in "
          "exchange step " + std::to_string(step_) + " waiting for shard(s) " +
          missing + " (ports " + std::to_string(opt_.port_base) + "+k; did "
          "every shard process start with the same scenario and --shard k/" +
          std::to_string(count_) + "?)");
    }
    if (duration_cast<milliseconds>(now - last_progress).count() >
        opt_.resend_after_ms) {
      // Receiver-driven recovery: ask every stalled peer to replay the step.
      for (int p = 0; p < count_; ++p) {
        if (peers[static_cast<std::size_t>(p)].done) continue;
        std::vector<std::uint8_t> req;
        header(kKindReq, 0, 0, 1, 0, req);
        send_datagram(p, req);
        ++stats_.retransmit_requests;
      }
      last_progress = now;
    }
  }

  // Merge: reassemble every peer frame and append to the local ones.
  std::vector<FloodFrame> merged = std::move(local);
  for (int p = 0; p < count_; ++p) {
    if (p == index_) continue;
    PeerProgress& peer = peers[static_cast<std::size_t>(p)];
    for (auto& [frame_idx, fbuf] : peer.frames) {
      (void)frame_idx;
      std::vector<std::uint8_t> body;
      for (const auto& part : fbuf.parts)
        body.insert(body.end(), part.begin(), part.end());
      if (body.size() < kFrameBodyHeader)
        throw std::runtime_error(
            "UdpTransport: reassembled frame body of " +
            std::to_string(body.size()) + " bytes is smaller than its " +
            std::to_string(kFrameBodyHeader) + "-byte header");
      FloodFrame fr;
      fr.origin = static_cast<std::int32_t>(get32(body.data()));
      fr.seq = static_cast<std::int32_t>(get32(body.data() + 4));
      fr.ttl = static_cast<std::int32_t>(get32(body.data() + 8));
      const std::uint32_t n = get32(body.data() + 12);
      if (kFrameBodyHeader + n != body.size())
        throw std::runtime_error(
            "UdpTransport: frame body length field " + std::to_string(n) +
            " does not match the " +
            std::to_string(body.size() - kFrameBodyHeader) +
            " reassembled payload bytes");
      fr.bytes.assign(body.begin() + kFrameBodyHeader, body.end());
      ++stats_.frames_received;
      merged.push_back(std::move(fr));
    }
  }
  sort_frames(merged);
  return merged;
}

void UdpTransport::finish() {
  using Clock = std::chrono::steady_clock;
  // Serve late retransmit requests: a peer may still be collecting our
  // final step when we are already done with the run.
  const auto start = Clock::now();
  std::uint8_t buf[65536];
  std::vector<PeerProgress> scratch(static_cast<std::size_t>(count_));
  for (auto& p : scratch) p.done = true;  // only REQs matter here
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - start)
             .count() < opt_.finish_linger_ms) {
    const auto r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) handle_datagram(buf, static_cast<std::size_t>(r), scratch);
  }
}

}  // namespace mhca::net
