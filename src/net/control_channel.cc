#include "net/control_channel.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/hash.h"

namespace mhca::net {

namespace {

// Salts separating the independent fault decisions of one (flood, vertex).
constexpr std::uint64_t kSaltDrop = 0;  // PR-4 drop hash (kept bit-compatible)
constexpr std::uint64_t kSaltDup = 0x9e01;
constexpr std::uint64_t kSaltDefer = 0x9e02;
constexpr std::uint64_t kSaltDelay = 0x9e03;
constexpr std::uint64_t kSaltShuffle = 0x9e04;

std::uint64_t hash_double(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::uint64_t message_digest(const Message& msg) {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(msg.type),
                                 static_cast<std::uint64_t>(msg.origin));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.round));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.view.seq));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.view.representative));
  h = hash_combine(h, hash_double(msg.mean));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.count));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.solicit));
  h = hash_combine(h, static_cast<std::uint64_t>(msg.probe_target));
  for (int v : msg.neighbor_list)
    h = hash_combine(h, static_cast<std::uint64_t>(v));
  for (const StatusEntry& e : msg.statuses) {
    h = hash_combine(h, static_cast<std::uint64_t>(e.vertex));
    h = hash_combine(h, static_cast<std::uint64_t>(e.status));
  }
  return h;
}

}  // namespace

ControlChannel::ControlChannel(const Graph& topology,
                               const FaultProfile& faults)
    : topology_(topology),
      faults_(faults),
      reach_bits_((static_cast<std::size_t>(topology.size()) + 63) / 64, 0) {
  faults_.validate();
}

void ControlChannel::set_mtu(int mtu) {
  MHCA_ASSERT(mtu >= wire::kMinMtu && mtu <= wire::kMaxMtu,
              "mtu = " + std::to_string(mtu) + " is outside the supported [" +
                  std::to_string(wire::kMinMtu) + ", " +
                  std::to_string(wire::kMaxMtu) + "] range");
  mtu_ = mtu;
}

double ControlChannel::fault_draw(int vertex, std::uint64_t salt) const {
  const std::uint64_t h = hash_combine(
      faults_.seed ^ salt,
      hash_combine(static_cast<std::uint64_t>(stats_.floods),
                   static_cast<std::uint64_t>(vertex)));
  return hash_to_unit(splitmix64(h));
}

void ControlChannel::record_flood(std::uint64_t digest, int ttl,
                                  const std::vector<std::uint8_t>& bytes) {
  trace_hash_ = hash_combine(trace_hash_, 0xF100D);
  trace_hash_ = hash_combine(trace_hash_, digest);
  trace_hash_ = hash_combine(trace_hash_, static_cast<std::uint64_t>(ttl));
  // The wire-level fold: replays must agree on the exact bytes, not just on
  // the struct fields they decode to.
  trace_hash_ = hash_combine(trace_hash_,
                             wire::bytes_digest(bytes.data(), bytes.size()));
}

void ControlChannel::record_delivery(int to, std::uint64_t digest) {
  trace_hash_ = hash_combine(trace_hash_, 0xDE11);
  trace_hash_ = hash_combine(trace_hash_, static_cast<std::uint64_t>(to));
  trace_hash_ = hash_combine(trace_hash_, digest);
}

void ControlChannel::bill(MsgType type, std::size_t wire_size,
                          std::int64_t transmissions) {
  stats_.messages += transmissions;
  stats_.messages_by_type[static_cast<std::size_t>(type)] += transmissions;
  const auto bytes =
      transmissions * static_cast<std::int64_t>(wire_size);
  stats_.bytes_on_wire += bytes;
  stats_.bytes_by_type[static_cast<std::size_t>(type)] += bytes;
  stats_.fragments += transmissions * wire::fragments_of(wire_size, mtu_);
}

void ControlChannel::deliver_copies(
    int vertex, const Message& msg, std::uint64_t digest,
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes,
    const std::function<void(int, const Message&)>& deliver,
    std::vector<Pending>& same_flood) {
  // Duplication: the duplicate is a real retransmission — billed, like any
  // retried message (airtime is airtime).
  int copies = 1;
  if (faults_.dup_prob > 0.0 &&
      fault_draw(vertex, kSaltDup) < faults_.dup_prob) {
    copies = 2;
    ++stats_.duplicates;
    bill(msg.type, bytes->size(), 1);
  }
  for (int c = 0; c < copies; ++c) {
    const std::uint64_t copy_salt = static_cast<std::uint64_t>(c) << 32;
    if (faults_.reorder_prob > 0.0 &&
        fault_draw(vertex, kSaltDefer ^ copy_salt) < faults_.reorder_prob) {
      ++stats_.deferred;
      const std::uint64_t shuffle = splitmix64(hash_combine(
          faults_.seed ^ kSaltShuffle ^ copy_salt,
          hash_combine(static_cast<std::uint64_t>(stats_.floods),
                       static_cast<std::uint64_t>(vertex))));
      if (faults_.delay_slots_max == 0) {
        // Pure reordering: lands after this flood's in-order deliveries.
        same_flood.push_back(Pending{round_, shuffle, vertex, bytes});
      } else {
        const int d = 1 + static_cast<int>(
                              splitmix64(hash_combine(
                                  faults_.seed ^ kSaltDelay ^ copy_salt,
                                  hash_combine(
                                      static_cast<std::uint64_t>(stats_.floods),
                                      static_cast<std::uint64_t>(vertex)))) %
                              static_cast<std::uint64_t>(
                                  faults_.delay_slots_max));
        pending_.push_back(Pending{round_ + d, shuffle, vertex, bytes});
      }
      continue;
    }
    record_delivery(vertex, digest);
    deliver(vertex, msg);
  }
}

void ControlChannel::flood(
    const Message& msg, int ttl,
    const std::function<void(int, const Message&)>& deliver) {
  // Marshal once per flood: the bytes are the unit of transfer everywhere
  // below, and the decoded copy is what receivers actually see.
  auto bytes = std::make_shared<std::vector<std::uint8_t>>();
  wire::encode(msg, *bytes);
  flood_impl(msg, nullptr, std::move(bytes), ttl, deliver);
}

Message ControlChannel::flood_encoded(
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes, int ttl,
    const std::function<void(int, const Message&)>& deliver) {
  MHCA_ASSERT(bytes != nullptr && !bytes->empty(), "empty encoded flood");
  Message decoded = wire::decode(bytes->data(), bytes->size());
  // The round-trip invariant from the receiving side: the bytes a peer sent
  // must be exactly what re-marshalling their decoded message produces.
  std::vector<std::uint8_t> reencoded;
  wire::encode(decoded, reencoded);
  MHCA_ASSERT(reencoded == *bytes,
              "wire round-trip changed the message (encode/decode drift)");
  flood_impl(decoded, &decoded, bytes, ttl, deliver);
  return decoded;
}

void ControlChannel::flood_impl(
    const Message& msg, const Message* decoded,
    const std::shared_ptr<const std::vector<std::uint8_t>>& bytes, int ttl,
    const std::function<void(int, const Message&)>& deliver) {
  MHCA_ASSERT(msg.origin >= 0 && msg.origin < topology_.size(),
              "flood origin out of range");
  MHCA_ASSERT(ttl >= 0, "negative ttl");
  const std::size_t wire_size = bytes->size();
  MHCA_ASSERT(wire_size == wire::encoded_size(msg),
              "encoded flood size disagrees with encoded_size()");

  // Per-flood trace span (src/obs): one relaxed load when tracing is off;
  // nothing below branches on `tr`, so the flood — and the trace_hash folds
  // in record_flood/record_delivery — is bit-identical either way.
  static constexpr const char* kFloodSpanNames[kNumMsgTypes] = {
      "flood.hello", "flood.weight_update", "flood.leader_declare",
      "flood.determination", "flood.view_change"};
  obs::TraceRecorder* const tr = obs::trace();
  char targs[80];
  if (tr)
    std::snprintf(targs, sizeof(targs),
                  "{\"origin\":%d,\"ttl\":%d,\"bytes\":%zu}", msg.origin, ttl,
                  wire_size);
  obs::ScopedSpan span(tr, obs::kTidChannel,
                       kFloodSpanNames[static_cast<std::size_t>(msg.type)],
                       tr ? std::string(targs) : std::string());

  // The always-on round-trip invariant: what receivers decode from the wire
  // must be exactly what the sender marshalled. Deliveries below hand out
  // the decoded copy, never the caller's struct, and the digest computed
  // here is the one folded for the flood and for every delivery.
  Message fresh;
  const bool check = decoded == nullptr;
  if (check) {
    fresh = wire::decode(bytes->data(), wire_size);
    decoded = &fresh;
  }
  const std::uint64_t digest = message_digest(*decoded);
  if (check)
    MHCA_ASSERT(digest == message_digest(msg),
                "wire round-trip changed the message (encode/decode drift)");

  ++stats_.floods;
  record_flood(digest, ttl, *bytes);

  if (!faults_.any()) {
    reach_in_id_order(msg.origin, ttl);
    bill(msg.type, wire_size, static_cast<std::int64_t>(reach_buf_.size()));
    for (int v : reach_buf_) {
      if (v == msg.origin) continue;
      record_delivery(v, digest);
      deliver(v, *decoded);
    }
    return;
  }

  // Faulty BFS: a vertex that fails reception neither delivers nor
  // forwards; a vertex whose delivery is deferred still forwards (the delay
  // models a slow receive path, not a broken relay). Fault draws and
  // deliveries run in discovery order, every transmitter counts once.
  std::int64_t transmitters = 0;
  std::vector<Pending> same_flood;
  scratch_.walk(
      topology_, {&msg.origin, 1}, ttl,
      [&](int u, int) {
        if (faults_.drop_prob > 0.0 &&
            fault_draw(u, kSaltDrop) < faults_.drop_prob) {
          ++stats_.drops;
          return false;
        }
        deliver_copies(u, *decoded, digest, bytes, deliver, same_flood);
        return true;
      },
      [&](int, int) {
        ++transmitters;  // this vertex retransmits the flood once
        return false;
      });
  bill(msg.type, wire_size, transmitters);

  if (!same_flood.empty()) {
    std::sort(same_flood.begin(), same_flood.end(),
              [](const Pending& a, const Pending& b) {
                if (a.shuffle_key != b.shuffle_key)
                  return a.shuffle_key < b.shuffle_key;
                return a.to < b.to;
              });
    // Reordered copies of this flood carry its own bytes: they land as the
    // same decoded message.
    for (const Pending& p : same_flood) {
      record_delivery(p.to, digest);
      deliver(p.to, *decoded);
    }
  }
}

void ControlChannel::reach_in_id_order(int origin, int ttl) {
  // Breadth-first, one hop level at a time, with reach_bits_ as the
  // visited set; the words between the lowest and highest touched one then
  // hold the reach, which reads out ascending (and leaves them zeroed).
  const auto mark = [this](int v) {
    const auto w = static_cast<std::size_t>(v) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if (reach_bits_[w] & bit) return false;
    reach_bits_[w] |= bit;
    return true;
  };
  reach_buf_.clear();
  reach_buf_.push_back(origin);
  mark(origin);
  int lo = origin, hi = origin;
  std::size_t level_begin = 0;
  for (int depth = 0; depth < ttl && level_begin < reach_buf_.size();
       ++depth) {
    const std::size_t level_end = reach_buf_.size();
    for (std::size_t i = level_begin; i < level_end; ++i)
      for (int u : topology_.neighbors(reach_buf_[i]))
        if (mark(u)) {
          reach_buf_.push_back(u);
          lo = std::min(lo, u);
          hi = std::max(hi, u);
        }
    level_begin = level_end;
  }
  std::size_t k = 0;
  for (auto w = static_cast<std::size_t>(lo) >> 6;
       w <= static_cast<std::size_t>(hi) >> 6; ++w) {
    for (std::uint64_t bits = reach_bits_[w]; bits != 0; bits &= bits - 1)
      reach_buf_[k++] = static_cast<int>(w * 64) + std::countr_zero(bits);
    reach_bits_[w] = 0;
  }
}

void ControlChannel::begin_slot(
    std::int64_t round,
    const std::function<void(int, const Message&)>& dispatch) {
  round_ = round;
  if (pending_.empty()) return;
  std::vector<Pending> due;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].due_round <= round)
      due.push_back(std::move(pending_[i]));
    else
      pending_[kept++] = std::move(pending_[i]);
  }
  pending_.resize(kept);
  std::sort(due.begin(), due.end(), [](const Pending& a, const Pending& b) {
    if (a.shuffle_key != b.shuffle_key) return a.shuffle_key < b.shuffle_key;
    return a.to < b.to;
  });
  for (const Pending& p : due) {
    // Stragglers decode when they finally land — the queue held datagrams.
    const Message m = wire::decode(p.bytes->data(), p.bytes->size());
    record_delivery(p.to, message_digest(m));
    dispatch(p.to, m);
  }
}

}  // namespace mhca::net
