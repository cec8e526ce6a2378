// Tests for src/net/transport.h: the sharded runtime over all three
// transport backends. The property under test is the tentpole guarantee —
// a scenario run as N cooperating shards (every shard hosting all agents,
// each originating only its owned vertices' floods) produces decisions,
// channel bills and trace hashes IDENTICAL to the classic single-process
// run, clean or faulty, whatever the MTU.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "net/runtime.h"
#include "net/transport.h"
#include "util/rng.h"

namespace mhca {
namespace {

using net::DistributedRuntime;
using net::FloodFrame;
using net::LoopbackTransport;
using net::MemoryMeshGroup;
using net::Message;
using net::MsgType;
using net::NetConfig;
using net::Transport;
using net::UdpOptions;
using net::UdpTransport;

TEST(SortFrames, CanonicalOrderIsOriginThenSeq) {
  std::vector<FloodFrame> frames;
  frames.push_back({.origin = 3, .seq = 0});
  frames.push_back({.origin = 1, .seq = 1});
  frames.push_back({.origin = 1, .seq = 0});
  frames.push_back({.origin = 0, .seq = 5});
  net::sort_frames(frames);
  EXPECT_EQ(frames[0].origin, 0);
  EXPECT_EQ(frames[1].origin, 1);
  EXPECT_EQ(frames[1].seq, 0);
  EXPECT_EQ(frames[2].seq, 1);
  EXPECT_EQ(frames[3].origin, 3);
}

TEST(LoopbackTransportTest, ReturnsOwnFramesSorted) {
  LoopbackTransport t;
  std::vector<FloodFrame> frames;
  frames.push_back({.origin = 2, .seq = 0, .ttl = 3, .bytes = {1, 2}});
  frames.push_back({.origin = 0, .seq = 0, .ttl = 3, .bytes = {3}});
  const auto out = t.exchange(std::move(frames));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].origin, 0);
  EXPECT_EQ(out[1].origin, 2);
  EXPECT_EQ(t.stats().exchanges, 1);
  EXPECT_EQ(t.stats().frames_sent, 2);
}

/// What one run leaves behind, compared field by field across shards and
/// against the classic single-process run.
struct RunLog {
  std::vector<std::vector<int>> strategies;  ///< Winner set per round.
  std::uint64_t trace_hash = 0;
  std::int64_t messages = 0;
  std::int64_t bytes_on_wire = 0;
  std::int64_t fragments = 0;
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
};

/// Build the (deterministic, seed-derived) world and drive `rounds` rounds
/// — classic when `transport` is null, sharded otherwise. Each caller (and
/// each shard thread) builds its own graph/model from the same seed, like
/// real shard processes parsing the same scenario file would.
RunLog drive(Transport* transport, const NetConfig& cfg, int rounds,
             std::uint64_t seed) {
  Rng rng(seed);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  GaussianChannelModel model(10, m_channels, rng);
  RunLog log;
  auto run = [&](DistributedRuntime& rt) {
    for (int t = 0; t < rounds; ++t)
      log.strategies.push_back(rt.step().strategy);
    log.trace_hash = rt.channel().trace_hash();
    const net::ChannelStats& cs = rt.channel_stats();
    log.messages = cs.messages;
    log.bytes_on_wire = cs.bytes_on_wire;
    log.fragments = cs.fragments;
    log.drops = cs.drops;
    log.duplicates = cs.duplicates;
  };
  if (transport != nullptr) {
    DistributedRuntime rt(ecg, model, cfg, *transport);
    run(rt);
  } else {
    DistributedRuntime rt(ecg, model, cfg);
    run(rt);
  }
  return log;
}

void expect_same_run(const RunLog& a, const RunLog& b, const char* what) {
  ASSERT_EQ(a.strategies, b.strategies) << what;
  EXPECT_EQ(a.trace_hash, b.trace_hash) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire) << what;
  EXPECT_EQ(a.fragments, b.fragments) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
  EXPECT_EQ(a.duplicates, b.duplicates) << what;
}

/// Run every endpoint of a MemoryMeshGroup in its own thread and require
/// all shards to agree with the classic run bit for bit.
void mesh_matches_classic(int shards, const NetConfig& cfg, int rounds,
                          std::uint64_t seed) {
  const RunLog classic = drive(nullptr, cfg, rounds, seed);
  MemoryMeshGroup mesh(shards);
  std::vector<RunLog> logs(static_cast<std::size_t>(shards));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k)
    threads.emplace_back([&, k] {
      logs[static_cast<std::size_t>(k)] =
          drive(&mesh.endpoint(k), cfg, rounds, seed);
    });
  for (auto& th : threads) th.join();
  for (int k = 0; k < shards; ++k)
    expect_same_run(logs[static_cast<std::size_t>(k)], classic,
                    ("shard " + std::to_string(k) + "/" +
                     std::to_string(shards))
                        .c_str());
}

TEST(MemoryMesh, TwoShardsMatchClassicClean) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.D = 4;
  mesh_matches_classic(2, cfg, 12, 0x5EED01);
}

TEST(MemoryMesh, ThreeShardsMatchClassicUnderDropAndDupFaults) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.D = 4;
  cfg.faults.drop_prob = 0.12;
  cfg.faults.dup_prob = 0.08;
  cfg.faults.seed = 0xFA17;
  mesh_matches_classic(3, cfg, 12, 0x5EED02);
}

TEST(MemoryMesh, TinyMtuStillMatchesAndBillsMoreFragments) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.mtu = net::wire::kMinMtu;  // hellos fragment at 128 bytes
  const RunLog classic = drive(nullptr, cfg, 8, 0x5EED03);
  EXPECT_GT(classic.fragments, classic.messages)
      << "a 128-byte MTU must split some floods into several datagrams";
  MemoryMeshGroup mesh(2);
  std::vector<RunLog> logs(2);
  std::thread t0([&] { logs[0] = drive(&mesh.endpoint(0), cfg, 8, 0x5EED03); });
  logs[1] = drive(&mesh.endpoint(1), cfg, 8, 0x5EED03);
  t0.join();
  expect_same_run(logs[0], classic, "shard 0 (tiny mtu)");
  expect_same_run(logs[1], classic, "shard 1 (tiny mtu)");
}

TEST(MemoryMesh, LoopbackSingleShardMatchesClassic) {
  NetConfig cfg;
  LoopbackTransport loopback;
  const RunLog classic = drive(nullptr, cfg, 10, 0x5EED04);
  const RunLog sharded = drive(&loopback, cfg, 10, 0x5EED04);
  expect_same_run(sharded, classic, "loopback");
}

TEST(UdpTransportTest, BindConflictFailsWithActionableError) {
  UdpOptions opts;
  opts.port_base =
      40000 + static_cast<int>(::getpid() % 9000);  // dodge parallel tests
  UdpTransport first(0, 1, opts);
  try {
    UdpTransport second(0, 1, opts);  // same port: must fail loudly
    FAIL() << "second bind on the same port succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bind"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(opts.port_base)), std::string::npos);
  }
}

TEST(UdpTransportTest, TwoShardsOverRealSocketsMatchClassic) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.D = 4;
  cfg.faults.dup_prob = 0.05;  // exercise the fault plane over the real wire too
  cfg.faults.seed = 7;
  const RunLog classic = drive(nullptr, cfg, 10, 0x5EED05);

  UdpOptions opts;
  opts.port_base = 40000 + static_cast<int>((::getpid() * 2 + 101) % 19000);
  std::vector<RunLog> logs(2);
  std::thread t0([&] {
    UdpTransport udp(0, 2, opts);
    logs[0] = drive(&udp, cfg, 10, 0x5EED05);
    udp.finish();
  });
  {
    UdpTransport udp(1, 2, opts);
    logs[1] = drive(&udp, cfg, 10, 0x5EED05);
    udp.finish();
  }
  t0.join();
  expect_same_run(logs[0], classic, "udp shard 0");
  expect_same_run(logs[1], classic, "udp shard 1");
}

TEST(UdpTransportTest, SmallMtuFragmentsAndReassembles) {
  NetConfig cfg;
  cfg.mtu = net::wire::kMinMtu;  // every hello crosses several datagrams
  const RunLog classic = drive(nullptr, cfg, 6, 0x5EED06);
  UdpOptions opts;
  opts.port_base = 40000 + static_cast<int>((::getpid() * 3 + 211) % 19000);
  opts.mtu = cfg.mtu;
  std::vector<RunLog> logs(2);
  std::thread t0([&] {
    UdpTransport udp(0, 2, opts);
    logs[0] = drive(&udp, cfg, 6, 0x5EED06);
    udp.finish();
  });
  {
    UdpTransport udp(1, 2, opts);
    logs[1] = drive(&udp, cfg, 6, 0x5EED06);
    udp.finish();
  }
  t0.join();
  expect_same_run(logs[0], classic, "udp shard 0 (mtu 128)");
  expect_same_run(logs[1], classic, "udp shard 1 (mtu 128)");
  EXPECT_GT(classic.fragments, classic.messages)
      << "a 128-byte MTU must split some floods into several datagrams";
}

TEST(ShardedRuntime, RejectsViewSyncMembership) {
  Rng rng(1);
  ConflictGraph cg = random_geometric_avg_degree(6, 2.5, rng);
  ExtendedConflictGraph ecg(cg, 2);
  GaussianChannelModel model(6, 2, rng);
  NetConfig cfg;
  cfg.membership = net::MembershipMode::kViewSync;
  LoopbackTransport loopback;
  EXPECT_THROW(DistributedRuntime(ecg, model, cfg, loopback),
               std::logic_error);  // MHCA_ASSERT
}

}  // namespace
}  // namespace mhca
