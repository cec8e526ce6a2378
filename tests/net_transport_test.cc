// Tests for src/net/transport.h: the sharded runtime over all three
// transport backends. The property under test is the tentpole guarantee —
// a scenario run as N cooperating shards (every shard hosting all agents,
// each originating only its owned vertices' floods) produces decisions,
// channel bills and trace hashes IDENTICAL to the single-process run,
// clean or faulty, whatever the MTU.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
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
/// against the single-process run.
struct RunLog {
  std::vector<std::vector<int>> strategies;  ///< Winner set per round.
  std::uint64_t trace_hash = 0;
  std::int64_t floods = 0;
  std::int64_t messages = 0;
  std::int64_t bytes_on_wire = 0;
  std::int64_t fragments = 0;
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
};

/// Build the (deterministic, seed-derived) world and drive `rounds` rounds
/// — over `transport...` when one is passed, else over the runtime's own
/// loopback (the single-process run). Each caller (and each shard thread)
/// builds its own graph/model from the same seed, like real shard
/// processes parsing the same scenario file would.
template <typename... Shard>
RunLog drive(const NetConfig& cfg, int rounds, std::uint64_t seed,
             Shard&... transport) {
  static_assert(sizeof...(Shard) <= 1);
  Rng rng(seed);
  ConflictGraph cg = random_geometric_avg_degree(10, 3.5, rng);
  const int m_channels = 3;
  ExtendedConflictGraph ecg(cg, m_channels);
  GaussianChannelModel model(10, m_channels, rng);
  DistributedRuntime rt(ecg, model, cfg, transport...);
  RunLog log;
  for (int t = 0; t < rounds; ++t)
    log.strategies.push_back(rt.step().strategy);
  log.trace_hash = rt.channel().trace_hash();
  const net::ChannelStats& cs = rt.channel_stats();
  log.floods = cs.floods;
  log.messages = cs.messages;
  log.bytes_on_wire = cs.bytes_on_wire;
  log.fragments = cs.fragments;
  log.drops = cs.drops;
  log.duplicates = cs.duplicates;
  return log;
}

void expect_same_run(const RunLog& a, const RunLog& b, const char* what) {
  ASSERT_EQ(a.strategies, b.strategies) << what;
  EXPECT_EQ(a.trace_hash, b.trace_hash) << what;
  EXPECT_EQ(a.floods, b.floods) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire) << what;
  EXPECT_EQ(a.fragments, b.fragments) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
  EXPECT_EQ(a.duplicates, b.duplicates) << what;
}

/// Run every endpoint of a MemoryMeshGroup in its own thread and require
/// all shards to agree with the single-process run bit for bit.
void mesh_matches_single(int shards, const NetConfig& cfg, int rounds,
                         std::uint64_t seed) {
  const RunLog single = drive(cfg, rounds, seed);
  MemoryMeshGroup mesh(shards);
  std::vector<RunLog> logs(static_cast<std::size_t>(shards));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k)
    threads.emplace_back([&, k] {
      logs[static_cast<std::size_t>(k)] =
          drive(cfg, rounds, seed, mesh.endpoint(k));
    });
  for (auto& th : threads) th.join();
  for (int k = 0; k < shards; ++k)
    expect_same_run(logs[static_cast<std::size_t>(k)], single,
                    ("shard " + std::to_string(k) + "/" +
                     std::to_string(shards))
                        .c_str());
}

TEST(MemoryMesh, TwoShardsMatchClassicClean) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.D = 4;
  mesh_matches_single(2, cfg, 12, 0x5EED01);
}

TEST(MemoryMesh, ThreeShardsMatchClassicUnderDropAndDupFaults) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.D = 4;
  cfg.faults.drop_prob = 0.12;
  cfg.faults.dup_prob = 0.08;
  cfg.faults.seed = 0xFA17;
  mesh_matches_single(3, cfg, 12, 0x5EED02);
}

TEST(MemoryMesh, TinyMtuStillMatchesAndBillsMoreFragments) {
  NetConfig cfg;
  cfg.r = 2;
  cfg.mtu = net::wire::kMinMtu;  // hellos fragment at 128 bytes
  const RunLog single = drive(cfg, 8, 0x5EED03);
  EXPECT_GT(single.fragments, single.messages)
      << "a 128-byte MTU must split some floods into several datagrams";
  MemoryMeshGroup mesh(2);
  std::vector<RunLog> logs(2);
  std::thread t0([&] { logs[0] = drive(cfg, 8, 0x5EED03, mesh.endpoint(0)); });
  logs[1] = drive(cfg, 8, 0x5EED03, mesh.endpoint(1));
  t0.join();
  expect_same_run(logs[0], single, "shard 0 (tiny mtu)");
  expect_same_run(logs[1], single, "shard 1 (tiny mtu)");
}

TEST(LoopbackTransportTest, EveryFloodOfAStaticOmniscientRunIsAFrame) {
  // Without churn or view-sync membership every flood is a protocol-phase
  // flood, and every protocol-phase flood travels the transport: the
  // loopback's frame count is the channel's flood count.
  NetConfig cfg;
  cfg.faults.drop_prob = 0.1;
  cfg.faults.seed = 3;
  LoopbackTransport loopback;
  const RunLog log = drive(cfg, 10, 0x5EED04, loopback);
  expect_same_run(log, drive(cfg, 10, 0x5EED04), "caller's loopback");
  EXPECT_GT(log.floods, 0);
  EXPECT_EQ(loopback.stats().frames_sent, log.floods);
  EXPECT_EQ(loopback.stats().frames_received, 0);
  EXPECT_GT(loopback.stats().exchanges, 10);
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
  const RunLog single = drive(cfg, 10, 0x5EED05);

  UdpOptions opts;
  opts.port_base = 40000 + static_cast<int>((::getpid() * 2 + 101) % 19000);
  std::vector<RunLog> logs(2);
  std::thread t0([&] {
    UdpTransport udp(0, 2, opts);
    logs[0] = drive(cfg, 10, 0x5EED05, udp);
    udp.finish();
  });
  {
    UdpTransport udp(1, 2, opts);
    logs[1] = drive(cfg, 10, 0x5EED05, udp);
    udp.finish();
  }
  t0.join();
  expect_same_run(logs[0], single, "udp shard 0");
  expect_same_run(logs[1], single, "udp shard 1");
}

TEST(UdpTransportTest, SmallMtuFragmentsAndReassembles) {
  NetConfig cfg;
  cfg.mtu = net::wire::kMinMtu;  // every hello crosses several datagrams
  const RunLog single = drive(cfg, 6, 0x5EED06);
  UdpOptions opts;
  opts.port_base = 40000 + static_cast<int>((::getpid() * 3 + 211) % 19000);
  opts.mtu = cfg.mtu;
  std::vector<RunLog> logs(2);
  std::thread t0([&] {
    UdpTransport udp(0, 2, opts);
    logs[0] = drive(cfg, 6, 0x5EED06, udp);
    udp.finish();
  });
  {
    UdpTransport udp(1, 2, opts);
    logs[1] = drive(cfg, 6, 0x5EED06, udp);
    udp.finish();
  }
  t0.join();
  expect_same_run(logs[0], single, "udp shard 0 (mtu 128)");
  expect_same_run(logs[1], single, "udp shard 1 (mtu 128)");
  EXPECT_GT(single.fragments, single.messages)
      << "a 128-byte MTU must split some floods into several datagrams";
}

TEST(UdpTransportTest, PortRangePastTheLastPortIsRejected) {
  // Shard 1 of 2 at port_base 65535 would need port 65536, which wraps to
  // port 0 — an ephemeral bind its peer can never reach.
  try {
    UdpTransport wrapped(1, 2, {.port_base = 65535});
    FAIL() << "a shard port past 65535 was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("65535..65536"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 65535]"), std::string::npos) << what;
  }
  EXPECT_THROW(UdpTransport(0, 1, {.port_base = 0}), std::logic_error);
}

/// A small world for the rejection tests below.
struct SmallWorld {
  Rng rng{1};
  ConflictGraph cg = random_geometric_avg_degree(6, 2.5, rng);
  ExtendedConflictGraph ecg{cg, 2};
  GaussianChannelModel model{6, 2, rng};
};

TEST(ShardedRuntime, RejectsViewSyncMembership) {
  SmallWorld w;
  NetConfig cfg;
  cfg.membership = net::MembershipMode::kViewSync;
  MemoryMeshGroup mesh(2);
  // Rejected before discovery reaches the exchange barrier, which the
  // absent second shard would never join.
  EXPECT_THROW(DistributedRuntime(w.ecg, w.model, cfg, mesh.endpoint(0)),
               std::logic_error);  // MHCA_ASSERT
}

TEST(ShardedRuntime, RejectsTopologyChange) {
  SmallWorld w;
  MemoryMeshGroup mesh(2);
  std::unique_ptr<DistributedRuntime> shard1;
  std::thread t1([&] {
    shard1 = std::make_unique<DistributedRuntime>(w.ecg, w.model, NetConfig{},
                                                  mesh.endpoint(1));
  });
  DistributedRuntime shard0(w.ecg, w.model, NetConfig{}, mesh.endpoint(0));
  t1.join();
  const std::vector<int> touched = {0};
  const std::vector<char> active(
      static_cast<std::size_t>(w.ecg.num_vertices()), 1);
  EXPECT_THROW(shard0.on_topology_change(touched, active),
               std::logic_error);  // MHCA_ASSERT
}

}  // namespace
}  // namespace mhca
