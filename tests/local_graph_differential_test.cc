// Differential tests of the one-pass local-graph build.
//
// An agent builds the subgraph over its (2r+1)-hop members from the
// neighbor lists they advertised. The reference below is the per-edge
// build it replaced: one Graph::add_edge per advertised neighbor that is a
// member, then finalize(). Graph::from_claims and the agent's build must
// produce the identical CSR rows on every input, in particular on asymmetric lists (stale view-sync
// knowledge: u lists v but v no longer lists u), lists naming non-members,
// duplicates, empty lists and a member set holding only the agent itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "net/agent.h"
#include "net/message.h"
#include "util/rng.h"

namespace mhca {
namespace {

using net::MembershipMode;
using net::Message;
using net::MsgType;
using net::VertexAgent;

/// The per-edge oracle: members sorted, rows[i] the list members[i]
/// advertised (global ids, any order).
Graph per_edge_local_graph(const std::vector<int>& members,
                           const std::vector<std::vector<int>>& rows) {
  Graph g(static_cast<int>(members.size()));
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (int u : rows[i]) {
      const auto it = std::lower_bound(members.begin(), members.end(), u);
      if (it != members.end() && *it == u)
        g.add_edge(static_cast<int>(i),
                   static_cast<int>(it - members.begin()));
    }
  }
  g.finalize();
  return g;
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(a.finalized());
  ASSERT_TRUE(b.finalized());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (int v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "row " << v;
  }
}

/// Random claims over local ids 0..n-1: unsorted, with duplicates, and
/// deliberately asymmetric (each claim is one-sided).
std::vector<std::vector<int>> random_claims(Rng& rng, int n, double p) {
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      if (u == v || !rng.bernoulli(p)) continue;
      rows[static_cast<std::size_t>(v)].push_back(u);
      if (rng.bernoulli(0.1))  // a repeated claim
        rows[static_cast<std::size_t>(v)].push_back(u);
    }
    std::shuffle(rows[static_cast<std::size_t>(v)].begin(),
                 rows[static_cast<std::size_t>(v)].end(), rng.engine());
  }
  return rows;
}

Graph from_rows(int n, const std::vector<std::vector<int>>& rows) {
  std::vector<std::int64_t> offsets{0};
  std::vector<int> claims;
  for (const auto& row : rows) {
    claims.insert(claims.end(), row.begin(), row.end());
    offsets.push_back(static_cast<std::int64_t>(claims.size()));
  }
  return Graph::from_claims(n, offsets, claims);
}

std::vector<int> iota_members(int n) {
  std::vector<int> m(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) m[static_cast<std::size_t>(i)] = i;
  return m;
}

TEST(FromClaims, MatchesPerEdgeBuildOnRandomAsymmetricClaims) {
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
    const int n = rng.uniform_int(0, 48);
    const double p = rng.uniform(0.0, 0.4);
    const auto rows = random_claims(rng, n, p);
    expect_same_graph(from_rows(n, rows),
                      per_edge_local_graph(iota_members(n), rows));
  }
}

TEST(FromClaims, MatchesPerEdgeBuildOnALargeGraph) {
  // 8,492 vertices: both builds must emit the same rows across a wide id
  // range.
  const int n = 8192 + 300;
  Rng rng(0x5ba45e);
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < 3; ++k) {
      const int u = rng.uniform_int(0, n - 1);
      if (u != v) rows[static_cast<std::size_t>(v)].push_back(u);
    }
  }
  expect_same_graph(from_rows(n, rows),
                    per_edge_local_graph(iota_members(n), rows));
}

TEST(FromClaims, EmptyRowsAndEmptyGraph) {
  expect_same_graph(from_rows(0, {}), per_edge_local_graph({}, {}));
  const std::vector<std::vector<int>> empty(5);
  const Graph g = from_rows(5, empty);
  expect_same_graph(g, per_edge_local_graph(iota_members(5), empty));
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(FromClaims, RejectsSelfClaimsAndOutOfRangeIds) {
  EXPECT_THROW(from_rows(3, {{1}, {1}, {}}), std::logic_error);
  EXPECT_THROW(from_rows(3, {{3}, {}, {}}), std::logic_error);
  EXPECT_THROW(from_rows(3, {{-1}, {}, {}}), std::logic_error);
  const std::vector<std::int64_t> short_offsets{0, 0};
  EXPECT_THROW(Graph::from_claims(3, short_offsets, {}), std::logic_error);
}

// ------------------------------------------------ through the agent's build

/// One hand-fed discovery: `others` are the members besides the agent,
/// `lists[i]` what others[i] advertised, `own` the agent's own neighbors.
struct World {
  int id = 0;
  std::vector<int> others;
  std::vector<std::vector<int>> lists;
  std::vector<int> own;
};

/// A random member set over global ids 0..199 with asymmetric lists: each
/// list is a sorted sample of ids (members and non-members alike), and
/// with probability 1/4 an unsorted one.
World random_world(Rng& rng) {
  World w;
  w.id = rng.uniform_int(0, 199);
  for (int v = 0; v < 200; ++v)
    if (v != w.id && rng.bernoulli(0.15)) w.others.push_back(v);
  auto random_list = [&](int self) {
    std::vector<int> list;
    for (int v = 0; v < 200; ++v)
      if (v != self && rng.bernoulli(0.06)) list.push_back(v);
    if (rng.bernoulli(0.25))
      std::shuffle(list.begin(), list.end(), rng.engine());
    return list;
  };
  for (int m : w.others) w.lists.push_back(random_list(m));
  w.own = random_list(w.id);
  return w;
}

Message hello_of(int origin, const std::vector<int>& list) {
  Message h;
  h.type = MsgType::kHello;
  h.origin = origin;
  h.neighbor_list = list;
  return h;
}

VertexAgent discover(const World& w, MembershipMode mode) {
  VertexAgent a(w.id, 1, mode);
  a.set_own_neighbors(w.own);
  for (std::size_t i = 0; i < w.others.size(); ++i) {
    const Message h = hello_of(w.others[i], w.lists[i]);
    if (mode == MembershipMode::kViewSync)
      a.on_membership_message(h, 0);
    else
      a.on_hello(h);
  }
  a.finalize_discovery();
  return a;
}

void expect_agent_matches_oracle(const World& w, MembershipMode mode) {
  const VertexAgent a = discover(w, mode);
  std::vector<int> members = w.others;
  std::vector<std::vector<int>> rows = w.lists;
  const auto at = std::lower_bound(members.begin(), members.end(), w.id);
  rows.insert(rows.begin() + (at - members.begin()), w.own);
  members.insert(at, w.id);
  ASSERT_EQ(a.members(), members);
  EXPECT_EQ(a.table_size(), w.others.size());
  expect_same_graph(a.local_graph(), per_edge_local_graph(members, rows));
}

TEST(AgentLocalGraph, MatchesPerEdgeBuildOmniscient) {
  for (int seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 3);
    expect_agent_matches_oracle(random_world(rng),
                                MembershipMode::kOmniscient);
  }
}

TEST(AgentLocalGraph, MatchesPerEdgeBuildViewSync) {
  for (int seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 7);
    expect_agent_matches_oracle(random_world(rng), MembershipMode::kViewSync);
  }
}

TEST(AgentLocalGraph, SelfOnlyMember) {
  for (const MembershipMode mode :
       {MembershipMode::kOmniscient, MembershipMode::kViewSync}) {
    World w;
    w.id = 7;
    w.own = {3, 9, 12};  // direct neighbors this agent never heard from
    expect_agent_matches_oracle(w, mode);
    const VertexAgent a = discover(w, mode);
    EXPECT_EQ(a.local_graph().size(), 1);
    EXPECT_EQ(a.table_size(), 0u);
  }
}

TEST(AgentLocalGraph, EmptyListsAndOneSidedEdges) {
  for (const MembershipMode mode :
       {MembershipMode::kOmniscient, MembershipMode::kViewSync}) {
    World w;
    w.id = 5;
    w.others = {1, 2, 8, 9};
    // 1 claims 5 (5 does not claim 1), 8 and 9 advertise nothing, 2 claims
    // a non-member; 5 claims 9 (9 does not claim 5).
    w.lists = {{5}, {40}, {}, {}};
    w.own = {9};
    expect_agent_matches_oracle(w, mode);
    const VertexAgent a = discover(w, mode);
    EXPECT_EQ(a.local_graph().num_edges(), 2);
  }
}

}  // namespace
}  // namespace mhca
