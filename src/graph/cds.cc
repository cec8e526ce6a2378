#include "graph/cds.h"

#include <algorithm>

#include "graph/hop.h"
#include "util/assert.h"

namespace mhca {

bool is_dominating_set(const Graph& g, std::span<const int> ds) {
  std::vector<char> covered(static_cast<std::size_t>(g.size()), 0);
  for (int v : ds) {
    MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
    covered[static_cast<std::size_t>(v)] = 1;
    for (int u : g.neighbors(v)) covered[static_cast<std::size_t>(u)] = 1;
  }
  for (char c : covered)
    if (!c) return false;
  return true;
}

bool induces_connected_subgraph(const Graph& g, std::span<const int> vs) {
  if (vs.size() <= 1) return true;
  std::vector<char> member(static_cast<std::size_t>(g.size()), 0);
  for (int v : vs) member[static_cast<std::size_t>(v)] = 1;
  BfsScratch scratch(g.size());
  std::size_t reached = 0;
  scratch.walk(
      g, vs.first(1), BfsScratch::kUnbounded,
      [&](int u, int) { return member[static_cast<std::size_t>(u)] != 0; },
      [&](int, int) {
        ++reached;
        return false;
      });
  return reached == vs.size();
}

std::vector<int> greedy_mis(const Graph& g) {
  std::vector<char> blocked(static_cast<std::size_t>(g.size()), 0);
  std::vector<int> mis;
  for (int v = 0; v < g.size(); ++v) {
    if (blocked[static_cast<std::size_t>(v)]) continue;
    mis.push_back(v);
    blocked[static_cast<std::size_t>(v)] = 1;
    for (int u : g.neighbors(v)) blocked[static_cast<std::size_t>(u)] = 1;
  }
  return mis;
}

std::vector<int> simple_connected_dominating_set(const Graph& g) {
  MHCA_ASSERT(g.is_connected(), "CDS construction requires a connected graph");
  if (g.size() == 0) return {};
  const std::vector<int> mis = greedy_mis(g);

  // BFS tree from the first dominator.
  const int root = mis.front();
  std::vector<int> parent(static_cast<std::size_t>(g.size()), -1);
  BfsScratch scratch(g.size());
  scratch.walk(
      g, {&root, 1}, BfsScratch::kUnbounded,
      [&](int u, int from) {
        parent[static_cast<std::size_t>(u)] = from;
        return true;
      },
      [](int, int) { return false; });

  // Backbone = dominators + their parent chains into the backbone.
  std::vector<char> in_cds(static_cast<std::size_t>(g.size()), 0);
  in_cds[static_cast<std::size_t>(root)] = 1;
  for (int v : mis) {
    int x = v;
    while (x != -1 && !in_cds[static_cast<std::size_t>(x)]) {
      in_cds[static_cast<std::size_t>(x)] = 1;
      x = parent[static_cast<std::size_t>(x)];
    }
  }
  std::vector<int> cds;
  for (int v = 0; v < g.size(); ++v)
    if (in_cds[static_cast<std::size_t>(v)]) cds.push_back(v);
  return cds;
}

int pipelined_broadcast_timeslots(const Graph& g, std::span<const int> cds,
                                  int origin, int ttl) {
  MHCA_ASSERT(origin >= 0 && origin < g.size(), "origin out of range");
  MHCA_ASSERT(ttl >= 0, "negative ttl");
  // BFS where only CDS members (and the origin) relay; leaves may receive
  // but not forward. Returns the number of hops needed to cover everything
  // a plain ttl-flood covers, or ttl if equal.
  std::vector<char> relay(static_cast<std::size_t>(g.size()), 0);
  for (int v : cds) relay[static_cast<std::size_t>(v)] = 1;

  // Plain ttl ball: the coverage target.
  BfsScratch scratch(g.size());
  const std::vector<int> target = scratch.k_hop_neighborhood(g, origin, ttl);
  // Relay walk: every vertex is discovered, only the origin and the relays
  // expand.
  scratch.walk(
      g, {&origin, 1}, BfsScratch::kUnbounded,
      [&](int u, int) { return relay[static_cast<std::size_t>(u)] != 0; },
      [](int, int) { return false; });
  int slots = 0;
  for (int v : target) {
    MHCA_ASSERT(scratch.reached(v),
                "CDS-restricted flood failed to cover a target vertex");
    slots = std::max(slots, scratch.distance(v));
  }
  return slots;
}

}  // namespace mhca
