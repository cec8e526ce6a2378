#include "reference/hop_distance.h"

#include <queue>

#include "util/assert.h"

namespace mhca::reference {

std::vector<int> hop_distances(const Graph& g, std::span<const int> sources) {
  std::vector<int> dist(static_cast<std::size_t>(g.size()), -1);
  std::queue<int> q;
  for (int s : sources) {
    MHCA_ASSERT(s >= 0 && s < g.size(), "vertex out of range");
    if (dist[static_cast<std::size_t>(s)] == 0) continue;
    dist[static_cast<std::size_t>(s)] = 0;
    q.push(s);
  }
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] >= 0) continue;
      dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
      q.push(u);
    }
  }
  return dist;
}

int hop_distance(const Graph& g, int u, int v, int cap) {
  MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
  const int d = hop_distances(g, {&u, 1})[static_cast<std::size_t>(v)];
  return d < 0 || d > cap ? kUnreachable : d;
}

}  // namespace mhca::reference
