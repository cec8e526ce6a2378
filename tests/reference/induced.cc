#include "reference/induced.h"

#include <algorithm>
#include <unordered_map>

#include "util/assert.h"

namespace mhca::reference {

InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const int> vertices) {
  InducedSubgraph sub;
  sub.to_parent.assign(vertices.begin(), vertices.end());
  std::sort(sub.to_parent.begin(), sub.to_parent.end());
  MHCA_ASSERT(std::adjacent_find(sub.to_parent.begin(), sub.to_parent.end()) ==
                  sub.to_parent.end(),
              "duplicate vertices in induced subgraph");
  sub.graph = Graph(static_cast<int>(sub.to_parent.size()));
  std::unordered_map<int, int> local;
  local.reserve(sub.to_parent.size() * 2);
  for (std::size_t i = 0; i < sub.to_parent.size(); ++i)
    local.emplace(sub.to_parent[i], static_cast<int>(i));
  for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
    const int v = sub.to_parent[i];
    MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
    for (int u : g.neighbors(v)) {
      auto it = local.find(u);
      if (it != local.end() && it->second > static_cast<int>(i))
        sub.graph.add_edge(static_cast<int>(i), it->second);
    }
  }
  sub.graph.finalize();
  return sub;
}

}  // namespace mhca::reference
