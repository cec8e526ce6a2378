#include "reference/coloring.h"

#include <algorithm>

#include "util/assert.h"

namespace mhca::reference {

std::vector<int> greedy_coloring(const Graph& g,
                                 std::span<const int> order) {
  MHCA_ASSERT(static_cast<int>(order.size()) == g.size(),
              "order must list every vertex exactly once");
  std::vector<int> color(static_cast<std::size_t>(g.size()), -1);
  std::vector<char> used;
  for (int v : order) {
    MHCA_ASSERT(v >= 0 && v < g.size(), "vertex out of range");
    MHCA_ASSERT(color[static_cast<std::size_t>(v)] == -1,
                "vertex repeated in order");
    used.assign(static_cast<std::size_t>(g.degree(v)) + 2, 0);
    for (int u : g.neighbors(v)) {
      const int cu = color[static_cast<std::size_t>(u)];
      if (cu >= 0 && cu < static_cast<int>(used.size()))
        used[static_cast<std::size_t>(cu)] = 1;
    }
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    color[static_cast<std::size_t>(v)] = c;
  }
  return color;
}

std::vector<int> welsh_powell_coloring(const Graph& g) {
  std::vector<int> order(static_cast<std::size_t>(g.size()));
  for (int v = 0; v < g.size(); ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return greedy_coloring(g, order);
}

int num_colors(const std::vector<int>& coloring) {
  int best = -1;
  for (int c : coloring) best = std::max(best, c);
  return best + 1;
}

bool is_proper_coloring(const Graph& g, std::span<const int> coloring) {
  if (static_cast<int>(coloring.size()) != g.size()) return false;
  for (int v = 0; v < g.size(); ++v)
    for (int u : g.neighbors(v))
      if (coloring[static_cast<std::size_t>(u)] ==
          coloring[static_cast<std::size_t>(v)])
        return false;
  return true;
}

}  // namespace mhca::reference
