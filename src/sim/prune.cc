#include "sim/prune.h"

#include <algorithm>

namespace mhca {

void prune_carried_strategy(const Graph& h, std::span<const char> active,
                            std::span<const double> weights,
                            std::vector<int>& strategy, double& estimated_sum) {
  if (strategy.empty()) return;
  std::vector<char> kept_mark(static_cast<std::size_t>(h.size()), 0);
  std::size_t kept = 0;
  for (const int v : strategy) {
    const auto vi = static_cast<std::size_t>(v);
    const auto nbrs = h.neighbors(v);
    const bool ok = (active.empty() || active[vi] != 0) &&
                    std::none_of(nbrs.begin(), nbrs.end(), [&](int u) {
                      return kept_mark[static_cast<std::size_t>(u)] != 0;
                    });
    if (ok) {
      kept_mark[vi] = 1;
      strategy[kept++] = v;
    } else {
      estimated_sum -= weights[vi];
    }
  }
  strategy.resize(kept);
}

}  // namespace mhca
