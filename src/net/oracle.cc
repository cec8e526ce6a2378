#include "net/oracle.h"

#include <algorithm>

#include "graph/hop.h"
#include "mwis/distributed_ptas.h"
#include "util/assert.h"

namespace mhca::net {

ConvergenceReport check_convergence(const DistributedRuntime& rt,
                                    const Graph& h) {
  MHCA_ASSERT(rt.config().membership == MembershipMode::kViewSync,
              "convergence is a view-sync notion (omniscient tables are "
              "correct by construction)");
  ConvergenceReport rep;
  const int horizon = 2 * rt.config().r + 1;
  BfsScratch scratch(h.size());
  std::vector<int> ball;
  auto sorted_neighbors = [&](int v) {
    const auto nb = h.neighbors(v);
    std::vector<int> out(nb.begin(), nb.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  // Views can only equalize where messages can flow: compare per connected
  // component of the current wire (a churn split legitimately leaves each
  // island on its own epoch; leavers shed their edges, so inactive vertices
  // are isolated and never join a component).
  std::vector<char> visited(static_cast<std::size_t>(h.size()), 0);
  std::vector<int> queue;
  for (int s = 0; s < h.size(); ++s) {
    if (visited[static_cast<std::size_t>(s)] || !rt.agent(s).active())
      continue;
    const ViewId ref = rt.agent(s).view();
    queue.assign(1, s);
    visited[static_cast<std::size_t>(s)] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int x = queue[head];
      if (!(rt.agent(x).view() == ref)) rep.views_equal = false;
      for (int u : h.neighbors(x)) {
        if (visited[static_cast<std::size_t>(u)] || !rt.agent(u).active())
          continue;
        visited[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  for (int v = 0; v < h.size(); ++v) {
    const VertexAgent& a = rt.agent(v);
    if (!a.active()) continue;
    if (a.has_suspects()) rep.no_suspects = false;
    scratch.k_hop_neighborhood(h, v, horizon, ball);
    std::sort(ball.begin(), ball.end());
    if (ball != a.members()) {
      rep.members_match = false;
      continue;  // per-member checks are meaningless against a wrong set
    }
    const std::vector<int>& in_flight = rt.prev_strategy();
    for (int m : ball) {
      if (m == v) continue;
      // Last-round winners refreshed their own stats at TX; the update
      // reaches the ball in the WB phase that opens the next round, before
      // any decision reads a table. That one-round lag is the protocol's
      // pipeline, not divergence — exempt exactly those members.
      const bool wb_pending = std::find(in_flight.begin(), in_flight.end(),
                                        m) != in_flight.end();
      const auto [mean, count] = a.member_stats(m);
      if (!wb_pending && (mean != rt.agent(m).own_mean() ||
                          count != rt.agent(m).own_count()))
        rep.stats_match = false;
      const std::vector<int>* believed = a.member_neighbors(m);
      if (believed == nullptr) {
        rep.adjacency_match = false;
        continue;
      }
      std::vector<int> got = *believed;
      std::sort(got.begin(), got.end());
      if (got != sorted_neighbors(m)) rep.adjacency_match = false;
    }
  }
  if (rt.channel().pending_deliveries() != 0) rep.no_pending = false;
  return rep;
}

std::vector<int> lockstep_decision(const DistributedRuntime& rt,
                                   const Graph& h, std::int64_t t_next) {
  const NetConfig& cfg = rt.config();
  DistributedPtasConfig ecfg;
  ecfg.r = cfg.r;
  ecfg.max_mini_rounds = cfg.D;
  ecfg.local_solver = cfg.local_solver;
  ecfg.bnb_node_cap = cfg.bnb_node_cap;
  DistributedRobustPtas engine(h, ecfg);
  const int k_arms = h.size();
  std::vector<double> weights(static_cast<std::size_t>(h.size()), 0.0);
  std::vector<char> active(static_cast<std::size_t>(h.size()), 0);
  for (int v = 0; v < h.size(); ++v) {
    const VertexAgent& a = rt.agent(v);
    active[static_cast<std::size_t>(v)] = a.active() ? 1 : 0;
    weights[static_cast<std::size_t>(v)] =
        rt.policy().index_from(a.own_mean(), a.own_count(), v, t_next, k_arms);
  }
  return engine.run(weights, active).winners;
}

}  // namespace mhca::net
