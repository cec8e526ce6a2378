// Determinism of parallel per-leader local solves: one decision's leaders
// have pairwise disjoint, non-adjacent r-balls (Theorem 3), so their solves
// are independent; the engine fans them across worker threads but applies
// results in election order. Any parallelism setting must therefore yield
// byte-identical winners, weights, message traces, and node counts.
#include <gtest/gtest.h>

#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "util/rng.h"

namespace mhca {
namespace {

void expect_identical(const DistributedPtasResult& a,
                      const DistributedPtasResult& b, int decision) {
  ASSERT_EQ(a.winners, b.winners) << "decision " << decision;
  EXPECT_EQ(a.weight, b.weight);  // bitwise: same summation order
  EXPECT_EQ(a.all_marked, b.all_marked);
  EXPECT_EQ(a.mini_rounds_used, b.mini_rounds_used);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_mini_timeslots, b.total_mini_timeslots);
  EXPECT_EQ(a.solver_nodes_explored, b.solver_nodes_explored);
  EXPECT_EQ(a.all_local_solves_exact, b.all_local_solves_exact);
  ASSERT_EQ(a.mini_rounds.size(), b.mini_rounds.size());
  for (std::size_t i = 0; i < a.mini_rounds.size(); ++i) {
    EXPECT_EQ(a.mini_rounds[i].leaders, b.mini_rounds[i].leaders);
    EXPECT_EQ(a.mini_rounds[i].new_winners, b.mini_rounds[i].new_winners);
    EXPECT_EQ(a.mini_rounds[i].new_losers, b.mini_rounds[i].new_losers);
    EXPECT_EQ(a.mini_rounds[i].messages, b.mini_rounds[i].messages);
  }
}

void run_determinism(int users, int r, std::int64_t node_cap) {
  Rng topo(static_cast<std::uint64_t>(users) * 7 + r);
  ConflictGraph cg = random_geometric_avg_degree(users, 6.0, topo);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();

  DistributedPtasConfig serial_cfg;
  serial_cfg.r = r;
  serial_cfg.count_messages = true;
  serial_cfg.local_solve_parallelism = 1;
  serial_cfg.bnb_node_cap = node_cap;
  DistributedPtasConfig wide_cfg = serial_cfg;
  wide_cfg.local_solve_parallelism = 8;

  DistributedRobustPtas serial(h, serial_cfg);
  DistributedRobustPtas wide(h, wide_cfg);

  Rng rng(static_cast<std::uint64_t>(users) * 31 + 5);
  for (int d = 0; d < 4; ++d) {
    std::vector<double> w(static_cast<std::size_t>(h.size()));
    for (auto& x : w) x = rng.uniform(0.05, 1.0);
    const auto a = serial.run(w);
    const auto b = wide.run(w);
    expect_identical(a, b, d);
  }
}

TEST(DecisionParallelDeterminism, Parallelism1And8Identical) {
  run_determinism(/*users=*/60, /*r=*/2, /*node_cap=*/2'000);
}

TEST(DecisionParallelDeterminism, IdenticalAtRadius3WithCapAborts) {
  // r = 3 produces multi-leader rounds with instances that hit the node
  // cap; the anytime incumbents must still be schedule-independent.
  run_determinism(/*users=*/60, /*r=*/3, /*node_cap=*/300);
}

TEST(DecisionParallelDeterminism, AutoParallelismMatchesSerial) {
  Rng topo(123);
  ConflictGraph cg = random_geometric_avg_degree(50, 6.0, topo);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  DistributedPtasConfig serial_cfg;
  serial_cfg.local_solve_parallelism = 1;
  DistributedPtasConfig auto_cfg;  // default 0 = hardware concurrency
  DistributedRobustPtas serial(h, serial_cfg);
  DistributedRobustPtas autop(h, auto_cfg);
  Rng rng(17);
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  const auto a = serial.run(w);
  const auto b = autop.run(w);
  expect_identical(a, b, 0);
}

}  // namespace
}  // namespace mhca
