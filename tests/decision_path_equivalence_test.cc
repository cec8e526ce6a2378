// Equivalence tests for the decision path: the engine (CSR graph,
// NeighborhoodCache election, scratch-reuse B&B) must produce
// byte-identical results to the seed re-derivation reference
// (tests/reference/seed_ptas.h) on every topology and configuration —
// mini-round budgets and node-cap aborts included — and the reusable
// structures must survive repeated use.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/neighborhood_cache.h"
#include "mwis/branch_and_bound.h"
#include "mwis/distributed_ptas.h"
#include "reference/classic_bnb.h"
#include "reference/seed_ptas.h"
#include "reference/unfinalized_copy.h"
#include "util/rng.h"

namespace mhca {
namespace {

std::vector<double> random_weights(int n, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  return w;
}

/// Run the engine and the reference over the same weight sequence — one
/// engine instance across all decisions, so incremental state carries
/// over — and demand identical winners, weights, and protocol traces.
/// `active_prob` < 1 draws a fresh activity mask per decision. Returns how
/// many decisions hit the node cap somewhere.
int expect_paths_identical(const Graph& h, DistributedPtasConfig cfg,
                           int decisions, std::uint64_t weight_seed,
                           double active_prob = 1.0) {
  cfg.count_messages = true;
  DistributedRobustPtas engine(h, cfg);
  reference::SeedPtas seed(h, cfg);
  EXPECT_TRUE(engine.neighborhood_cache().built());

  Rng rng(weight_seed);
  std::vector<char> active;
  int capped = 0;
  for (int d = 0; d < decisions; ++d) {
    SCOPED_TRACE("decision " + std::to_string(d));
    const auto w = random_weights(h.size(), rng);
    active.clear();
    if (active_prob < 1.0)
      for (int v = 0; v < h.size(); ++v)
        active.push_back(rng.bernoulli(active_prob) ? 1 : 0);
    const DistributedPtasResult a = engine.run(w, active);
    const DistributedPtasResult b = seed.run(w, active);
    EXPECT_EQ(a.winners, b.winners);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
    EXPECT_EQ(a.all_marked, b.all_marked);
    EXPECT_EQ(a.mini_rounds_used, b.mini_rounds_used);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.total_mini_timeslots, b.total_mini_timeslots);
    EXPECT_EQ(a.solver_nodes_explored, b.solver_nodes_explored);
    EXPECT_EQ(a.all_local_solves_exact, b.all_local_solves_exact);
    EXPECT_EQ(a.mini_rounds.size(), b.mini_rounds.size());
    for (std::size_t i = 0;
         i < std::min(a.mini_rounds.size(), b.mini_rounds.size()); ++i) {
      EXPECT_EQ(a.mini_rounds[i].leaders, b.mini_rounds[i].leaders);
      EXPECT_EQ(a.mini_rounds[i].new_winners, b.mini_rounds[i].new_winners);
      EXPECT_EQ(a.mini_rounds[i].new_losers, b.mini_rounds[i].new_losers);
      EXPECT_EQ(a.mini_rounds[i].candidates_remaining,
                b.mini_rounds[i].candidates_remaining);
      EXPECT_EQ(a.mini_rounds[i].cumulative_weight,
                b.mini_rounds[i].cumulative_weight);
      EXPECT_EQ(a.mini_rounds[i].messages, b.mini_rounds[i].messages);
    }
    // Weight-broadcast accounting agrees between cached and BFS sizes.
    EXPECT_EQ(engine.weight_broadcast_messages(a.winners),
              seed.weight_broadcast_messages(b.winners));
    if (!a.all_local_solves_exact) ++capped;
    if (::testing::Test::HasFailure()) break;  // one report per input
  }
  return capped;
}

DistributedPtasConfig with_r(int r) {
  DistributedPtasConfig cfg;
  cfg.r = r;
  return cfg;
}

TEST(DecisionPathEquivalence, RandomGeometricGraphs) {
  for (int r = 1; r <= 3; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) * 101 + 7);
    ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng);
    ExtendedConflictGraph ecg(cg, 4);
    expect_paths_identical(ecg.graph(), with_r(r), 3,
                           static_cast<std::uint64_t>(r) * 997 + 3);
  }
}

TEST(DecisionPathEquivalence, AdversarialGraphs) {
  // Complete graph: one giant clique — every ball is the whole graph.
  {
    ConflictGraph cg = complete_network(12);
    ExtendedConflictGraph ecg(cg, 3);
    expect_paths_identical(ecg.graph(), with_r(2), 2, 11);
  }
  // Dense Erdős–Rényi: decidedly non-geometric, non-growth-bounded.
  {
    Rng rng(21);
    ConflictGraph cg = erdos_renyi(30, 0.3, rng);
    ExtendedConflictGraph ecg(cg, 3);
    expect_paths_identical(ecg.graph(), with_r(2), 2, 23);
  }
  // Fig. 5 linear worst case: maximal mini-round count, one leader each.
  {
    ConflictGraph cg = linear_network(40);
    ExtendedConflictGraph ecg(cg, 2);
    expect_paths_identical(ecg.graph(), with_r(2), 2, 31);
  }
}

TEST(DecisionPathEquivalence, MiniRoundBudgetEarlyExit) {
  // A budget of D mini-rounds stops the decision with candidates left; the
  // engine then re-zeroes their SoA election keys. Every later decision on
  // the same engine reads those keys, so a missed reset shows up as a
  // wrong leader set in the next decision, not in this one. The linear
  // network guarantees leftovers (one leader per mini-round).
  for (const int budget : {1, 2}) {
    SCOPED_TRACE("max_mini_rounds " + std::to_string(budget));
    for (int r = 1; r <= 2; ++r) {
      DistributedPtasConfig cfg = with_r(r);
      cfg.max_mini_rounds = budget;
      Rng rng(static_cast<std::uint64_t>(budget) * 31 + r);
      ConflictGraph cg = random_geometric_avg_degree(
          60, 5.0, rng, /*force_connected=*/false);
      ExtendedConflictGraph ecg(cg, 3);
      expect_paths_identical(ecg.graph(), cfg, 6,
                             static_cast<std::uint64_t>(budget) * 577 + r,
                             /*active_prob=*/0.8);
    }
    ConflictGraph line = linear_network(30);
    ExtendedConflictGraph ecg(line, 2);
    DistributedPtasConfig cfg = with_r(1);
    cfg.max_mini_rounds = budget;
    expect_paths_identical(ecg.graph(), cfg, 4, 4242 + budget);
  }
}

TEST(DecisionPathEquivalence, NodeCapAborts) {
  // A node cap far below what the r = 3 first-mini-round balls need: local
  // solves abort with their anytime incumbents, which both paths must
  // reproduce exactly (same search, same cap, same abort point).
  DistributedPtasConfig cfg = with_r(3);
  cfg.bnb_node_cap = 40;
  Rng rng(3131);
  ConflictGraph cg = random_geometric_avg_degree(50, 7.0, rng,
                                                 /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 4);
  const int capped =
      expect_paths_identical(ecg.graph(), cfg, 4, 3132, /*active_prob=*/0.9);
  EXPECT_GT(capped, 0) << "no decision hit the node cap; the abort path "
                          "went untested";
}

TEST(DecisionPathEquivalence, RepeatedDecisionsWithActivityMasks) {
  // Dynamics: a fresh activity mask every decision on one engine, so the
  // lazily reset blocker chains and scan cursors see vertices flip between
  // active and inactive.
  for (int r = 1; r <= 2; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) * 71 + 5);
    ConflictGraph cg = random_geometric_avg_degree(
        80, 6.0, rng, /*force_connected=*/false);
    ExtendedConflictGraph ecg(cg, 3);
    expect_paths_identical(ecg.graph(), with_r(r), 8,
                           static_cast<std::uint64_t>(r) * 89 + 1,
                           /*active_prob=*/0.7);
  }
}

TEST(DecisionPathEquivalence, EqualWeightTies) {
  ConflictGraph cg = linear_network(15);
  ExtendedConflictGraph ecg(cg, 2);
  const Graph& h = ecg.graph();
  std::vector<double> w(static_cast<std::size_t>(h.size()), 0.5);
  DistributedRobustPtas cached(h, {});
  reference::SeedPtas seed(h, {});
  const auto a = cached.run(w);
  const auto b = seed.run(w);
  EXPECT_EQ(a.winners, b.winners);
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
}

TEST(DecisionPathEquivalence, PathologicalElectionWeights) {
  // The engine's election encodes weights as order-preserving 64-bit keys;
  // the reference compares raw doubles. Exercise the encoding's edge
  // cases — negative weights, signed zeros (-0.0 must tie +0.0 exactly as
  // `==` does), dense ties — across repeated decisions and activity masks
  // on one engine, so incremental state (blocker chains, resume cursors)
  // is reused between runs.
  Rng rng(87);
  ConflictGraph cg = random_geometric_avg_degree(40, 5.0, rng,
                                                 /*force_connected=*/false);
  ExtendedConflictGraph ecg(cg, 3);
  const Graph& h = ecg.graph();
  DistributedRobustPtas cached(h, {});
  reference::SeedPtas seed(h, {});
  const double pool[] = {-1.5, -0.25, -0.0, 0.0, 0.25, 0.25, 0.5, 2.0};
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  std::vector<char> active(static_cast<std::size_t>(h.size()), 1);
  for (int decision = 0; decision < 6; ++decision) {
    for (auto& x : w) x = pool[rng.uniform_int(0, 7)];
    for (auto& m : active) m = rng.bernoulli(0.85) ? 1 : 0;
    const auto a = cached.run(w, active);
    const auto b = seed.run(w, active);
    ASSERT_EQ(a.winners, b.winners) << "decision " << decision;
    ASSERT_EQ(a.weight, b.weight) << "decision " << decision;
    ASSERT_EQ(a.mini_rounds_used, b.mini_rounds_used);
  }
}

TEST(NeighborhoodCache, BallsMatchBfs) {
  Rng rng(5);
  ConflictGraph cg = random_geometric_avg_degree(30, 5.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const Graph& h = ecg.graph();
  const int r = 2;
  NeighborhoodCache cache(h, r);
  BfsScratch scratch(h.size());
  for (int v = 0; v < h.size(); ++v) {
    const auto rb = scratch.k_hop_neighborhood(h, v, r);
    ASSERT_TRUE(std::equal(rb.begin(), rb.end(), cache.r_ball(v).begin(),
                           cache.r_ball(v).end()));
    const auto eb = scratch.k_hop_neighborhood(h, v, 2 * r + 1);
    ASSERT_TRUE(std::equal(eb.begin(), eb.end(),
                           cache.election_ball(v).begin(),
                           cache.election_ball(v).end()));
  }
}

TEST(SolveScratch, ReusedScratchMatchesFreshAllocation) {
  Rng rng(13);
  ConflictGraph cg = random_geometric_avg_degree(30, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();

  BranchAndBoundMwisSolver solver(200'000);
  NeighborhoodCache cache(h, 2);

  // A series of solves over different candidate sets: the reused scratch
  // must never leak state between solves — a fresh scratch with the same
  // options must reproduce every solve byte-for-byte, node counts included.
  SolveScratch reused;
  for (int leader = 0; leader < h.size(); leader += 7) {
    const auto ball = cache.r_ball(leader);
    const auto w = random_weights(h.size(), rng);
    const MwisResult a = solver.solve_with_scratch(h, w, ball, reused);
    SolveScratch fresh;
    const MwisResult b = solver.solve_with_scratch(h, w, ball, fresh);
    ASSERT_EQ(a.vertices, b.vertices);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
    EXPECT_EQ(a.exact, b.exact);
    EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  }
}

TEST(SolveScratch, EnhancedAndClassicAgreeOnExactInstances) {
  // The production search (reductions + components + refined bound) and
  // the classic seed search (tests/reference/classic_bnb.h) are both exact
  // when they complete: same optimal set on unique-optimum instances,
  // weight equal up to summation order.
  Rng rng(13);
  ConflictGraph cg = random_geometric_avg_degree(30, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();

  BranchAndBoundMwisSolver solver(5'000'000);
  SolveScratch scratch;
  NeighborhoodCache cache(h, 2);
  for (int leader = 0; leader < h.size(); leader += 7) {
    const auto ball = cache.r_ball(leader);
    const auto w = random_weights(h.size(), rng);
    const MwisResult a = solver.solve(h, w, ball);
    // The same search over a scratch shared across leaders.
    const MwisResult shared = solver.solve_with_scratch(h, w, ball, scratch);
    ASSERT_EQ(shared.vertices, a.vertices);
    EXPECT_EQ(shared.weight, a.weight);
    EXPECT_EQ(shared.nodes_explored, a.nodes_explored);
    const MwisResult b = reference::classic_bnb(h, w, ball, 5'000'000);
    ASSERT_TRUE(a.exact);
    ASSERT_TRUE(b.exact);
    ASSERT_EQ(a.vertices, b.vertices);
    EXPECT_NEAR(a.weight, b.weight, 1e-9);
    // The production tree must never be larger than the classic one here.
    EXPECT_LE(a.nodes_explored, b.nodes_explored);
  }
}

TEST(SolveScratch, ExternalScratchSharedAcrossGraphs) {
  // One scratch serving solves over two different graphs (the message-level
  // runtime shares a solver across per-agent local graphs).
  Rng rng(17);
  ConflictGraph cg1 = random_geometric_avg_degree(20, 4.0, rng);
  ConflictGraph cg2 = random_geometric_avg_degree(35, 6.0, rng);
  ExtendedConflictGraph e1(cg1, 3), e2(cg2, 2);
  BranchAndBoundMwisSolver solver;
  SolveScratch scratch;
  for (int round = 0; round < 3; ++round) {
    for (const Graph* g : {&e1.graph(), &e2.graph()}) {
      const auto w = random_weights(g->size(), rng);
      std::vector<int> all(static_cast<std::size_t>(g->size()));
      for (int v = 0; v < g->size(); ++v) all[static_cast<std::size_t>(v)] = v;
      const MwisResult a = solver.solve_with_scratch(*g, w, all, scratch);
      // Same instance on an unfinalized copy.
      const Graph lists = reference::unfinalized_copy(*g);
      SolveScratch fresh_scratch;
      const MwisResult b =
          solver.solve_with_scratch(lists, w, all, fresh_scratch);
      ASSERT_EQ(a.vertices, b.vertices);
      EXPECT_DOUBLE_EQ(a.weight, b.weight);
      EXPECT_EQ(a.nodes_explored, b.nodes_explored);
    }
  }
}

TEST(SolveScratch, NodeCapAbortPathWithReusedScratch) {
  Rng rng(19);
  ConflictGraph cg = random_geometric_avg_degree(22, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const Graph& h = ecg.graph();
  const auto w = random_weights(h.size(), rng);
  std::vector<int> all(static_cast<std::size_t>(h.size()));
  for (int v = 0; v < h.size(); ++v) all[static_cast<std::size_t>(v)] = v;

  BranchAndBoundMwisSolver capped(50);
  const MwisResult first = capped.solve(h, w, all);
  EXPECT_FALSE(first.exact);
  EXPECT_TRUE(h.is_independent_set(first.vertices));
  EXPECT_GT(first.weight, 0.0);  // at least the greedy incumbent

  // Re-running on the same reused scratch must reproduce the abort exactly
  // (no state bleeds from the aborted search into the next solve).
  const MwisResult second = capped.solve(h, w, all);
  EXPECT_EQ(first.vertices, second.vertices);
  EXPECT_DOUBLE_EQ(first.weight, second.weight);
  EXPECT_EQ(first.nodes_explored, second.nodes_explored);
  EXPECT_FALSE(second.exact);

  // And an uncapped solve on the *same scratch object* still finds at least
  // as much weight, exactly.
  BranchAndBoundMwisSolver uncapped(5'000'000);
  SolveScratch scratch;
  const MwisResult aborted =
      BranchAndBoundMwisSolver(50).solve_with_scratch(h, w, all, scratch);
  const MwisResult full = uncapped.solve_with_scratch(h, w, all, scratch);
  EXPECT_TRUE(full.exact);
  EXPECT_GE(full.weight, aborted.weight - 1e-12);
  EXPECT_FALSE(aborted.exact);
}

TEST(GraphCsr, FinalizedAnswersMatchBuildPhase) {
  Rng rng(23);
  ConflictGraph cg = erdos_renyi(25, 0.25, rng);
  const Graph& fin = cg.graph();  // factories finalize
  ASSERT_TRUE(fin.finalized());

  // Rebuild the same graph without finalizing.
  Graph raw(fin.size());
  for (int v = 0; v < fin.size(); ++v)
    for (int u : fin.neighbors(v))
      if (u > v) raw.add_edge(v, u);
  ASSERT_FALSE(raw.finalized());

  EXPECT_EQ(raw.num_edges(), fin.num_edges());
  EXPECT_EQ(raw.max_degree(), fin.max_degree());
  for (int v = 0; v < fin.size(); ++v) {
    const auto a = raw.neighbors(v);
    const auto b = fin.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    for (int u = 0; u < fin.size(); ++u)
      ASSERT_EQ(raw.has_edge(v, u), fin.has_edge(v, u));
  }
}

TEST(GraphCsr, AddEdgeAfterFinalizeReopens) {
  Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  ASSERT_TRUE(g.finalized());
  g.add_edge(2, 3);  // definalizes, then inserts
  EXPECT_FALSE(g.finalized());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.num_edges(), 2);
}

}  // namespace
}  // namespace mhca
