// Tests for src/mwis: brute force vs branch-and-bound cross-validation,
// greedy feasibility, centralized robust PTAS ratio (property sweeps).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "mwis/branch_and_bound.h"
#include "mwis/greedy.h"
#include "mwis/robust_ptas.h"
#include "reference/brute_force.h"
#include "util/rng.h"

namespace mhca {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

std::vector<double> random_weights(int n, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  return w;
}

TEST(BruteForce, PathKnownOptimum) {
  Graph g = path_graph(4);
  const std::vector<double> w{1.0, 10.0, 1.0, 9.0};
  reference::BruteForceMwisSolver s;
  const MwisResult res = s.solve_all(g, w);
  EXPECT_DOUBLE_EQ(res.weight, 19.0);
  EXPECT_EQ(res.vertices, (std::vector<int>{1, 3}));
  EXPECT_TRUE(res.exact);
}

TEST(BruteForce, EmptyCandidates) {
  Graph g = path_graph(3);
  const std::vector<double> w{1, 1, 1};
  reference::BruteForceMwisSolver s;
  const std::vector<int> none;
  const MwisResult res = s.solve(g, w, none);
  EXPECT_TRUE(res.vertices.empty());
  EXPECT_DOUBLE_EQ(res.weight, 0.0);
}

TEST(BruteForce, RejectsTooLarge) {
  Graph g(30);
  const std::vector<double> w(30, 1.0);
  reference::BruteForceMwisSolver s(24);
  EXPECT_THROW(s.solve_all(g, w), std::logic_error);
}

TEST(BruteForce, RejectsCapsBeyondThirtyTwoBitMasks) {
  // Candidate subsets are 32-bit masks: a cap of 32 or more would shift
  // past the word and enumerate the wrong subsets.
  EXPECT_THROW(reference::BruteForceMwisSolver(32), std::logic_error);
  EXPECT_THROW(reference::BruteForceMwisSolver(64), std::logic_error);
  EXPECT_THROW(reference::BruteForceMwisSolver(-1), std::logic_error);
  EXPECT_NO_THROW(reference::BruteForceMwisSolver(31));
  EXPECT_NO_THROW(reference::BruteForceMwisSolver(0));
}

TEST(BranchAndBound, SimpleInstances) {
  BranchAndBoundMwisSolver s;
  // Triangle: picks heaviest vertex.
  Graph tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(0, 2);
  const std::vector<double> w{0.2, 0.9, 0.5};
  const MwisResult res = s.solve_all(tri, w);
  EXPECT_DOUBLE_EQ(res.weight, 0.9);
  EXPECT_EQ(res.vertices, (std::vector<int>{1}));
  EXPECT_TRUE(res.exact);
}

TEST(BranchAndBound, EdgelessTakesAll) {
  Graph g(6);
  const std::vector<double> w{1, 2, 3, 4, 5, 6};
  BranchAndBoundMwisSolver s;
  const MwisResult res = s.solve_all(g, w);
  EXPECT_DOUBLE_EQ(res.weight, 21.0);
  EXPECT_EQ(res.vertices.size(), 6u);
}

TEST(BranchAndBound, HeaviestVertexNotAlwaysChosen) {
  // Star: center weight 10, three leaves weight 4 each -> leaves win (12).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const std::vector<double> w{10.0, 4.0, 4.0, 4.0};
  BranchAndBoundMwisSolver s;
  const MwisResult res = s.solve_all(g, w);
  EXPECT_DOUBLE_EQ(res.weight, 12.0);
  EXPECT_EQ(res.vertices, (std::vector<int>{1, 2, 3}));
}

TEST(BranchAndBound, RestrictedToCandidates) {
  Graph g = path_graph(5);
  const std::vector<double> w{5, 1, 5, 1, 5};
  BranchAndBoundMwisSolver s;
  const std::vector<int> cands{1, 2, 3};
  const MwisResult res = s.solve(g, w, cands);
  EXPECT_DOUBLE_EQ(res.weight, 5.0);
  EXPECT_EQ(res.vertices, (std::vector<int>{2}));
}

TEST(BranchAndBound, RejectsDuplicateCandidates) {
  Graph g = path_graph(3);
  const std::vector<double> w{1, 1, 1};
  BranchAndBoundMwisSolver s;
  const std::vector<int> dup{0, 0};
  EXPECT_THROW(s.solve(g, w, dup), std::logic_error);
}

TEST(BranchAndBound, NodeCapFallsBackToGreedyQuality) {
  // With a 1-node cap the search aborts immediately; the result must still
  // be the greedy seed (feasible, not marked exact).
  Rng rng(3);
  ConflictGraph cg = erdos_renyi(40, 0.15, rng);
  const auto w = random_weights(40, rng);
  BranchAndBoundMwisSolver capped(1);
  const MwisResult res = capped.solve_all(cg.graph(), w);
  EXPECT_FALSE(res.exact);
  EXPECT_TRUE(cg.graph().is_independent_set(res.vertices));
  GreedyMwisSolver greedy;
  EXPECT_GE(res.weight, greedy.solve_all(cg.graph(), w).weight - 1e-12);
}

TEST(Greedy, FeasibleAndDeterministic) {
  Rng rng(4);
  ConflictGraph cg = erdos_renyi(30, 0.2, rng);
  const auto w = random_weights(30, rng);
  GreedyMwisSolver s;
  const MwisResult a = s.solve_all(cg.graph(), w);
  const MwisResult b = s.solve_all(cg.graph(), w);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_TRUE(cg.graph().is_independent_set(a.vertices));
  EXPECT_FALSE(a.exact);
}

TEST(Greedy, PicksHeaviestFirst) {
  Graph g = path_graph(3);
  const std::vector<double> w{0.5, 1.0, 0.5};
  GreedyMwisSolver s;
  const MwisResult res = s.solve_all(g, w);
  EXPECT_DOUBLE_EQ(res.weight, 1.0);
  EXPECT_EQ(res.vertices, (std::vector<int>{1}));
}

// --- Cross-validation sweeps: BnB == brute force on random graphs. ---
class BnbCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(BnbCrossValidation, MatchesBruteForceOnErdosRenyi) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 1);
  const int n = 14;
  ConflictGraph cg = erdos_renyi(n, 0.25, rng);
  const auto w = random_weights(n, rng);
  reference::BruteForceMwisSolver brute;
  BranchAndBoundMwisSolver bnb;
  const MwisResult exact = brute.solve_all(cg.graph(), w);
  const MwisResult fast = bnb.solve_all(cg.graph(), w);
  EXPECT_NEAR(exact.weight, fast.weight, 1e-9);
  EXPECT_TRUE(cg.graph().is_independent_set(fast.vertices));
  EXPECT_TRUE(fast.exact);
}

TEST_P(BnbCrossValidation, MatchesBruteForceOnExtendedGraph) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  ConflictGraph cg = random_geometric_avg_degree(5, 2.5, rng, false);
  ExtendedConflictGraph ecg(cg, 3);  // 15 vertices
  const auto w = random_weights(ecg.num_vertices(), rng);
  reference::BruteForceMwisSolver brute(16);
  BranchAndBoundMwisSolver bnb;
  EXPECT_NEAR(brute.solve_all(ecg.graph(), w).weight,
              bnb.solve_all(ecg.graph(), w).weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbCrossValidation, ::testing::Range(0, 10));

// --- Robust PTAS: approximation ratio property (Theorem in §IV-B). ---
class PtasRatio : public ::testing::TestWithParam<int> {};

TEST_P(PtasRatio, WithinRhoOfExactOnGeometricGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 313 + 11);
  ConflictGraph cg = random_geometric_avg_degree(18, 4.0, rng, false);
  const auto w = random_weights(18, rng);
  BranchAndBoundMwisSolver exact;
  const double opt = exact.solve_all(cg.graph(), w).weight;

  RobustPtasSolver ptas(0.5);  // rho = 1.5
  const MwisResult approx = ptas.solve_all(cg.graph(), w);
  EXPECT_TRUE(cg.graph().is_independent_set(approx.vertices));
  EXPECT_GE(approx.weight, opt / ptas.rho() - 1e-9);
  EXPECT_LE(approx.weight, opt + 1e-9);
}

TEST_P(PtasRatio, WithinRhoOnExtendedGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 3);
  ConflictGraph cg = random_geometric_avg_degree(8, 3.0, rng, false);
  ExtendedConflictGraph ecg(cg, 3);
  const auto w = random_weights(ecg.num_vertices(), rng);
  BranchAndBoundMwisSolver exact;
  const double opt = exact.solve_all(ecg.graph(), w).weight;
  RobustPtasSolver ptas(1.0);  // rho = 2
  const MwisResult approx = ptas.solve_all(ecg.graph(), w);
  EXPECT_GE(approx.weight, opt / ptas.rho() - 1e-9);
  EXPECT_TRUE(ecg.graph().is_independent_set(approx.vertices));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtasRatio, ::testing::Range(0, 10));

TEST(RobustPtas, TightEpsilonApproachesExact) {
  // With small epsilon the criterion is strict: on a short path the PTAS
  // must find the true optimum.
  Graph g = path_graph(6);
  const std::vector<double> w{1.0, 2.0, 1.0, 2.0, 1.0, 2.0};
  RobustPtasSolver ptas(0.01, 6);
  const MwisResult res = ptas.solve_all(g, w);
  EXPECT_DOUBLE_EQ(res.weight, 6.0);  // vertices 1, 3, 5
}

TEST(RobustPtas, GrowthStopsAtConstantRadius) {
  Rng rng(21);
  ConflictGraph cg = random_geometric_avg_degree(60, 5.0, rng);
  const auto w = random_weights(60, rng);
  RobustPtasSolver ptas(1.0, 6);
  ptas.solve_all(cg.graph(), w);
  // rho = 2: violation must occur once 2^r > (2r+1)^2, i.e. r <= 6 always;
  // empirically far smaller on random graphs.
  EXPECT_LE(ptas.last_max_radius(), 6);
}

TEST(RobustPtas, InvalidEpsilonRejected) {
  EXPECT_THROW(RobustPtasSolver(0.0), std::logic_error);
  EXPECT_THROW(RobustPtasSolver(-1.0), std::logic_error);
}

TEST(SolverNames, AreStable) {
  EXPECT_EQ(reference::BruteForceMwisSolver().name(), "brute-force");
  EXPECT_EQ(BranchAndBoundMwisSolver().name(), "branch-and-bound");
  EXPECT_EQ(GreedyMwisSolver().name(), "greedy");
  EXPECT_EQ(RobustPtasSolver().name(), "robust-ptas");
}

}  // namespace
}  // namespace mhca
