// Differential-testing harness for the branch-and-bound MWIS solver: every
// search mode must agree with exhaustive enumeration on hundreds of seeded
// random instances. This is the exactness proof backing the distributed
// PTAS's robustness argument (the paper's guarantees assume the local
// oracle is exact whenever it reports exact = true).
//
// Sweeps: graph density (Erdős–Rényi p in [0, 0.9] plus extended conflict
// graphs with per-master clique structure), weight distributions (uniform,
// exponential, heavy ties, mixed-sign), and candidate-subset shapes (full
// vertex set, random subsets, BFS balls, singletons). Modes: enhanced search
// over the solver's own scratch, and classic search (fresh scratch over the
// list-scan build, and over a shared scratch).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/branch_and_bound.h"
#include "mwis/brute_force.h"
#include "mwis/greedy.h"
#include "reference/unfinalized_copy.h"
#include "util/rng.h"

namespace mhca {
namespace {

struct Instance {
  Graph graph;
  std::vector<double> weights;
  std::vector<int> candidates;
  std::string tag;
};

/// Weight distribution by family index: continuous families exercise
/// unique-optimum instances, the tie family forces heavy degeneracy, the
/// mixed family adds non-positive weights (which the reductions drop).
double draw_weight(int family, Rng& rng) {
  switch (family) {
    case 0: return rng.uniform(0.01, 1.0);                       // uniform
    case 1: return -std::log(1.0 - rng.uniform(0.0, 0.999));     // exponential
    case 2: return 0.25 * (1 + static_cast<int>(rng.uniform() * 4));  // ties
    default: return rng.uniform(-0.4, 1.0);                      // mixed sign
  }
}

Instance make_instance(int trial, Rng& rng) {
  Instance inst;
  const int shape = trial % 3;
  if (shape == 2) {
    // Extended conflict graph: per-master channel cliques + conflict edges,
    // the structure the local solves actually see.
    const int users = 2 + static_cast<int>(rng.uniform() * 4);   // 2..5
    const int channels = 2 + trial % 2;                          // 2..3
    Rng topo(static_cast<std::uint64_t>(trial) * 13 + 7);
    ConflictGraph cg = erdos_renyi(users, rng.uniform() * 0.8, topo);
    ExtendedConflictGraph ecg(cg, channels);
    inst.graph = ecg.graph();
    inst.tag = "ecg";
  } else {
    const int n = 3 + static_cast<int>(rng.uniform() * 12);      // 3..14
    const double p = rng.uniform() * 0.9;
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.uniform() < p) g.add_edge(i, j);
    if (shape == 0) g.finalize();  // shape 1 stays unfinalized (list path)
    inst.graph = std::move(g);
    inst.tag = shape == 0 ? "er-finalized" : "er-raw";
  }

  const int n = inst.graph.size();
  inst.weights.resize(static_cast<std::size_t>(n));
  const int family = trial % 4;
  for (auto& w : inst.weights) w = draw_weight(family, rng);

  // Candidate-subset shape.
  switch (trial % 4) {
    case 0:  // full vertex set
      for (int v = 0; v < n; ++v) inst.candidates.push_back(v);
      break;
    case 1: {  // random subset
      for (int v = 0; v < n; ++v)
        if (rng.uniform() < 0.7) inst.candidates.push_back(v);
      break;
    }
    case 2: {  // BFS ball around a random center
      BfsScratch scratch(n);
      const int center = static_cast<int>(rng.uniform() * n);
      inst.candidates = scratch.k_hop_neighborhood(inst.graph, center, 2);
      break;
    }
    default:  // singleton
      inst.candidates.push_back(static_cast<int>(rng.uniform() * n));
      break;
  }
  return inst;
}

/// A solve must report the weight of the set it returns, the set must be
/// independent and drawn from the candidates, and — when exact — the weight
/// must match exhaustive enumeration (continuous weights: up to summation
/// order; tie weights are exact dyadics, so equality is exact there too).
void check_result(const Instance& inst, const MwisResult& got,
                  const MwisResult& ref, const char* mode) {
  EXPECT_TRUE(got.exact) << mode << " " << inst.tag;
  EXPECT_TRUE(inst.graph.is_independent_set(got.vertices))
      << mode << " " << inst.tag;
  double set_weight = 0.0;
  for (int v : got.vertices) {
    set_weight += inst.weights[static_cast<std::size_t>(v)];
    EXPECT_TRUE(std::find(inst.candidates.begin(), inst.candidates.end(),
                          v) != inst.candidates.end())
        << mode << " returned non-candidate " << v;
  }
  EXPECT_NEAR(got.weight, set_weight, 1e-9) << mode << " " << inst.tag;
  EXPECT_NEAR(got.weight, ref.weight, 1e-9) << mode << " " << inst.tag;
}

TEST(MwisDifferential, AllModesMatchBruteForceOn600Instances) {
  Rng rng(20260728);
  BruteForceMwisSolver brute(24);
  BranchAndBoundMwisSolver reusing(5'000'000);
  BnbSolveOptions classic;
  classic.enhanced = false;
  SolveScratch scratch;

  int solves = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Instance inst = make_instance(trial, rng);
    if (inst.candidates.empty()) continue;
    const MwisResult ref =
        brute.solve(inst.graph, inst.weights, inst.candidates);

    // The classic search is the frozen seed algorithm; like the seed greedy
    // it assumes the paper's positive index weights (it will happily keep a
    // negative-weight greedy seed), so the mixed-sign family exercises the
    // enhanced modes only.
    const bool classic_applicable = trial % 4 != 3;

    // Mode 1: enhanced search, the solver's own scratch.
    check_result(inst,
                 reusing.solve(inst.graph, inst.weights, inst.candidates),
                 ref, "reuse");
    // Mode 2: classic seed search, fresh scratch, list-scan build.
    if (classic_applicable) {
      SolveScratch fresh;
      check_result(inst,
                   reusing.solve_with_scratch(
                       reference::unfinalized_copy(inst.graph), inst.weights,
                       inst.candidates, fresh, classic),
                   ref, "fresh-classic");
    }
    // Mode 3: classic search through explicit options + shared scratch.
    if (classic_applicable) {
      check_result(inst,
                   reusing.solve_with_scratch(inst.graph, inst.weights,
                                              inst.candidates, scratch,
                                              classic),
                   ref, "classic-scratch");
    }
    solves += classic_applicable ? 3 : 1;
  }
  // Nearly all of the 450 × 3 + 150 × 1 = 1500 solves actually ran (a few
  // singleton draws may skip).
  EXPECT_GE(solves, 1400);
}

TEST(MwisDifferential, SparseRowGatherMatchesBruteForceBeyondMatrixLimit) {
  // Instances embedded in graphs past Graph::kAdjacencyMatrixLimit, where
  // the default gather reads sharded sparse rows. Each trial mirrors the
  // instance into a small dense-matrix graph for the brute-force reference
  // and cross-checks the sparse gather against the list-scan build (same
  // search tree, node counts included). Offsets place the instance across
  // the id range so block indexing and the candidate mask see high columns.
  const int big_n = Graph::kAdjacencyMatrixLimit + 64;
  Rng rng(8193);
  BruteForceMwisSolver brute(24);
  BranchAndBoundMwisSolver solver;
  SolveScratch scratch;

  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + trial % 12;
    const int offset =
        (trial % 5) * ((big_n - n - 2) / 4);  // 0 .. near the top
    const double p = 0.15 + 0.2 * (trial % 4);
    Graph small(n);
    Graph big(big_n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.uniform() < p) {
          small.add_edge(i, j);
          big.add_edge(offset + i, offset + j);
        }
    // Decoy edges out of the instance: the candidate mask must drop them.
    for (int i = 0; i < n; ++i)
      big.add_edge(offset + i, (offset + n + 7 * i + 1) % big_n);
    small.finalize();
    big.finalize();
    ASSERT_TRUE(big.has_sparse_rows());

    std::vector<double> w_small(static_cast<std::size_t>(n));
    for (auto& x : w_small) x = draw_weight(trial % 4, rng);
    std::vector<double> w_big(static_cast<std::size_t>(big_n), 0.0);
    std::vector<int> cands_small, cands_big;
    for (int v = 0; v < n; ++v) {
      w_big[static_cast<std::size_t>(offset + v)] =
          w_small[static_cast<std::size_t>(v)];
      cands_small.push_back(v);
      cands_big.push_back(offset + v);
    }

    const MwisResult ref = brute.solve(small, w_small, cands_small);
    const MwisResult got = solver.solve(big, w_big, cands_big);
    ASSERT_TRUE(got.exact) << "trial " << trial;
    ASSERT_EQ(got.vertices.size(), ref.vertices.size()) << "trial " << trial;
    for (std::size_t k = 0; k < ref.vertices.size(); ++k)
      ASSERT_EQ(got.vertices[k], offset + ref.vertices[k])
          << "trial " << trial;
    ASSERT_NEAR(got.weight, ref.weight, 1e-12) << "trial " << trial;

    const MwisResult via_lists = solver.solve_with_scratch(
        reference::unfinalized_copy(big), w_big, cands_big, scratch);
    ASSERT_EQ(via_lists.vertices, got.vertices) << "trial " << trial;
    ASSERT_EQ(via_lists.nodes_explored, got.nodes_explored)
        << "trial " << trial;
  }
}

TEST(MwisDifferential, TieWeightsExactDyadicEquality) {
  // All weights are multiples of 0.25: sums are exact in floating point, so
  // every mode must match brute force to the last bit despite massive
  // optimum degeneracy.
  Rng rng(99);
  BruteForceMwisSolver brute(24);
  BranchAndBoundMwisSolver reusing;
  BnbSolveOptions classic;
  classic.enhanced = false;
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 4 + trial % 10;
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.uniform() < 0.4) g.add_edge(i, j);
    g.finalize();
    std::vector<double> w(static_cast<std::size_t>(n));
    for (auto& x : w) x = 0.25 * (1 + static_cast<int>(rng.uniform() * 4));
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    const double ref = brute.solve(g, w, all).weight;
    EXPECT_EQ(reusing.solve(g, w, all).weight, ref);
    SolveScratch fresh;
    EXPECT_EQ(reusing.solve_with_scratch(g, w, all, fresh, classic).weight,
              ref);
  }
}

TEST(MwisDifferential, AnytimeContractUnderNodeCap) {
  // A cap-aborting instance must report exact == false, return at least the
  // greedy solution (the solver's incumbent floor), and leave the reused
  // scratch fully reusable: the next (uncapped) solve is unaffected.
  Rng rng(7);
  ConflictGraph cg = random_geometric_avg_degree(40, 7.0, rng);
  ExtendedConflictGraph ecg(cg, 4);
  const Graph& h = ecg.graph();
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);
  std::vector<int> all(static_cast<std::size_t>(h.size()));
  for (int v = 0; v < h.size(); ++v) all[static_cast<std::size_t>(v)] = v;

  BranchAndBoundMwisSolver capped(60);
  const MwisResult aborted = capped.solve(h, w, all);
  ASSERT_FALSE(aborted.exact);
  EXPECT_TRUE(h.is_independent_set(aborted.vertices));

  const MwisResult greedy = GreedyMwisSolver().solve(h, w, all);
  EXPECT_GE(aborted.weight, greedy.weight - 1e-12)
      << "anytime result fell below the greedy floor";

  // Same solver, same scratch, same instance: the abort must reproduce
  // byte-for-byte (no state bleeds out of an aborted search) ...
  const MwisResult again = capped.solve(h, w, all);
  EXPECT_EQ(aborted.vertices, again.vertices);
  EXPECT_EQ(aborted.nodes_explored, again.nodes_explored);
  ASSERT_FALSE(again.exact);

  // ... and an uncapped solve reusing the very same scratch is exact and at
  // least as good. Run this part on a ball-sized instance (the full graph's
  // exact optimum is out of reach by design — that is what the cap is for).
  NeighborhoodCache cache(h, 3);
  SolveScratch scratch;
  BranchAndBoundMwisSolver small_cap(30);
  BranchAndBoundMwisSolver uncapped(5'000'000);
  int aborted_balls = 0;
  for (int v = 0; v < h.size(); v += 9) {
    const auto ball = cache.r_ball(v);
    const MwisResult first =
        small_cap.solve_with_scratch(h, w, ball, scratch);
    if (first.exact) continue;  // this ball was easy; try another
    ++aborted_balls;
    const MwisResult full = uncapped.solve_with_scratch(h, w, ball, scratch);
    EXPECT_TRUE(full.exact);
    EXPECT_GE(full.weight, first.weight - 1e-12);
  }
  EXPECT_GT(aborted_balls, 0) << "no r=3 ball aborted at cap 30; the "
                                 "scratch-reuse-after-abort path went untested";
}

}  // namespace
}  // namespace mhca
