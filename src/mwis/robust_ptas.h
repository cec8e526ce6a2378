// Centralized robust PTAS for MWIS (Nieberg, Hurink & Kern; paper §IV-B).
//
// Starting from the max-weight remaining vertex v, grow balls J_r(v) in the
// *remaining* graph while W(MWIS(J_{r+1})) > ρ · W(MWIS(J_r)). At the first
// violation r̄, harvest S = MWIS(J_{r̄}(v)), delete the closed neighborhood
// N[S], and repeat. The union of harvested sets is independent and a
// ρ-approximation (ρ = 1 + ε). On growth-bounded graphs (unit-disk G, and
// the extended graph H per Theorem 2) the growth stops at a constant r̄ with
// ρ^r̄ ≤ (2r̄+1)² (resp. M·(2r̄+1)² on H).
//
// Crucially the algorithm needs *no geometry* — only adjacency — which is
// the property the paper exploits for its distributed variant.
#pragma once

#include <cstdint>

#include "graph/hop.h"
#include "mwis/branch_and_bound.h"
#include "mwis/mwis.h"

namespace mhca {

class RobustPtasSolver : public MwisSolver {
 public:
  /// epsilon: approximation slack (ρ = 1 + ε).
  /// r_cap: safety bound on ball growth (theory guarantees constant r̄; the
  ///        cap keeps local instances tractable if ε is tiny).
  /// bnb_node_cap: effort cap for the inner exact solver.
  explicit RobustPtasSolver(double epsilon = 1.0, int r_cap = 4,
                            std::int64_t bnb_node_cap = 2'000'000);

  std::string name() const override { return "robust-ptas"; }

  double rho() const { return rho_; }

  MwisResult solve(const Graph& g, std::span<const double> weights,
                   std::span<const int> candidates) override;

  /// Largest ball radius r̄ reached over all harvests of the last solve.
  int last_max_radius() const { return last_max_radius_; }

 private:
  double rho_;
  int r_cap_;
  BranchAndBoundMwisSolver inner_;
  BfsScratch scratch_;  ///< Ball growth, reused across balls and solves.
  int last_max_radius_ = 0;
};

}  // namespace mhca
