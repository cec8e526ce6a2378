// Test-only reference: exhaustive MWIS enumeration, the exact oracle for
// instances of up to 24 vertices (31 at most: candidate subsets are 32-bit
// masks). Code under src/ must never include it.
#pragma once

#include "mwis/mwis.h"

namespace mhca::reference {

/// Enumerates every candidate subset, with no pruning beyond feasibility.
/// Exponential — solves more than `max_vertices` candidates are rejected
/// (asserted), and `max_vertices` itself must lie in [0, 31].
class BruteForceMwisSolver : public MwisSolver {
 public:
  explicit BruteForceMwisSolver(int max_vertices = 24);

  std::string name() const override { return "brute-force"; }

  MwisResult solve(const Graph& g, std::span<const double> weights,
                   std::span<const int> candidates) override;

 private:
  int max_vertices_;
};

}  // namespace mhca::reference
