// DynamicNetwork — owns the mutable topology of one dynamic run.
//
// The engines in this repo (Simulator, net runtime) borrow const references
// to a conflict graph / extended graph; a DynamicNetwork is the object that
// actually owns those structures when they change over time. Per slot it
// pulls the next GraphDelta from its DynamicsModel, applies it to G and
// lifts it onto H, maintains the node/vertex activity masks, and reports
// which H vertices were structurally touched so callers can scope their own
// cache maintenance (DistributedRobustPtas::on_graph_delta, the net
// runtime's scoped rediscovery).
//
// Two maintenance modes, selected by `incremental`:
//   true  (default) — Graph::apply_delta patches the CSR arrays in place;
//           per-slot cost scales with the blast radius.
//   false — reference mode: G is rebuilt from its new edge set from scratch
//           and H re-derived from G, exactly as a cold start would. The two
//           modes are byte-identical by construction *and* by test
//           (tests/dynamics_differential_test.cc); the reference mode exists
//           to prove that and to be the bench baseline (bench_dynamics).
//
// Orthogonally, `set_batch_period(P)` batches structural maintenance across
// multi-slot update periods (the engines only decide every P slots — paying
// apply_delta + cache invalidation on slots no decision reads is wasted):
// the model still steps every slot, but its deltas accumulate in a
// DeltaBatch and are applied as one *coalesced* net delta at the slots
// decisions happen on (t with (t-1) % P == 0), cancelling add/remove churn
// inside the window. The graph the engines see at every decision slot is
// byte-identical to eager per-slot maintenance (fuzzed); what changes is
// that *between* decisions the topology (and the activity masks) hold
// still, so per-intermediate-slot consumers (strategy-feasibility pruning,
// per-slot conflict checks) observe the window-start state instead of the
// evolving one. P = 1 (default) is exact eager maintenance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dynamics/batch.h"
#include "dynamics/delta.h"
#include "dynamics/model.h"
#include "graph/conflict_graph.h"
#include "graph/extended_graph.h"

namespace mhca::dynamics {

/// What one advance() did, for callers that maintain derived state.
struct SlotChange {
  bool changed = false;
  GraphDelta delta;                   ///< Node-level delta applied.
  std::vector<int> touched_vertices;  ///< H vertices incident to any change.
};

class DynamicNetwork {
 public:
  /// Static network: advance() never reports a change. Exists so callers
  /// can treat every run uniformly.
  DynamicNetwork(ConflictGraph base, int num_channels);

  /// Dynamic network: `model` drives slots 2, 3, ... (slot 1 is `base`).
  DynamicNetwork(ConflictGraph base, int num_channels,
                 std::unique_ptr<DynamicsModel> model, bool incremental = true);

  bool dynamic() const { return model_ != nullptr; }
  bool incremental() const { return incremental_; }

  /// Batch structural maintenance to every `period`-th slot (see the class
  /// comment). Call before the first advance(); period >= 1, 1 = eager.
  void set_batch_period(int period);
  int batch_period() const { return batch_period_; }

  const ConflictGraph& network() const { return cg_; }
  const ExtendedConflictGraph& ecg() const { return ecg_; }
  const DynamicsModel& model() const { return *model_; }

  int num_active_nodes() const { return active_count_; }
  const std::vector<char>& active_nodes() const { return active_nodes_; }
  /// Full per-H-vertex mask (size K), regardless of whether masking is
  /// currently needed — the net runtime pushes this into its agents.
  const std::vector<char>& active_vertices() const {
    return active_vertices_;
  }

  /// Per-H-vertex activity mask for the MWIS engines: empty span when every
  /// node is active (the engines' "no masking" fast path), else size K.
  std::span<const char> active_vertex_mask() const {
    if (active_count_ == cg_.num_nodes()) return {};
    return active_vertices_;
  }

  /// Advance the topology into slot t. Must be called once per slot with
  /// t = 2, 3, ... in order; the returned reference is valid until the next
  /// call. No-op (changed = false) for static networks and empty deltas.
  const SlotChange& advance(std::int64_t t);

  // Cumulative maintenance statistics (benches / tests).
  std::int64_t slots_changed() const { return slots_changed_; }
  std::int64_t edges_added() const { return edges_added_; }
  std::int64_t edges_removed() const { return edges_removed_; }

 private:
  /// Shared tail of advance(): masks, touched vertices, structural apply,
  /// stats — for the slot delta (eager) or the coalesced one (batched).
  void apply_change(const GraphDelta& d);
  void apply_incremental(const GraphDelta& d);
  void apply_full_rebuild(const GraphDelta& d);

  ConflictGraph cg_;
  ExtendedConflictGraph ecg_;
  std::unique_ptr<DynamicsModel> model_;
  bool incremental_ = true;
  int batch_period_ = 1;
  DeltaBatch batch_;
  GraphDelta net_delta_;
  std::vector<char> active_nodes_;
  std::vector<char> active_vertices_;
  int active_count_ = 0;
  std::int64_t last_slot_ = 1;
  SlotChange change_;
  std::int64_t slots_changed_ = 0;
  std::int64_t edges_added_ = 0;
  std::int64_t edges_removed_ = 0;
};

}  // namespace mhca::dynamics
