// Declarative fault-injection profile for the control channel.
//
// Every fault decision is a pure hash of (seed, flood counter, vertex, salt)
// — no hidden RNG state — so a given (seed, schedule) pair replays the exact
// same drops, duplicates, reorders and delays byte for byte, run after run.
// That determinism is what makes the differential "faults" suite possible:
// identical inputs must produce identical message traces and decisions.
//
// Semantics per (flood, receiving vertex):
//   drop     — the vertex neither delivers nor forwards (existing PR-4
//              behavior, probability drop_prob).
//   dup      — the vertex receives the message twice; the duplicate is a
//              real retransmission and is billed on the channel
//              (probability dup_prob).
//   reorder  — delivery is deferred: with delay_slots_max == 0 it lands at
//              the end of the same flood (pure reordering among that
//              flood's receivers); with delay_slots_max >= 1 it lands in
//              the membership phase of a later slot, 1..delay_slots_max
//              slots out, interleaved with other deferred messages in
//              hash-shuffled order (probability reorder_prob). The vertex
//              still forwards immediately — delay models a slow receive
//              path, not a broken relay.
#pragma once

#include <cstdint>
#include <string>

#include "util/assert.h"

namespace mhca::net {

struct FaultProfile {
  double drop_prob = 0.0;     ///< Reception failure probability.
  double dup_prob = 0.0;      ///< Duplicate-delivery probability.
  double reorder_prob = 0.0;  ///< Deferred-delivery probability.
  int delay_slots_max = 0;    ///< Max deferral in slots (0 = same flood).
  std::uint64_t seed = 0;     ///< Seeds every fault decision.

  bool operator==(const FaultProfile&) const = default;

  bool any() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0;
  }

  /// Throws std::logic_error naming the offending knob *and value* when a
  /// probability is outside its documented range — `drop_prob = 1.0` must
  /// say so, not fail as an anonymous bounds assert three layers down.
  void validate() const {
    const auto check_prob = [](double p, const char* name) {
      MHCA_ASSERT(p >= 0.0 && p < 1.0,
                  std::string(name) + " = " + std::to_string(p) +
                      " is outside the supported [0, 1) range");
    };
    check_prob(drop_prob, "drop_prob");
    check_prob(dup_prob, "dup_prob");
    check_prob(reorder_prob, "reorder_prob");
    MHCA_ASSERT(delay_slots_max >= 0,
                "delay_slots_max = " + std::to_string(delay_slots_max) +
                    " must be >= 0");
  }
};

}  // namespace mhca::net
