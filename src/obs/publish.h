#pragma once

#include "net/control_channel.h"
#include "net/runtime.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

// The one place the `domain.name` key scheme is defined (src/obs/README.md
// documents it). Producers keep their hot-path accumulator structs
// (ChannelStats, TransportStats, AgentCounters aggregated into
// RuntimeCounters, SimulationResult) — these functions publish a finished
// struct into a registry at snapshot points. Consumers (NetRunSummary
// derivation in scenario/runner.cc, `mhca_sim --metrics/--json`, the CI
// schema gate) read the registry keys, never the structs, so adding a
// metric is one publish line + one schema line.
//
// Publishing *adds* the struct's totals: call each function exactly once
// per run per registry (a second call would double-count).

namespace mhca::obs {

/// Canonical lowercase label for a MsgType index ("hello", "weight_update",
/// "leader_declare", "determination", "view_change").
const char* msg_type_label(int type);

/// channel.* — flood/byte bill from the control channel, including the
/// channel.messages.<type> / channel.bytes.<type> per-type breakdown.
void publish_channel_stats(MetricsRegistry& reg, const net::ChannelStats& cs);

/// transport.* — exchange, frame, datagram and retransmit counters.
void publish_transport_stats(MetricsRegistry& reg,
                             const net::TransportStats& ts);

/// membership.* — per-agent robustness counters aggregated by the runtime.
void publish_membership_counters(MetricsRegistry& reg,
                                 const net::RuntimeCounters& rc);

/// net.mem.* — resident bytes per runtime structure (gauges): the agents'
/// member lists, table columns and local graphs, and the index memo.
void publish_net_memory(MetricsRegistry& reg, const net::MemoryFootprint& mem);

/// decision.* totals for a lockstep Simulator run.
void publish_simulation(MetricsRegistry& reg, const SimulationResult& res);

}  // namespace mhca::obs
