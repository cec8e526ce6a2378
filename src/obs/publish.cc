#include "obs/publish.h"

#include <string>

namespace mhca::obs {

namespace {
constexpr const char* kMsgTypeLabels[net::kNumMsgTypes] = {
    "hello", "weight_update", "leader_declare", "determination",
    "view_change"};
}  // namespace

const char* msg_type_label(int type) {
  return (type >= 0 && type < net::kNumMsgTypes) ? kMsgTypeLabels[type]
                                                 : "unknown";
}

void publish_channel_stats(MetricsRegistry& reg, const net::ChannelStats& cs) {
  reg.counter("channel.messages").add(cs.messages);
  reg.counter("channel.floods").add(cs.floods);
  reg.counter("channel.drops").add(cs.drops);
  reg.counter("channel.duplicates").add(cs.duplicates);
  reg.counter("channel.deferred").add(cs.deferred);
  reg.counter("channel.mini_timeslots").add(cs.mini_timeslots);
  reg.counter("channel.bytes_on_wire").add(cs.bytes_on_wire);
  reg.counter("channel.fragments").add(cs.fragments);
  for (int t = 0; t < net::kNumMsgTypes; ++t) {
    const std::string suffix = kMsgTypeLabels[t];
    reg.counter("channel.messages." + suffix).add(cs.messages_by_type[t]);
    reg.counter("channel.bytes." + suffix).add(cs.bytes_by_type[t]);
  }
}

void publish_transport_stats(MetricsRegistry& reg,
                             const net::TransportStats& ts) {
  reg.counter("transport.exchanges").add(ts.exchanges);
  reg.counter("transport.frames_sent").add(ts.frames_sent);
  reg.counter("transport.frames_received").add(ts.frames_received);
  reg.counter("transport.datagrams_sent").add(ts.datagrams_sent);
  reg.counter("transport.datagrams_received").add(ts.datagrams_received);
  reg.counter("transport.bytes_sent").add(ts.bytes_sent);
  reg.counter("transport.bytes_received").add(ts.bytes_received);
  reg.counter("transport.retransmit_requests").add(ts.retransmit_requests);
  reg.counter("transport.retransmissions").add(ts.retransmissions);
}

void publish_membership_counters(MetricsRegistry& reg,
                                 const net::RuntimeCounters& rc) {
  reg.counter("membership.retries").add(rc.retries);
  reg.counter("membership.timeouts").add(rc.timeouts);
  reg.counter("membership.view_changes").add(rc.view_changes);
  reg.counter("membership.stale_decisions").add(rc.stale_decisions);
}

void publish_net_memory(MetricsRegistry& reg,
                        const net::MemoryFootprint& mem) {
  reg.gauge("net.mem.member_lists_bytes")
      .set(static_cast<double>(mem.member_lists));
  reg.gauge("net.mem.tables_bytes").set(static_cast<double>(mem.tables));
  reg.gauge("net.mem.local_graphs_bytes")
      .set(static_cast<double>(mem.local_graphs));
  reg.gauge("net.mem.index_memo_bytes")
      .set(static_cast<double>(mem.index_memo));
}

void publish_simulation(MetricsRegistry& reg, const SimulationResult& res) {
  reg.counter("decision.slots").add(res.total_slots);
  reg.counter("decision.decisions").add(res.decisions);
  reg.counter("decision.messages").add(res.total_messages);
  reg.counter("decision.mini_timeslots").add(res.total_mini_timeslots);
  reg.gauge("decision.total_observed").set(res.total_observed);
  reg.gauge("decision.total_effective").set(res.total_effective);
  reg.gauge("decision.total_expected").set(res.total_expected);
  reg.gauge("decision.avg_strategy_size").set(res.avg_strategy_size);
  reg.gauge("decision.seconds").set(res.decision_seconds);
  reg.gauge("decision.theta").set(res.theta);
  reg.gauge("decision.strategy_size")
      .set(static_cast<double>(res.last_strategy.size()));
}

}  // namespace mhca::obs
