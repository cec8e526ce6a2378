#include "net/runtime.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <utility>

#include "graph/hop.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace mhca::net {

DistributedRuntime::DistributedRuntime(const ExtendedConflictGraph& ecg,
                                       const ChannelModel& model,
                                       NetConfig cfg)
    : ecg_(ecg), model_(model), cfg_(cfg), transport_(loopback_) {
  init();
}

DistributedRuntime::DistributedRuntime(const ExtendedConflictGraph& ecg,
                                       const ChannelModel& model,
                                       NetConfig cfg, Transport& transport)
    : ecg_(ecg), model_(model), cfg_(cfg), transport_(transport) {
  init();
}

void DistributedRuntime::init() {
  MHCA_ASSERT(ecg_.num_nodes() == model_.num_nodes() &&
                  ecg_.num_channels() == model_.num_channels(),
              "graph/model dimension mismatch");
  MHCA_ASSERT(cfg_.r >= 1, "r must be at least 1");
  channel_.set_mtu(cfg_.mtu);
  // Sharding replicates agent state and replays every flood in canonical
  // order — which only lines up across shards when no phase interleaves
  // sends and receives within one flooding pass. Omniscient membership has
  // that property; view-sync's membership phase (probes answered in the
  // same pass) does not yet.
  MHCA_ASSERT(transport_.shard_count() == 1 ||
                  cfg_.membership == MembershipMode::kOmniscient,
              "sharded runs require membership = omniscient (the view-sync "
              "membership phase interleaves same-pass hello responses)");
  set_fault_profile(cfg_.faults);
  // Tag this thread's trace events with the shard index so a multi-process
  // (or multi-thread mesh) run merges into one Perfetto timeline with one
  // process track per shard. Purely observational.
  obs::set_current_shard(transport_.shard_index());
  keepalive_interval_ = std::max(1, cfg_.liveness.hello_timeout_slots - 1);
  PolicyParams params = cfg_.policy_params;
  if (cfg_.policy == PolicyKind::kLlr && params.llr_max_strategy_len <= 1)
    params.llr_max_strategy_len = ecg_.num_nodes();
  policy_ = make_policy(cfg_.policy, params);

  agents_.reserve(static_cast<std::size_t>(ecg_.num_vertices()));
  for (int v = 0; v < ecg_.num_vertices(); ++v)
    agents_.emplace_back(v, cfg_.r, cfg_.membership, cfg_.liveness);
  index_memo_.resize(agents_.size());
  std::vector<int> all(agents_.size());
  std::iota(all.begin(), all.end(), 0);
  discover(all);
}

void DistributedRuntime::set_fault_profile(const FaultProfile& faults) {
  // Omniscient discovery finalizes each agent's table exactly once per
  // change; a hello the wire re-delivers out of order would arrive after
  // the finalize. Only view-sync membership absorbs late hellos.
  MHCA_ASSERT(cfg_.membership == MembershipMode::kViewSync ||
                  (faults.reorder_prob == 0.0 && faults.delay_slots_max == 0),
              "reorder_prob/delay_slots_max require membership = view_sync "
              "(omniscient discovery cannot absorb a late hello)");
  channel_.set_fault_profile(faults);
  cfg_.faults = faults;
}

Message DistributedRuntime::make_hello(int v) const {
  const auto nb = ecg_.graph().neighbors(v);
  Message hello;
  hello.type = MsgType::kHello;
  hello.origin = v;
  hello.round = t_;
  if (cfg_.membership == MembershipMode::kViewSync)
    hello.view = agents_[static_cast<std::size_t>(v)].view();
  hello.neighbor_list.assign(nb.begin(), nb.end());
  // Hellos carry the sender's live statistics (the paper's first WB round
  // collects ids *and* weights): zeros at initial discovery, and whatever
  // the sender has learned by the time churn — or a keep-alive — re-floods
  // them. Under view-sync this is also what heals tables a lossy wire let
  // go stale: every delivered keep-alive refreshes the receiver's copy.
  hello.mean = agents_[static_cast<std::size_t>(v)].own_mean();
  hello.count = agents_[static_cast<std::size_t>(v)].own_count();
  return hello;
}

void DistributedRuntime::route(int to, const Message& msg) {
  VertexAgent& a = agents_[static_cast<std::size_t>(to)];
  switch (msg.type) {
    case MsgType::kHello:
    case MsgType::kViewChange:
      a.on_membership_message(msg, t_);
      break;
    case MsgType::kWeightUpdate:
      a.on_weight_update(msg);
      break;
    case MsgType::kDetermination:
      a.on_determination(msg);
      break;
    case MsgType::kLeaderDeclare:
      break;  // election is table-local; the flood only costs airtime
  }
}

FloodFrame DistributedRuntime::make_frame(const Message& msg, int ttl) {
  FloodFrame f;
  f.origin = msg.origin;
  f.seq = 0;  // one flood per origin per phase; canonical order = origin asc
  f.ttl = ttl;
  wire::encode(msg, f.bytes);
  return f;
}

std::vector<int> DistributedRuntime::exchange_and_replay(
    std::vector<FloodFrame> frames,
    const std::function<void(int, const Message&)>& deliver,
    const std::function<void(const Message&)>& on_origin) {
  // A one-shard exchange crosses no process boundary: it stays off the
  // trace, which then reads the same as a run's floods alone.
  obs::TraceRecorder* const tr =
      transport_.shard_count() > 1 ? obs::trace() : nullptr;
  char targs[96];
  if (tr)
    std::snprintf(targs, sizeof(targs),
                  "{\"shard\":%d,\"frames_out\":%zu}",
                  transport_.shard_index(), frames.size());
  obs::ScopedSpan span(tr, obs::kTidTransport, "transport.exchange",
                       tr ? std::string(targs) : std::string());
  std::vector<FloodFrame> merged = transport_.exchange(std::move(frames));
  std::vector<int> origins;
  origins.reserve(merged.size());
  for (FloodFrame& f : merged) {
    origins.push_back(f.origin);
    const auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(f.bytes));
    // The origin applies its own message after the flood's deliveries —
    // agents hold disjoint state, so the order is immaterial.
    const Message msg = channel_.flood_encoded(bytes, f.ttl, deliver);
    if (on_origin) on_origin(msg);
  }
  return origins;
}

void DistributedRuntime::discover(std::span<const int> agents) {
  const Graph& h = ecg_.graph();
  const int horizon = 2 * cfg_.r + 1;
  std::vector<char> listed(agents_.size(), 0);
  for (int v : agents) {
    listed[static_cast<std::size_t>(v)] = 1;
    const auto nb = h.neighbors(v);
    agents_[static_cast<std::size_t>(v)].set_own_neighbors(
        std::vector<int>(nb.begin(), nb.end()));
  }
  const bool view_sync = cfg_.membership == MembershipMode::kViewSync;
  const auto deliver = [&](int to, const Message& m) {
    if (!listed[static_cast<std::size_t>(to)]) return;
    if (view_sync)
      agents_[static_cast<std::size_t>(to)].on_membership_message(m, t_);
    else
      agents_[static_cast<std::size_t>(to)].on_hello(m);
  };
  // Every vertex within `horizon` hops of a listed agent floods its hello;
  // by symmetry those floods reach exactly the listed agents that must list
  // the sender. A hello carries its sender's current statistics (so tables
  // rebuilt after churn stay index-consistent with the lockstep engine) and
  // reads only the sender's own state, which no discovery delivery changes:
  // every owned hello is framed up front, and the canonical replay floods
  // them in ascending origin order.
  BfsScratch scratch(h.size());
  std::vector<int> senders;
  scratch.multi_source_k_hop(h, agents, horizon, senders);
  std::vector<FloodFrame> frames;
  for (int w : senders)
    if (owns(w)) frames.push_back(make_frame(make_hello(w), horizon));
  exchange_and_replay(std::move(frames), deliver);
  for (int v : agents)
    agents_[static_cast<std::size_t>(v)].finalize_discovery();
}

void DistributedRuntime::on_topology_change(
    std::span<const int> touched, const std::vector<char>& active_vertices) {
  MHCA_ASSERT(cfg_.membership == MembershipMode::kOmniscient,
              "on_topology_change is the omniscient delta feed; view-sync "
              "runs take on_wire_change");
  MHCA_ASSERT(transport_.shard_count() == 1,
              "sharded runs support static graphs only (every shard would "
              "have to apply each change between the same two exchanges, "
              "and no sharded churn schedule exists to check that)");
  const Graph& h = ecg_.graph();
  const int horizon = 2 * cfg_.r + 1;
  MHCA_ASSERT(static_cast<int>(active_vertices.size()) == h.size(),
              "activity mask mismatch");
  for (std::size_t v = 0; v < agents_.size(); ++v)
    agents_[v].set_active(active_vertices[v] != 0);
  // A vertex that just went off the air cannot flood its weight update.
  std::erase_if(prev_strategy_, [&](int v) {
    return active_vertices[static_cast<std::size_t>(v)] == 0;
  });
  if (touched.empty()) return;

  // Agents whose (2r+1)-hop view can have changed: members of a touched
  // agent's old table (hop distance is symmetric, so "t saw v" means "v saw
  // t"), plus everything within `horizon` new-graph hops of a touched
  // vertex.
  std::vector<char> affected(agents_.size(), 0);
  for (int t : touched)
    for (int m : agents_[static_cast<std::size_t>(t)].members())
      affected[static_cast<std::size_t>(m)] = 1;
  BfsScratch scratch(h.size());
  std::vector<int> reach;
  scratch.multi_source_k_hop(h, touched, horizon, reach);
  for (int v : reach) affected[static_cast<std::size_t>(v)] = 1;

  std::vector<int> affected_list;
  for (std::size_t v = 0; v < affected.size(); ++v)
    if (affected[v]) affected_list.push_back(static_cast<int>(v));
  for (int v : affected_list)
    agents_[static_cast<std::size_t>(v)].reset_discovery();
  discover(affected_list);
  channel_.charge_timeslots(horizon);
}

void DistributedRuntime::on_wire_change(
    std::span<const int> touched, const std::vector<char>& active_vertices) {
  MHCA_ASSERT(cfg_.membership == MembershipMode::kViewSync,
              "on_wire_change requires membership = view_sync (omniscient "
              "runs take on_topology_change)");
  const Graph& h = ecg_.graph();
  MHCA_ASSERT(static_cast<int>(active_vertices.size()) == h.size(),
              "activity mask mismatch");
  const auto own_neighbors = [&](int v) {
    const auto nb = h.neighbors(v);
    return std::vector<int>(nb.begin(), nb.end());
  };
  for (std::size_t v = 0; v < agents_.size(); ++v) {
    const bool was = agents_[v].active();
    const bool now = active_vertices[v] != 0;
    agents_[v].set_active(now);
    if (now && !was) {
      // Back on the air: link-layer truth only, everything else solicited.
      agents_[v].refresh_own_neighbors(own_neighbors(static_cast<int>(v)));
      agents_[v].on_rejoin();
    }
  }
  std::erase_if(prev_strategy_, [&](int v) {
    return active_vertices[static_cast<std::size_t>(v)] == 0;
  });
  // Touched agents learn their own new direct-neighbor sets — a node knows
  // who it can hear — and nothing more. Who left the (2r+1)-hop horizon,
  // who entered it: that is for hellos, timeouts and view changes to
  // establish over the (possibly faulty) wire.
  for (int v : touched) {
    if (active_vertices[static_cast<std::size_t>(v)] == 0) continue;
    agents_[static_cast<std::size_t>(v)].refresh_own_neighbors(
        own_neighbors(v));
  }
}

void DistributedRuntime::flood_pending_hellos(bool include_keepalives) {
  const int horizon = 2 * cfg_.r + 1;
  for (auto& a : agents_) {
    if (!a.active()) continue;
    bool send = a.take_hello_pending();
    if (include_keepalives &&
        (t_ + a.id()) % keepalive_interval_ == 0)
      send = true;
    if (!send) continue;
    Message hello = make_hello(a.id());
    hello.solicit = a.take_solicit();
    channel_.flood(hello, horizon,
                   [this](int to, const Message& m) { route(to, m); });
  }
}

void DistributedRuntime::membership_phase() {
  const int horizon = 2 * cfg_.r + 1;
  obs::TraceRecorder* const tr = obs::trace();
  obs::ScopedSpan span(tr, obs::kTidRuntime, "net.hello");
  // Delayed deliveries of earlier slots land first: the membership phase is
  // where a faulty wire's stragglers surface.
  channel_.begin_slot(t_, [this](int to, const Message& m) { route(to, m); });
  // Keep-alives (staggered so the channel is not saturated in lockstep)
  // plus link-change re-advertisements queued since last round.
  flood_pending_hellos(/*include_keepalives=*/true);
  // Liveness: silence past the timeout turns members into suspects; due
  // probes flood now, each a hello addressed at one suspect.
  for (auto& a : agents_) {
    if (!a.active()) continue;
    for (int target : a.liveness_pass(t_)) {
      if (tr) {
        char b[72];
        std::snprintf(b, sizeof(b), "{\"agent\":%d,\"suspect\":%d}", a.id(),
                      target);
        tr->instant(obs::kTidRuntime, "net.suspect_probe", b);
      }
      Message probe = make_hello(a.id());
      probe.probe_target = target;
      channel_.flood(probe, horizon,
                     [this](int to, const Message& m) { route(to, m); });
    }
  }
  // Same-round responses: probed or solicited agents re-advertise.
  flood_pending_hellos(/*include_keepalives=*/false);
  // Install accumulated membership changes (one rebuild + one view advance
  // per agent per phase, however many admissions/evictions piled up) and
  // announce the new views.
  for (auto& a : agents_)
    if (a.active()) a.flush_membership();
  for (auto& a : agents_) {
    if (!a.active() || !a.take_view_dirty()) continue;
    Message vc = make_hello(a.id());
    vc.type = MsgType::kViewChange;
    vc.view = a.view();
    // Evictions surface here: each completed probe cycle ends in a view
    // bump announced by this flood.
    if (tr) {
      char b[96];
      std::snprintf(b, sizeof(b),
                    "{\"agent\":%d,\"view_seq\":%" PRId64 ",\"rep\":%d}",
                    a.id(), vc.view.seq, vc.view.representative);
      tr->instant(obs::kTidRuntime, "net.view_change", b);
    }
    channel_.flood(vc, horizon,
                   [this](int to, const Message& m) { route(to, m); });
  }
  // View-change payloads may have admitted members in turn; install those
  // too (their announcements go out next round).
  for (auto& a : agents_)
    if (a.active()) a.flush_membership();
  channel_.charge_timeslots(horizon);
}

std::size_t DistributedRuntime::max_table_size() const {
  std::size_t best = 0;
  for (const auto& a : agents_) best = std::max(best, a.table_size());
  return best;
}

MemoryFootprint DistributedRuntime::memory_footprint() const {
  MemoryFootprint out;
  for (const auto& a : agents_) {
    out.member_lists += a.member_list_bytes();
    out.tables += a.table_bytes();
    out.local_graphs += a.local_graph_bytes();
  }
  out.index_memo = static_cast<std::int64_t>(index_memo_.size() *
                                             sizeof(IndexMemoEntry));
  return out;
}

RuntimeCounters DistributedRuntime::counters() const {
  RuntimeCounters out;
  for (const auto& a : agents_) {
    out.retries += a.counters().retries;
    out.timeouts += a.counters().timeouts;
    out.view_changes += a.counters().view_changes;
    out.stale_decisions += a.counters().stale_decisions;
  }
  return out;
}

NetRoundResult DistributedRuntime::step() {
  ++t_;
  const int k_arms = ecg_.num_vertices();
  const int horizon = 2 * cfg_.r + 1;
  const bool view_sync = cfg_.membership == MembershipMode::kViewSync;

  obs::TraceRecorder* const tr = obs::trace();
  char targs[48];
  if (tr)
    std::snprintf(targs, sizeof(targs), "{\"round\":%" PRId64 "}", t_);
  obs::ScopedSpan round_span(tr, obs::kTidRuntime, "net.round",
                             tr ? std::string(targs) : std::string());

  if (view_sync) membership_phase();

  // --- WB: previous strategy's vertices flood refreshed statistics. ---
  const auto deliver = [this](int to, const Message& m) { route(to, m); };
  if (t_ > 1) {
    obs::ScopedSpan wb_span(tr, obs::kTidRuntime, "net.weight_broadcast");
    // A view-sync update carries its sender's view, which an earlier update
    // of this phase can still advance (receivers adopt newer views), so each
    // is framed only after its predecessors landed: one exchange per update.
    // Omniscient updates read nothing a delivery changes and share one
    // exchange. prev_strategy_ is sorted, so either way the replay order is
    // ascending origin; every shard agrees on t_ > 1 and on the membership
    // mode, so every shard reaches the same barriers.
    std::vector<FloodFrame> frames;
    for (int v : prev_strategy_) {
      if (owns(v)) {
        Message wu;
        wu.type = MsgType::kWeightUpdate;
        wu.origin = v;
        wu.round = t_;
        if (view_sync) wu.view = agents_[static_cast<std::size_t>(v)].view();
        wu.mean = agents_[static_cast<std::size_t>(v)].own_mean();
        wu.count = agents_[static_cast<std::size_t>(v)].own_count();
        frames.push_back(make_frame(wu, horizon));
      }
      if (view_sync) exchange_and_replay(std::exchange(frames, {}), deliver);
    }
    if (!view_sync) exchange_and_replay(std::move(frames), deliver);
  }
  // Each vertex's index, once, from its owner's statistics: every agent
  // holding an identical copy takes it instead of recomputing it.
  for (std::size_t v = 0; v < agents_.size(); ++v) {
    const VertexAgent& a = agents_[v];
    index_memo_[v] = IndexMemoEntry{
        a.own_mean(), a.own_count(),
        policy_->index_from(a.own_mean(), a.own_count(), a.id(), t_, k_arms)};
  }
  for (auto& a : agents_) a.begin_round(*policy_, t_, k_arms, index_memo_);

  // --- D mini-rounds of Algorithm 3. ---
  MwisSolver& local_solver =
      cfg_.local_solver == LocalSolverKind::kExact
          ? static_cast<MwisSolver&>(exact_)
          : static_cast<MwisSolver&>(greedy_);
  NetRoundResult out;
  out.round = t_;
  int mr = 0;
  while (cfg_.D == 0 || mr < cfg_.D) {
    bool any_candidate = false;
    for (const auto& a : agents_) {
      if (a.status() == VertexStatus::kCandidate) {
        any_candidate = true;
        break;
      }
    }
    if (!any_candidate) break;
    ++mr;

    // LS/LD: self-election + declaration flood. Each shard elects its owned
    // candidates and learns the rest from the exchanged declares — the
    // merged (ascending-origin) list is the global one, because
    // should_lead() reads only replicated table state and a declaration
    // changes none.
    std::vector<int> leaders;
    {  // election span scope (a `break` below unwinds it correctly)
    if (tr) std::snprintf(targs, sizeof(targs), "{\"mini_round\":%d}", mr);
    obs::ScopedSpan election_span(tr, obs::kTidRuntime, "net.election",
                                  tr ? std::string(targs) : std::string());
    std::vector<FloodFrame> frames;
    for (const auto& a : agents_) {
      if (!owns(a.id()) || !a.should_lead()) continue;
      Message ld;
      ld.type = MsgType::kLeaderDeclare;
      ld.origin = a.id();
      ld.round = t_;
      if (view_sync) ld.view = a.view();
      frames.push_back(make_frame(ld, horizon));
    }
    leaders = exchange_and_replay(std::move(frames), deliver);
    // On a reliable omniscient channel the globally best candidate always
    // elects itself. Under message loss, stale tables can leave every
    // candidate believing a (long-marked) heavier neighbor is still in the
    // race; under view-sync, unreaped ghosts and suspect-conservatism can
    // suppress every election — a livelock a real deployment breaks by
    // timeout; we end the decision.
    MHCA_ASSERT(!leaders.empty() || unreliable(),
                "a candidate of maximal weight must elect itself");
    if (leaders.empty()) break;
    channel_.charge_timeslots(horizon);
    }  // election span scope

    // LMWIS + LB. Under loss, an earlier leader's verdict this mini-round
    // may already have demoted a later "leader" (they can end up close
    // together when declarations were dropped) — it must then stand down.
    // That dependency forces one exchange *per leader* (an earlier leader's
    // replayed verdict can demote a later one before its turn); the skip
    // decision reads replicated status, so every shard agrees on which
    // leaders reach their barrier.
    if (tr)
      std::snprintf(targs, sizeof(targs), "{\"leaders\":%zu}",
                    leaders.size());
    obs::ScopedSpan det_span(tr, obs::kTidRuntime, "net.determination",
                             tr ? std::string(targs) : std::string());
    for (int v : leaders) {
      VertexAgent& leader = agents_[static_cast<std::size_t>(v)];
      if (leader.status() != VertexStatus::kCandidate) continue;
      std::vector<FloodFrame> frames;
      if (owns(v)) {
        // Only the owner runs the local MWIS solve; the verdict travels to
        // every other shard as wire bytes. 3r+2: winner-adjacent losers sit
        // up to r+1 hops from the leader and must reach every holder of
        // their status (2r+1 further hops).
        Message det;
        det.type = MsgType::kDetermination;
        det.origin = v;
        det.round = t_;
        if (view_sync) det.view = leader.view();
        det.statuses = leader.lead(local_solver);
        frames.push_back(make_frame(det, 3 * cfg_.r + 2));
      }
      exchange_and_replay(std::move(frames), deliver,
                          [&leader](const Message& det) {
                            leader.on_determination(det);
                          });
    }
    channel_.charge_timeslots(3 * cfg_.r + 2);
  }
  out.mini_rounds = mr;

  // --- Data transmission + observation. ---
  obs::ScopedSpan tx_span(tr, obs::kTidRuntime, "net.tx");
  out.all_marked = true;
  for (auto& a : agents_) {
    if (a.status() == VertexStatus::kWinner) {
      // Graceful degradation: a Winner whose view moved since its verdict,
      // or with suspects outstanding, cannot trust that every contender was
      // in the race it won — it abstains rather than risk a double-claim.
      if (!a.transmit_ok()) {
        a.note_stale_abstain();
        ++out.tx_abstained;
        continue;
      }
      out.strategy.push_back(a.id());
    } else if (a.status() == VertexStatus::kCandidate) {
      out.all_marked = false;
    }
  }
  out.conflict = !ecg_.graph().is_independent_set(out.strategy);
  MHCA_ASSERT(!out.conflict || unreliable(),
              "protocol produced a conflicting strategy on a reliable "
              "control channel");
  for (int v : out.strategy) {
    const double x =
        model_.sample(ecg_.master_of(v), ecg_.channel_of(v), t_);
    agents_[static_cast<std::size_t>(v)].observe(x);
    out.observed_sum += x;
  }
  prev_strategy_ = out.strategy;
  return out;
}

}  // namespace mhca::net
