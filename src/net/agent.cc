#include "net/agent.h"

#include <algorithm>

#include "graph/hop.h"
#include "util/assert.h"

namespace mhca::net {

namespace {

/// Resolves a stream of global ids against the sorted member list. The
/// streams this agent sees (advertised neighbor lists, a leader's verdicts)
/// are ascending runs, so each lookup gallops forward from the previous
/// hit — O(log gap) — and only an id smaller than its predecessor restarts
/// the search at the front.
class MemberCursor {
 public:
  explicit MemberCursor(const std::vector<int>& members)
      : begin_(members.begin()), end_(members.end()), lo_(begin_) {}

  /// Local id of `v`, or -1 when v is not a member.
  int find(int v) {
    if (v < prev_) lo_ = begin_;
    prev_ = v;
    std::ptrdiff_t step = 1;
    while (step < end_ - lo_ && lo_[step] < v) {
      lo_ += step;
      step *= 2;
    }
    lo_ = std::lower_bound(lo_, step < end_ - lo_ ? lo_ + step : end_, v);
    return lo_ != end_ && *lo_ == v ? static_cast<int>(lo_ - begin_) : -1;
  }

 private:
  std::vector<int>::const_iterator begin_, end_, lo_;
  int prev_ = -1;
};

}  // namespace

VertexAgent::VertexAgent(int id, int r, MembershipMode mode,
                         LivenessParams liveness)
    : id_(id), r_(r), mode_(mode), liveness_(liveness) {
  MHCA_ASSERT(id >= 0, "negative vertex id");
  MHCA_ASSERT(r >= 1, "r must be at least 1");
  if (mode_ == MembershipMode::kViewSync) {
    MHCA_ASSERT(liveness_.hello_timeout_slots >= 2,
                "hello_timeout_slots = " +
                    std::to_string(liveness_.hello_timeout_slots) +
                    " must be >= 2 (keep-alives go out every "
                    "hello_timeout_slots - 1 rounds)");
    MHCA_ASSERT(liveness_.hello_max_retries >= 0,
                "hello_max_retries must be >= 0");
    MHCA_ASSERT(liveness_.backoff_base >= 1, "backoff_base must be >= 1");
  }
}

void VertexAgent::on_hello(const Message& msg) {
  MHCA_ASSERT(mode_ == MembershipMode::kOmniscient,
              "on_hello is the omniscient-discovery path; view-sync hellos "
              "go through on_membership_message");
  MHCA_ASSERT(!discovered_, "hello after discovery finalized");
  hellos_.push_back(
      Hello{msg.origin, static_cast<std::uint32_t>(hello_neighbors_.size()),
            static_cast<std::uint32_t>(msg.neighbor_list.size()), msg.mean,
            msg.count});
  hello_neighbors_.insert(hello_neighbors_.end(), msg.neighbor_list.begin(),
                          msg.neighbor_list.end());
}

void VertexAgent::reset_discovery() {
  MHCA_ASSERT(discovered_, "reset_discovery before initial discovery");
  discovered_ = false;
  hellos_.clear();
  hello_neighbors_.clear();
  own_neighbors_.clear();
}

void VertexAgent::set_own_neighbors(std::vector<int> neighbors) {
  own_neighbors_ = std::move(neighbors);
}

void VertexAgent::build_structures(std::vector<std::span<const int>>& rows) {
  // Splice self into the sorted run of other members.
  const auto at = std::lower_bound(members_.begin(), members_.end(), id_);
  MHCA_ASSERT(at == members_.end() || *at != id_, "self listed as a member");
  self_local_ = static_cast<int>(at - members_.begin());
  members_.insert(at, id_);
  rows.insert(rows.begin() + self_local_, own_neighbors_);

  // Map every advertised neighbor list onto local ids and build the local
  // graph from those claims in one pass (union semantics: an edge either
  // endpoint advertises exists, as stale view-sync lists can disagree).
  std::vector<std::int64_t> offsets;
  offsets.reserve(members_.size() + 1);
  offsets.push_back(0);
  std::vector<int> claims;
  for (const std::span<const int> row : rows) {
    MemberCursor cursor(members_);
    for (int u : row)
      if (const int lu = cursor.find(u); lu >= 0) claims.push_back(lu);
    offsets.push_back(static_cast<std::int64_t>(claims.size()));
  }
  local_graph_ = Graph::from_claims(static_cast<int>(members_.size()),
                                    offsets, claims);
  table_.assign(members_.size(), Entry{});

  // Keep the r-ball (computed on the *local* subgraph — identical to
  // global r-hop distance because every shortest path of length <= r stays
  // inside J_{2r+1}(me)): it is static between membership changes, while
  // indices change every round.
  BfsScratch scratch(local_graph_.size());
  r_ball_local_ = scratch.k_hop_neighborhood(local_graph_, self_local_, r_);
}

void VertexAgent::finalize_discovery() {
  MHCA_ASSERT(!discovered_, "discovery finalized twice");
  if (mode_ == MembershipMode::kViewSync) {
    // Initial discovery filled knowledge_ silently (no view bumps while the
    // whole network introduces itself at once); one rebuild closes it.
    rebuild_local_view();
    needs_rebuild_ = false;
    membership_changed_ = false;
    discovered_ = true;
    return;
  }
  // Sort the hellos by origin and keep one per origin: of repeated
  // deliveries (duplicates) the last one wins.
  std::stable_sort(hellos_.begin(), hellos_.end(),
                   [](const Hello& a, const Hello& b) {
                     return a.origin < b.origin;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < hellos_.size(); ++i) {
    if (i + 1 < hellos_.size() && hellos_[i + 1].origin == hellos_[i].origin)
      continue;
    if (kept != i) hellos_[kept] = std::move(hellos_[i]);
    ++kept;
  }
  hellos_.resize(kept);

  members_.clear();
  members_.reserve(hellos_.size() + 1);
  std::vector<std::span<const int>> rows;
  rows.reserve(hellos_.size() + 1);
  for (const Hello& h : hellos_) {
    members_.push_back(h.origin);
    rows.emplace_back(hello_neighbors_.data() + h.begin, h.size);
  }
  build_structures(rows);

  // Seed each entry from the hello's carried statistics: zeros at initial
  // discovery (nothing learned yet), the sender's live (µ̃, m) when a
  // topology change brought it into this agent's horizon mid-run.
  for (std::size_t j = 0; j < hellos_.size(); ++j) {
    Entry& e = table_[other_slot(j)];
    e.mean = hellos_[j].mean;
    e.count = hellos_[j].count;
  }
  // Release the discovery buffers (clear() alone keeps their capacity).
  std::vector<Hello>().swap(hellos_);
  std::vector<int>().swap(hello_neighbors_);
  discovered_ = true;
}

void VertexAgent::rebuild_local_view() {
  members_.clear();
  members_.reserve(knowledge_.size() + 1);
  std::vector<std::span<const int>> rows;
  rows.reserve(knowledge_.size() + 1);
  for (const auto& [m, k] : knowledge_) {  // ordered by id
    members_.push_back(m);
    rows.emplace_back(k.neighbors);
  }
  build_structures(rows);

  std::size_t j = 0;
  for (const auto& [m, k] : knowledge_) {
    Entry& e = table_[other_slot(j++)];
    e.mean = k.mean;
    e.count = k.count;
  }
}

int VertexAgent::member_slot(int global) const {
  if (global == id_) return -1;
  const auto it = std::lower_bound(members_.begin(), members_.end(), global);
  if (it == members_.end() || *it != global) return -1;
  return static_cast<int>(it - members_.begin());
}

// ---------------------------------------------- view-synchronous membership

void VertexAgent::maybe_adopt(const ViewId& v) {
  if (v > view_) view_ = v;
}

void VertexAgent::bump_view() {
  view_ = ViewId{view_.seq + 1, id_};
  view_dirty_ = true;
  ++counters_.view_changes;
}

std::int64_t VertexAgent::backoff_delay(int attempt) const {
  std::int64_t d = 1;
  for (int i = 0; i < attempt; ++i) {
    d *= liveness_.backoff_base;
    if (d > 1'000'000) return 1'000'000;  // cap: schedules stay finite
  }
  return d;
}

void VertexAgent::on_membership_message(const Message& msg,
                                        std::int64_t now) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "membership messages require view-sync mode");
  if (msg.origin == id_) return;
  maybe_adopt(msg.view);
  if (msg.probe_target == id_ || msg.solicit) hello_pending_ = true;

  const auto it = knowledge_.find(msg.origin);
  if (it == knowledge_.end()) {
    MemberKnowledge k;
    k.neighbors = msg.neighbor_list;
    k.mean = msg.mean;
    k.count = msg.count;
    k.last_heard = msg.round;
    k.last_hello_round = msg.round;
    knowledge_.emplace(msg.origin, std::move(k));
    if (discovered_) {
      // Admission: a node entered this agent's horizon mid-run.
      needs_rebuild_ = true;
      membership_changed_ = true;
    }
    return;
  }

  MemberKnowledge& k = it->second;
  k.last_heard = std::max(k.last_heard, msg.round);
  if (k.suspect && now - k.last_heard <= liveness_.hello_timeout_slots) {
    k.suspect = false;
    k.probes_sent = 0;
    --suspect_count_;
  }
  // Statistics are count-monotonic: a member's count only grows and its
  // mean is a function of its count, so "newer" is decidable without
  // trusting delivery order — duplicated or delayed payloads never regress.
  if (msg.count >= k.count) {
    k.count = msg.count;
    k.mean = msg.mean;
    const int lv = member_slot(msg.origin);
    if (lv >= 0) {
      table_[static_cast<std::size_t>(lv)].mean = msg.mean;
      table_[static_cast<std::size_t>(lv)].count = msg.count;
    }
  }
  // Adjacency is round-monotonic: accept only payloads at least as new as
  // the newest already applied (a delayed hello must not resurrect edges).
  if (msg.round >= k.last_hello_round) {
    k.last_hello_round = msg.round;
    if (msg.neighbor_list != k.neighbors) {
      k.neighbors = msg.neighbor_list;
      needs_rebuild_ = true;
    }
  }
}

std::vector<int> VertexAgent::liveness_pass(std::int64_t now) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "liveness_pass requires view-sync mode");
  std::vector<int> probes;
  std::vector<int> evict;
  for (auto& [m, k] : knowledge_) {
    if (now - k.last_heard <= liveness_.hello_timeout_slots) {
      if (k.suspect) {
        k.suspect = false;
        k.probes_sent = 0;
        --suspect_count_;
      }
      continue;
    }
    if (!k.suspect) {
      k.suspect = true;
      k.probes_sent = 0;
      k.next_probe = now;
      ++suspect_count_;
      ++counters_.timeouts;
    }
    if (now < k.next_probe) continue;
    if (k.probes_sent < liveness_.hello_max_retries) {
      probes.push_back(m);
      ++k.probes_sent;
      ++counters_.retries;
      k.next_probe = now + backoff_delay(k.probes_sent);
    } else {
      evict.push_back(m);
    }
  }
  for (int m : evict) {
    const auto it = knowledge_.find(m);
    if (it->second.suspect) --suspect_count_;
    knowledge_.erase(it);
    needs_rebuild_ = true;
    membership_changed_ = true;
  }
  return probes;
}

void VertexAgent::flush_membership() {
  if (!needs_rebuild_) return;
  rebuild_local_view();
  needs_rebuild_ = false;
  if (membership_changed_) {
    membership_changed_ = false;
    bump_view();
  }
}

bool VertexAgent::take_view_dirty() {
  const bool was = view_dirty_;
  view_dirty_ = false;
  return was;
}

bool VertexAgent::take_hello_pending() {
  const bool was = hello_pending_;
  hello_pending_ = false;
  return was;
}

bool VertexAgent::take_solicit() {
  const bool was = solicit_pending_;
  solicit_pending_ = false;
  return was;
}

void VertexAgent::on_rejoin() {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "on_rejoin requires view-sync mode");
  // Whatever this agent believed before going dark is stale; restart from
  // its own link-layer truth and ask the neighborhood to re-introduce
  // itself (solicited hellos).
  knowledge_.clear();
  suspect_count_ = 0;
  needs_rebuild_ = true;
  membership_changed_ = true;
  hello_pending_ = true;
  solicit_pending_ = true;
}

void VertexAgent::refresh_own_neighbors(std::vector<int> neighbors) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "refresh_own_neighbors requires view-sync mode");
  if (neighbors == own_neighbors_) return;
  own_neighbors_ = std::move(neighbors);
  needs_rebuild_ = true;
  hello_pending_ = true;  // a real radio beacons on link change
}

bool VertexAgent::transmit_ok() const {
  if (mode_ != MembershipMode::kViewSync) return true;
  return !has_suspects() && decision_view_ == view_;
}

std::pair<double, std::int64_t> VertexAgent::member_stats(int v) const {
  if (mode_ == MembershipMode::kViewSync) {
    const auto it = knowledge_.find(v);
    MHCA_ASSERT(it != knowledge_.end(), "member_stats of unknown member");
    return {it->second.mean, it->second.count};
  }
  const int lv = member_slot(v);
  MHCA_ASSERT(lv >= 0, "member_stats of unknown member");
  const Entry& e = table_[static_cast<std::size_t>(lv)];
  return {e.mean, e.count};
}

VertexStatus VertexAgent::member_status(int v) const {
  const int lv = member_slot(v);
  MHCA_ASSERT(lv >= 0, "member_status of unknown member");
  return table_[static_cast<std::size_t>(lv)].status;
}

const std::vector<int>* VertexAgent::member_neighbors(int v) const {
  const auto it = knowledge_.find(v);
  return it == knowledge_.end() ? nullptr : &it->second.neighbors;
}

// --------------------------------------------------------- round lifecycle

void VertexAgent::observe(double reward) {
  const double m_old = static_cast<double>(count_);
  ++count_;
  mean_ = (mean_ * m_old + reward) / static_cast<double>(count_);
}

void VertexAgent::begin_round(const IndexPolicy& policy, std::int64_t t,
                              int num_arms) {
  MHCA_ASSERT(discovered_, "begin_round before discovery");
  round_now_ = t;
  // An off-air node never contends: it enters every round pre-marked. Its
  // vertices are isolated by then (dynamics removed their edges), so no
  // live agent's table still lists them as competition.
  status_ = active_ ? VertexStatus::kCandidate : VertexStatus::kLoser;
  own_index_ = policy.index_from(mean_, count_, id_, t, num_arms);
  for (std::size_t i = 0; i < table_.size(); ++i) {
    if (static_cast<int>(i) == self_local_) continue;
    Entry& e = table_[i];
    e.status = VertexStatus::kCandidate;
    e.index = policy.index_from(e.mean, e.count, members_[i], t, num_arms);
  }
  if (mode_ == MembershipMode::kViewSync && active_ && has_suspects())
    ++counters_.stale_decisions;  // this round is decided under a stale view
}

void VertexAgent::on_weight_update(const Message& msg) {
  if (mode_ == MembershipMode::kViewSync) {
    maybe_adopt(msg.view);
    const auto kit = knowledge_.find(msg.origin);
    if (kit == knowledge_.end()) return;  // evicted; a keep-alive readmits
    MemberKnowledge& k = kit->second;
    k.last_heard = std::max(k.last_heard, msg.round);
    if (msg.count < k.count) return;  // delayed/duplicated: stale payload
    k.mean = msg.mean;
    k.count = msg.count;
  }
  const int lv = member_slot(msg.origin);
  if (lv < 0) return;  // beyond my 2r+1 horizon
  Entry& e = table_[static_cast<std::size_t>(lv)];
  e.mean = msg.mean;
  e.count = msg.count;
}

bool VertexAgent::should_lead() const {
  if (status_ != VertexStatus::kCandidate) return false;
  // Conservative degradation: while membership is uncertain, never claim
  // leadership — a ghost entry might outrank this agent in reality, and a
  // missed contender is how double-claims happen.
  if (mode_ == MembershipMode::kViewSync && has_suspects()) return false;
  const std::pair<double, int> my_key{own_index_, -id_};
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (e.status != VertexStatus::kCandidate ||
        static_cast<int>(i) == self_local_)
      continue;
    if (std::pair<double, int>{e.index, -members_[i]} > my_key) return false;
  }
  return true;
}

void VertexAgent::gather_local_candidates() {
  MHCA_ASSERT(status_ == VertexStatus::kCandidate, "non-candidate leading");
  cand_buf_.clear();
  weight_buf_.assign(static_cast<std::size_t>(local_graph_.size()), 0.0);
  for (const int lv : r_ball_local_) {
    if (lv == self_local_) {
      cand_buf_.push_back(lv);
      weight_buf_[static_cast<std::size_t>(lv)] = own_index_;
    } else {
      const Entry& e = table_[static_cast<std::size_t>(lv)];
      if (e.status == VertexStatus::kCandidate) {
        cand_buf_.push_back(lv);
        weight_buf_[static_cast<std::size_t>(lv)] = e.index;
      }
    }
  }
}

std::vector<StatusEntry> VertexAgent::verdicts_from(const MwisResult& res) {
  std::vector<char> is_winner(static_cast<std::size_t>(local_graph_.size()), 0);
  for (int lv : res.vertices) is_winner[static_cast<std::size_t>(lv)] = 1;
  std::vector<char> decided(static_cast<std::size_t>(local_graph_.size()), 0);
  std::vector<StatusEntry> verdicts;
  verdicts.reserve(cand_buf_.size());
  for (int lv : cand_buf_) {
    decided[static_cast<std::size_t>(lv)] = 1;
    verdicts.push_back(StatusEntry{
        members_[static_cast<std::size_t>(lv)],
        is_winner[static_cast<std::size_t>(lv)] ? VertexStatus::kWinner
                                                : VertexStatus::kLoser});
  }
  // Centralized-PTAS removal rule: Candidates adjacent to a fresh Winner
  // lose as well (they may sit at distance r+1, still inside the table).
  for (int lw : res.vertices) {
    for (int lu : local_graph_.neighbors(lw)) {
      if (decided[static_cast<std::size_t>(lu)]) continue;
      const VertexStatus st = lu == self_local_
                                  ? status_
                                  : table_[static_cast<std::size_t>(lu)].status;
      if (st != VertexStatus::kCandidate) continue;
      decided[static_cast<std::size_t>(lu)] = 1;
      verdicts.push_back(StatusEntry{members_[static_cast<std::size_t>(lu)],
                                     VertexStatus::kLoser});
    }
  }
  return verdicts;
}

std::vector<StatusEntry> VertexAgent::lead(MwisSolver& solver) {
  gather_local_candidates();
  const MwisResult res = solver.solve(local_graph_, weight_buf_, cand_buf_);
  return verdicts_from(res);
}

void VertexAgent::on_determination(const Message& msg) {
  if (mode_ == MembershipMode::kViewSync) {
    maybe_adopt(msg.view);
    // A verdict from any round but the current one is a delayed wire's
    // ghost: the statuses it names were re-randomized at begin_round.
    if (msg.round != round_now_) return;
  }
  // Verdicts list the leader's candidates in ascending id order, then the
  // winner-adjacent losers (ascending per winner): one cursor resolves them.
  MemberCursor cursor(members_);
  for (const StatusEntry& e : msg.statuses) {
    if (e.vertex == id_) {
      status_ = e.status;
      decision_view_ = msg.view;
      continue;
    }
    if (const int lv = cursor.find(e.vertex); lv >= 0)
      table_[static_cast<std::size_t>(lv)].status = e.status;
  }
}

}  // namespace mhca::net
