#include "mwis/distributed_ptas.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/cpufeatures.h"
#include "util/parallel.h"
#include "util/simd_scan.h"

namespace mhca {
namespace {

/// Order-preserving 64-bit encoding of a weight: for non-NaN doubles,
/// enc(a) < enc(b) ⟺ a < b and enc(a) == enc(b) ⟺ a == b (-0.0 is
/// collapsed onto +0.0 first, matching `==`). Every real weight — even
/// -inf, which maps to 0x000fffffffffffff — encodes strictly above 0, so 0
/// serves as the "not a candidate" sentinel in the SoA key array.
std::uint64_t election_key(double w) {
  if (w == 0.0) w = 0.0;
  const auto b = std::bit_cast<std::uint64_t>(w);
  return (b >> 63) != 0 ? ~b : (b | (std::uint64_t{1} << 63));
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

DistributedRobustPtas::DistributedRobustPtas(const Graph& h,
                                             DistributedPtasConfig cfg)
    : h_(h),
      cfg_(cfg),
      exact_(cfg.bnb_node_cap),  // solves go through solve_with_scratch
      scratch_(h.size()) {
  MHCA_ASSERT(cfg_.r >= 1, "r must be at least 1");
  MHCA_ASSERT(cfg_.max_mini_rounds >= 0, "negative mini-round budget");
  MHCA_ASSERT(cfg_.local_solve_parallelism >= 0, "negative parallelism");
  MHCA_ASSERT(cfg_.cache_build_parallelism >= 0, "negative parallelism");
  MHCA_ASSERT(!cfg_.use_memoized_covers,
              "use_memoized_covers is retired: memoized clique covers were "
              "removed");
  cache_ = NeighborhoodCache(h, cfg_.r, cfg_.cache_build_parallelism);
  // SoA election state is allocated once here and epoch-reset per decision
  // (see the header note); the graph's vertex count is fixed for the
  // engine's lifetime.
  const auto n = static_cast<std::size_t>(h.size());
  election_keys_.assign(n, 0);
  chain_head_.assign(n, -1);
  chain_next_.assign(n, -1);
  has_chain_.assign((n + 63) / 64, 0);
  cursor_.assign(n, {});
  soa_stamp_.assign(n, 0);
}

int DistributedRobustPtas::lb_ball_size(int v) {
  if (lb_ball_size_.empty())
    lb_ball_size_.assign(static_cast<std::size_t>(h_.size()), -1);
  int& s = lb_ball_size_[static_cast<std::size_t>(v)];
  if (s < 0) {
    scratch_.k_hop_neighborhood(h_, v, 3 * cfg_.r + 2, ball_buf_);
    s = static_cast<int>(ball_buf_.size());
  }
  return s;
}

std::int64_t DistributedRobustPtas::weight_broadcast_messages(
    std::span<const int> prev_winners) {
  std::int64_t msgs = 0;
  for (int v : prev_winners) msgs += cache_.election_ball_size(v);
  return msgs;
}

void DistributedRobustPtas::elect_by_cache(
    const std::vector<VertexStatus>& status, std::vector<int>& leaders,
    bool first_round) {
  const std::uint64_t* keys = election_keys_.data();
  // SIMD dispatch level, resolved once per election (one relaxed load). The
  // vector kernels are pure block filters — every flagged block is
  // re-inspected scalar with the exact predicate — so the blocker positions
  // (hence decisions) are byte-identical at every level
  // (tests/tiered_simd_differential_test.cc sweeps them).
  const util::SimdLevel simd = util::simd_level();
  const std::size_t simd_bw = util::simd_block_width(simd);

  // Lazy per-decision reset: the first touch of a vertex this decision
  // clears its chain head and scan cursors; later touches are no-ops. This
  // replaces five O(n) array reassignments per decision with
  // O(vertices actually classified or chained onto) stamped writes.
  const auto touch = [&](int u) {
    const auto ui = static_cast<std::size_t>(u);
    if (soa_stamp_[ui] != soa_epoch_) {
      soa_stamp_[ui] = soa_epoch_;
      chain_head_[ui] = -1;
      cursor_[ui] = {};
    }
  };

  // Scan candidate v for a blocking element and either record the blocker
  // (chaining v onto the blocker's rescan list) or crown v a leader.
  //
  // An element blocks v iff its key beats kv, or ties it with a lower id
  // (balls are ascending, so a tied element before v's own position has
  // the lower id). Keys only ever *decrease* within a decision (marked
  // vertices drop to the sentinel), so every element scanned past without
  // blocking can never block later — rescans resume where the last scan
  // stopped instead of re-reading the dead prefix; each candidate pays at
  // most one amortized pass per tier per decision. Tier 1 is the r-ball
  // (a subset of the election ball at a quarter of the memory footprint):
  // virtually every non-leader finds a blocker among these nearest
  // members; only candidates whose r-ball is exhausted pay tier 2, the
  // full election ball.
  const auto classify = [&](int v) {
    const std::uint64_t kv = keys[v];
    // First blocking position in arr at or after `from`, or arr.size().
    // The common element is strictly below kv — one compare; only the rare
    // >= kv element pays the tie-break test, and the deep tail runs a
    // blockwise branch-light max (one rarely-taken branch per 4 members; a
    // block whose max only *ties* kv still needs inspecting — it may hold
    // a tied lower id, or just v itself).
    const auto scan_for_blocker = [&](std::span<const int> arr,
                                      std::size_t from) -> std::size_t {
      const std::size_t sz = arr.size();
      std::size_t i = from;
      const std::size_t prefix = std::min<std::size_t>(sz, i + 8);
      for (; i < prefix; ++i) {
        const std::uint64_t k = keys[arr[i]];
        if (k < kv) continue;
        if (k > kv || arr[i] < v) return i;
      }
      if (simd_bw != 0) {
        while (true) {
          i = util::simd_skip_below(keys, arr.data(), i, sz, kv, simd);
          if (i + simd_bw > sz) break;
          // The block holds some key >= kv: inspect it scalar (a tie that
          // is v itself, or a higher id, does not block — keep going).
          for (std::size_t j = i; j < i + simd_bw; ++j) {
            const std::uint64_t k = keys[arr[j]];
            if (k < kv) continue;
            if (k > kv || arr[j] < v) return j;
          }
          i += simd_bw;
        }
      } else
      for (; i + 4 <= sz; i += 4) {
        const std::uint64_t m01 = std::max(keys[arr[i]], keys[arr[i + 1]]);
        const std::uint64_t m23 =
            std::max(keys[arr[i + 2]], keys[arr[i + 3]]);
        if (std::max(m01, m23) < kv) continue;
        for (std::size_t j = i; j < i + 4; ++j) {
          const std::uint64_t k = keys[arr[j]];
          if (k < kv) continue;
          if (k > kv || arr[j] < v) return j;
        }
      }
      for (; i < sz; ++i) {
        const std::uint64_t k = keys[arr[i]];
        if (k < kv) continue;
        if (k > kv || arr[i] < v) return i;
      }
      return sz;
    };
    const auto chain_onto = [&](int b) {
      touch(b);  // a stale chain head from a previous decision must not leak
      const auto bi = static_cast<std::size_t>(b);
      chain_next_[static_cast<std::size_t>(v)] = chain_head_[bi];
      chain_head_[bi] = v;
      has_chain_[bi / 64] |= std::uint64_t{1} << (bi % 64);
    };
    touch(v);
    ScanCursor& cur = cursor_[static_cast<std::size_t>(v)];
    // Tier 0: immediate neighbors. Roughly deg/(deg+1) of all candidates
    // are outranked by a 1-hop neighbor, and the CSR row is a compact
    // shared array (2|E| ints) instead of the multi-megabyte ball storage.
    const auto nbrs = h_.neighbors(v);
    if (static_cast<std::size_t>(cur.nbr) < nbrs.size()) {
      const std::size_t pos =
          scan_for_blocker(nbrs, static_cast<std::size_t>(cur.nbr));
      cur.nbr = static_cast<int>(pos);
      if (pos < nbrs.size()) {
        chain_onto(nbrs[pos]);
        return;
      }
    }
    // Tiny r-balls (small r / sparse regions) aren't worth the extra
    // resume cursor — the election ball itself is only a few cache lines.
    // The gate depends only on the (static) ball size, so a candidate's
    // tier choice is stable across rounds and the resume invariants hold.
    const auto rball = cache_.r_ball(v);
    if (rball.size() >= 24 && static_cast<std::size_t>(cur.rball) < rball.size()) {
      const std::size_t pos =
          scan_for_blocker(rball, static_cast<std::size_t>(cur.rball));
      cur.rball = static_cast<int>(pos);
      if (pos < rball.size()) {
        chain_onto(rball[pos]);
        return;
      }
    }
    if (cache_.eball_tier() == NeighborhoodCache::EballTier::kExplicit) {
      const auto ball = cache_.election_ball(v);
      const std::size_t pos =
          scan_for_blocker(ball, static_cast<std::size_t>(cur.eball));
      if (pos == ball.size()) {
        leaders.push_back(v);
      } else {
        cur.eball = static_cast<int>(pos);
        chain_onto(ball[pos]);
      }
      return;
    }
    // Implicit e-ball tier: the (2r+1)-ball is not stored — enumerate it
    // with an early-exit BFS and stop at the first blocker. No resume
    // cursor here (the traversal is fresh each time), but verdicts are
    // unchanged: a candidate leads iff *no* live ball member outranks it,
    // which is scan-order independent, and whichever blocker gets chained
    // only schedules the rescan — keys only decrease within a decision, so
    // v is re-examined no later than the death of its last blocker either
    // way. Tier 2 is rare (the r-ball already blocks nearly everyone), so
    // the BFS re-walk trades a negligible slice of election time for the
    // ~n·|J_{2r+1}| ints the explicit spans would occupy.
    const int blocker = scratch_.k_hop_find(
        h_, v, 2 * cfg_.r + 1, [&](int u) {
          const std::uint64_t k = keys[u];
          return k > kv || (k == kv && u < v);
        });
    if (blocker < 0)
      leaders.push_back(v);
    else
      chain_onto(blocker);
  };

  if (first_round) {
    const int n = h_.size();
    for (int v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate)
        classify(v);
    }
    return;  // ascending by construction
  }
  // Later rounds are event-driven: only candidates whose blocker died last
  // mini-round can change verdict (an alive blocker still outranks them),
  // and those are exactly the chains of the vertices that left candidacy.
  // Chain nodes are saved before classify() re-chains them, so the walk
  // survives the mutation; dead chain members are skipped (their own chain,
  // if any, is walked when their death is processed). The `has_chain_`
  // bitmap pre-filters deaths with no blockees: the gather/solve/apply
  // phases evict the election arrays between rounds, and a few hundred
  // bytes of bitmap re-warm far cheaper than one cold chain_head_ line per
  // death.
  // The gather/solve phases of the previous round evicted the election
  // arrays, so the rescans' memory chain (cursor -> row start -> keys) is
  // all cold, dependent misses. Collecting the worklist first and running
  // a short prefetch lookahead overlaps them instead of serializing.
  rescan_buf_.clear();
  for (const int c : died_) {
    const auto ci = static_cast<std::size_t>(c);
    if (((has_chain_[ci / 64] >> (ci % 64)) & 1u) == 0) continue;
    // has_chain_ bits are never bulk-cleared, so one may survive from an
    // earlier decision; a chain head is only meaningful where the vertex
    // carries this decision's stamp (touch() resets the head on first use).
    if (soa_stamp_[ci] != soa_epoch_) continue;
    has_chain_[ci / 64] &= ~(std::uint64_t{1} << (ci % 64));
    int w = chain_head_[ci];
    chain_head_[ci] = -1;
    while (w >= 0) {
      const int nw = chain_next_[static_cast<std::size_t>(w)];
      if (status[static_cast<std::size_t>(w)] == VertexStatus::kCandidate) {
        rescan_buf_.push_back(w);
        __builtin_prefetch(&cursor_[static_cast<std::size_t>(w)]);
        __builtin_prefetch(&election_keys_[static_cast<std::size_t>(w)]);
      }
      w = nw;
    }
  }
  constexpr std::size_t kRowAhead = 4;
  constexpr std::size_t kKeyAhead = 2;
  for (std::size_t i = 0; i < rescan_buf_.size(); ++i) {
    if (i + kRowAhead < rescan_buf_.size()) {
      // Cursor lines were prefetched during collection; by now they are
      // close enough to read, so aim the next prefetch at the scan's first
      // target: the candidate's CSR neighbor segment at its resume point.
      const int w2 = rescan_buf_[i + kRowAhead];
      const auto nb = h_.neighbors(w2);
      const auto at = static_cast<std::size_t>(
          cursor_[static_cast<std::size_t>(w2)].nbr);
      if (at < nb.size()) __builtin_prefetch(nb.data() + at);
    }
    if (i + kKeyAhead < rescan_buf_.size()) {
      // Two steps behind the row prefetch the segment is warm: read the
      // first few neighbor ids and prefetch their keys — the key array is
      // freshly evicted by the solve phase, and these gathers are the
      // scan's serial dependent loads.
      const int w1 = rescan_buf_[i + kKeyAhead];
      const auto nb = h_.neighbors(w1);
      const auto at = static_cast<std::size_t>(
          cursor_[static_cast<std::size_t>(w1)].nbr);
      const std::size_t end = std::min(nb.size(), at + 4);
      for (std::size_t k = at; k < end; ++k)
        __builtin_prefetch(&election_keys_[static_cast<std::size_t>(nb[k])]);
    }
    classify(rescan_buf_[i]);
  }
  // Chain-walk order is arbitrary; the protocol elects in ascending id
  // order, and apply order is observable.
  std::sort(leaders.begin(), leaders.end());
}

void DistributedRobustPtas::gather_local_instances(
    const std::vector<int>& leaders, const std::vector<VertexStatus>& status) {
  gather_cands_.clear();
  gather_offsets_.clear();
  gather_offsets_.reserve(leaders.size() + 1);
  gather_offsets_.push_back(0);
  for (const int leader : leaders) {
    for (const int v : cache_.r_ball(leader))
      if (status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate)
        gather_cands_.push_back(v);
    gather_offsets_.push_back(gather_cands_.size());
  }
}

void DistributedRobustPtas::solve_local_instances(
    const std::vector<int>& leaders, std::span<const double> weights) {
  solve_results_.resize(leaders.size());
  const auto instance = [&](std::size_t li) {
    return std::span<const int>(gather_cands_)
        .subspan(gather_offsets_[li],
                 gather_offsets_[li + 1] - gather_offsets_[li]);
  };

  if (cfg_.local_solver == LocalSolverKind::kGreedy) {
    for (std::size_t li = 0; li < leaders.size(); ++li)
      solve_results_[li] = greedy_.solve(h_, weights, instance(li));
    return;
  }

  const auto solve_one = [&](std::size_t li, SolveScratch& scratch) {
    solve_results_[li] =
        exact_.solve_with_scratch(h_, weights, instance(li), scratch);
  };

  int workers = cfg_.local_solve_parallelism;
  if (workers == 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers == 0) workers = 1;
  }
  workers = std::min<int>(workers, static_cast<int>(leaders.size()));
  if (static_cast<std::size_t>(workers) > worker_scratch_.size())
    worker_scratch_.resize(static_cast<std::size_t>(workers));
  if (workers <= 1) {
    for (std::size_t li = 0; li < leaders.size(); ++li)
      solve_one(li, worker_scratch_[0]);
    return;
  }
  // Strided fan-out: worker j owns leaders j, j+W, ... with its own scratch.
  // Output slots are disjoint, so any schedule yields identical results.
  parallel_run(
      workers,
      [&](int j) {
        for (std::size_t li = static_cast<std::size_t>(j);
             li < leaders.size(); li += static_cast<std::size_t>(workers))
          solve_one(li, worker_scratch_[static_cast<std::size_t>(j)]);
      },
      workers);
}

void DistributedRobustPtas::on_graph_delta(std::span<const int> touched) {
  cache_.apply_delta(h_, touched);
  // Scoped invalidation of the cached LB flood ball sizes, mirroring the
  // cache's: |J_{3r+2}(v)| can only change if v is within 3r+2 hops of a
  // touched vertex on the old or the new graph, and one BFS on the new
  // graph covers both — `touched` contains both endpoints of every removed
  // edge, so an old-graph path from touched survives intact from its last
  // removed edge on (whose far endpoint is itself touched), making
  // old-graph reach a subset of new-graph reach.
  if (lb_ball_size_.empty()) return;
  scratch_.multi_source_k_hop(h_, touched, 3 * cfg_.r + 2, reach_buf_);
  for (int v : reach_buf_) lb_ball_size_[static_cast<std::size_t>(v)] = -1;
}

DistributedPtasResult DistributedRobustPtas::run(
    std::span<const double> weights, std::span<const char> active) {
  const auto t_entry = Clock::now();
  DecisionStageTimes acc;  // this decision's buckets; folded in at the end
  const int n = h_.size();
  MHCA_ASSERT(static_cast<int>(weights.size()) == n, "weight vector mismatch");
  MHCA_ASSERT(active.empty() || static_cast<int>(active.size()) == n,
              "activity mask mismatch");
  const int r = cfg_.r;
  const bool timed = cfg_.collect_stage_times;

  // Tracing (src/obs): one relaxed load per decision; every span below is
  // purely observational — no branch of the protocol depends on `tr`.
  obs::TraceRecorder* const tr = obs::trace();
  if (tr) {
    char a[64];
    std::snprintf(a, sizeof(a), "{\"n\":%d,\"r\":%d}", n, r);
    tr->begin(obs::kTidEngine, "ptas.decision", a);
    tr->begin(obs::kTidEngine, "ptas.setup");
  }

  std::vector<VertexStatus> status(static_cast<std::size_t>(n),
                                   VertexStatus::kCandidate);
  int candidates = n;
  if (!active.empty()) {
    for (int v = 0; v < n; ++v) {
      if (!active[static_cast<std::size_t>(v)]) {
        status[static_cast<std::size_t>(v)] = VertexStatus::kLoser;
        --candidates;
      }
    }
  }

  DistributedPtasResult res;
  std::vector<int> leaders;

  // Materialize the SoA election keys for this decision; elect_by_cache
  // maintains them incrementally across mini-rounds, fed by the status
  // flips the apply phase records in changed_/died_. The blocker chains
  // and scan cursors are *not* reassigned here — bumping soa_epoch_
  // invalidates them all, and each vertex's entries reset lazily on first
  // touch (five O(n) array fills used to dominate decision setup at 50k
  // vertices). election_keys_ needs no stamp: it is all-zero between
  // decisions, so the fill below writes candidate keys only.
  if (++soa_epoch_ == 0) {  // wrap: stale stamps could alias the new epoch
    std::fill(soa_stamp_.begin(), soa_stamp_.end(), 0);
    soa_epoch_ = 1;
  }
  died_.clear();
  for (int v = 0; v < n; ++v) {
    if (status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate)
      election_keys_[static_cast<std::size_t>(v)] =
          election_key(weights[static_cast<std::size_t>(v)]);
  }
  if (tr) tr->end(obs::kTidEngine);  // ptas.setup
  if (timed) acc.setup_ms = ms_since(t_entry);

  int mini_round = 0;
  while (candidates > 0 &&
         (cfg_.max_mini_rounds == 0 || mini_round < cfg_.max_mini_rounds)) {
    ++mini_round;
    MiniRoundRecord rec;
    rec.mini_round = mini_round;

    // --- LocalLeader selection (LS): max over the (2r+1)-hop ball. ---
    auto t0 = Clock::now();
    if (tr) {
      char a[48];
      std::snprintf(a, sizeof(a), "{\"mini_round\":%d}", mini_round);
      tr->begin(obs::kTidEngine, "ptas.election", a);
    }
    leaders.clear();
    elect_by_cache(status, leaders, /*first_round=*/mini_round == 1);
    MHCA_ASSERT(!leaders.empty(),
                "a candidate of globally maximal weight must elect itself");
    rec.leaders = static_cast<int>(leaders.size());
    if (tr) tr->end(obs::kTidEngine);  // ptas.election
    if (timed) acc.election_ms += ms_since(t0);

    // --- Local MWIS (LMWIS): gather instances, then solve. Leaders' balls
    // are pairwise disjoint and non-adjacent (Theorem 3), so no leader's
    // verdict can change another's instance: gathering everything up front
    // and fanning the solves out is equivalent to the sequential protocol.
    if (timed) t0 = Clock::now();
    if (tr) tr->begin(obs::kTidEngine, "ptas.gather");
    gather_local_instances(leaders, status);
    if (tr) tr->end(obs::kTidEngine);  // ptas.gather
    if (timed) {
      acc.gather_ms += ms_since(t0);
      t0 = Clock::now();
    }
    if (tr) {
      char a[48];
      std::snprintf(a, sizeof(a), "{\"leaders\":%d}", rec.leaders);
      tr->begin(obs::kTidEngine, "ptas.solve", a);
    }
    solve_local_instances(leaders, weights);
    if (tr) tr->end(obs::kTidEngine);  // ptas.solve
    if (timed) {
      acc.solve_ms += ms_since(t0);
      t0 = Clock::now();
    }
    if (tr) tr->begin(obs::kTidEngine, "ptas.apply");

    // --- Status determination (LB), applied in election order. ---
    changed_.clear();
    for (std::size_t li = 0; li < leaders.size(); ++li) {
      const int leader = leaders[li];
      const MwisResult& local = solve_results_[li];
      res.solver_nodes_explored += local.nodes_explored;
      if (cfg_.local_solver == LocalSolverKind::kExact && !local.exact)
        res.all_local_solves_exact = false;
      // Winners first, then every remaining candidate in the ball loses.
      for (int v : local.vertices) {
        status[static_cast<std::size_t>(v)] = VertexStatus::kWinner;
        changed_.push_back(v);
        res.winners.push_back(v);
        res.weight += weights[static_cast<std::size_t>(v)];
        --candidates;
        ++rec.new_winners;
      }
      const auto cands_begin = gather_offsets_[li];
      const auto cands_end = gather_offsets_[li + 1];
      for (std::size_t ci = cands_begin; ci < cands_end; ++ci) {
        const int v = gather_cands_[ci];
        if (status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate) {
          status[static_cast<std::size_t>(v)] = VertexStatus::kLoser;
          changed_.push_back(v);
          --candidates;
          ++rec.new_losers;
        }
      }
      // Mirror the centralized PTAS's removal rule: every Candidate
      // adjacent to a fresh Winner becomes a Loser, even if it lies just
      // outside A_r (at distance r+1 from the leader). Without this, a
      // later mini-round could crown a winner conflicting with this one.
      for (int w : local.vertices) {
        for (int u : h_.neighbors(w)) {
          if (status[static_cast<std::size_t>(u)] == VertexStatus::kCandidate) {
            status[static_cast<std::size_t>(u)] = VertexStatus::kLoser;
            changed_.push_back(u);
            --candidates;
            ++rec.new_losers;
          }
        }
      }
      if (cfg_.count_messages) {
        rec.messages += cache_.election_ball_size(leader);  // LD flood
        rec.messages += lb_ball_size(leader);               // LB flood
      }
    }
    // Election maintenance, O(status flips): a vertex leaving candidacy
    // stops contributing to ball maxima, so its SoA key drops to the
    // sentinel; the flips become the next election's rescan seeds (their
    // chains hold exactly the candidates these deaths may unblock). The
    // next election runs immediately after this loop, so prefetching each
    // death's chain head here hides the misses the solve phase just
    // inflicted on the election arrays.
    for (int c : changed_) {
      const auto ci = static_cast<std::size_t>(c);
      election_keys_[ci] = 0;
#if defined(__GNUC__)
      __builtin_prefetch(&has_chain_[ci / 64]);
      __builtin_prefetch(&chain_head_[ci]);
#endif
    }
    std::swap(died_, changed_);
    if (tr) tr->end(obs::kTidEngine);  // ptas.apply
    if (timed) acc.apply_ms += ms_since(t0);

    rec.candidates_remaining = candidates;
    rec.cumulative_weight = res.weight;
    res.total_messages += rec.messages;
    // LS takes 2r+1 mini-timeslots, LB 3r+2 (§IV-C gives 3r+1 for marks at
    // distance <= r; winner-adjacent losers sit one hop further out).
    res.total_mini_timeslots += (2 * r + 1) + (3 * r + 2);
    res.mini_rounds.push_back(rec);
  }

  // An early exit on the mini-round budget leaves unmarked candidates with
  // live keys; restore the all-zero invariant the next decision's key fill
  // relies on.
  if (candidates > 0) {
    for (int v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] == VertexStatus::kCandidate)
        election_keys_[static_cast<std::size_t>(v)] = 0;
    }
  }

  res.mini_rounds_used = mini_round;
  res.all_marked = candidates == 0;
  const auto t_validate = Clock::now();
  if (tr) tr->begin(obs::kTidEngine, "ptas.validate");
  std::sort(res.winners.begin(), res.winners.end());
  MHCA_ASSERT(h_.is_independent_set(res.winners),
              "distributed PTAS produced a conflicting strategy");
  if (tr) tr->end(obs::kTidEngine);  // ptas.validate
  if (timed) {
    acc.validate_ms = ms_since(t_validate);
    // `other` is measured, not assumed: whatever this run spent outside
    // the named buckets (loop bookkeeping, record pushes, timer overhead).
    acc.other_ms =
        std::max(0.0, ms_since(t_entry) - (acc.setup_ms + acc.election_ms +
                                           acc.gather_ms + acc.solve_ms +
                                           acc.apply_ms + acc.validate_ms));
    stage_times_.setup_ms += acc.setup_ms;
    stage_times_.election_ms += acc.election_ms;
    stage_times_.gather_ms += acc.gather_ms;
    stage_times_.solve_ms += acc.solve_ms;
    stage_times_.apply_ms += acc.apply_ms;
    stage_times_.validate_ms += acc.validate_ms;
    stage_times_.other_ms += acc.other_ms;
    // The seventh bucket is a remainder, not an interval — in the timeline
    // it is the gap inside ptas.decision; the instant carries its size.
    if (tr) {
      char a[48];
      std::snprintf(a, sizeof(a), "{\"other_ms\":%.3f}", acc.other_ms);
      tr->instant(obs::kTidEngine, "ptas.other", a);
    }
  }
  if (tr) tr->end(obs::kTidEngine);  // ptas.decision
  return res;
}

}  // namespace mhca
