// perfbench harness: runs benchmark scenarios through the simulator's public
// entry points and prints one JSON object of raw measurements on stdout.
// perfbench/run.py generates the scenarios, builds this program, turns the
// raw samples into metrics and checks the outputs.
//
//   perfbench_harness --engine lockstep|net --seconds S --trace 0|1
//                     [--min-samples N] [--check-lockstep] SCENARIO.ini...
//
// --trace 0 (end-to-end): every scenario runs once, in order, through the
// path a user runs; the list is then cycled again until S seconds have
// passed and at least N per-slot samples exist. Lockstep runs go through
// ScenarioRunner::run_with with a delegating ChannelModel that timestamps the
// first sample() of each slot (a slot's strategy is decided exactly then).
// --net runs construct a ScenarioRunner and a DistributedRuntime and time
// each round (dynamics + step()). Setup runs from the start of ScenarioRunner
// construction until slot 1 is decided.
//
// --trace 1 (per layer): scenarios run in pairs, cycling until S seconds
// have passed and N decisions (lockstep) or rounds (net) are traced. Each
// pair runs the scenario, in alternating order, untraced through the user path
// (ScenarioRunner::run_with / run_net), then through a mirror of the same
// loop that times every call into a module from here (a ledger of nested
// scopes with self times) with obs::set_trace / obs::set_metrics installed,
// so the program's own spans (net.*, flood.*) and registry keys (channel.*,
// membership.*) split the --net rounds further. A wall-clock stack sampler
// splits what those spans leave uncovered inside a DistributedRuntime call
// among the functions that call makes. The pair must agree on every decision
// fingerprint.
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bandit/estimates.h"
#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "mwis/distributed_ptas.h"
#include "net/runtime.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "scenario/registries.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/cpufeatures.h"
#include "util/hash.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mhca;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::uint64_t strategy_hash(const std::vector<int>& strategy) {
  std::uint64_t h = 0x57A7E61ULL;
  for (int v : strategy) h = hash_combine(h, static_cast<std::uint64_t>(v));
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ groups

/// Ledger scopes that wrap one whole DistributedRuntime call. Their self
/// time is the call's time outside every program span, which the spans
/// cannot explain; the stack sampler splits it among the functions the
/// call's entry function calls.
enum Group : int { kNoGroup = 0, kStep, kDiscovery, kRediscovery, kGroups };

struct GroupSpec {
  const char* scope;                 ///< Ledger scope name.
  std::vector<std::string> entries;  ///< Demangled entry functions.
};

const GroupSpec& group_spec(int g) {
  static const GroupSpec specs[kGroups] = {
      {"", {}},
      {"net.step", {"mhca::net::DistributedRuntime::step"}},
      {"net.discovery",
       {"mhca::net::DistributedRuntime::DistributedRuntime",
        "mhca::net::DistributedRuntime::discover"}},
      {"net.rediscovery",
       {"mhca::net::DistributedRuntime::on_wire_change",
        "mhca::net::DistributedRuntime::on_topology_change"}},
  };
  return specs[g];
}

int group_of(const char* scope) {
  for (int g = 1; g < kGroups; ++g)
    if (std::strcmp(scope, group_spec(g).scope) == 0) return g;
  return kNoGroup;
}

/// The innermost open ledger scope's group; read by the sampler's signal
/// handler on the same thread.
std::atomic<int> g_group{kNoGroup};

// ------------------------------------------------------------------ ledger

/// Nested wall-clock scopes with self times: a scope's self time is its
/// duration minus the time of the scopes, leaves and program spans recorded
/// inside it. The root scope's self time is what no layer accounts for.
class Ledger {
 public:
  struct Entry {
    double self_s = 0.0;
    double incl_s = 0.0;
    std::int64_t count = 0;
  };

  void open(const char* name) {
    stack_.push_back({name, Clock::now(), 0.0});
    g_group.store(group_of(name), std::memory_order_relaxed);
  }

  /// Closes the innermost scope and returns its duration in seconds.
  double close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    g_group.store(stack_.empty() ? kNoGroup : group_of(stack_.back().name),
                  std::memory_order_relaxed);
    const double d = seconds_between(f.start, Clock::now());
    Entry& e = entries_[f.name];
    e.incl_s += d;
    e.self_s += d - f.child_s;
    ++e.count;
    if (!stack_.empty()) stack_.back().child_s += d;
    return d;
  }

  /// Time measured elsewhere (per-call accumulators, engine stage clocks)
  /// that belongs inside the innermost open scope.
  void add_leaf(const std::string& name, double seconds, std::int64_t count) {
    Entry& e = entries_[name];
    e.self_s += seconds;
    e.incl_s += seconds;
    e.count += count;
    if (!stack_.empty()) stack_.back().child_s += seconds;
  }

  /// Merges per-name span totals digested from the program's trace; `top_s`
  /// is the time covered by the outermost of those spans.
  void add_spans(const std::map<std::string, Entry>& spans, double top_s) {
    for (const auto& [name, s] : spans) {
      Entry& e = entries_[name];
      e.self_s += s.self_s;
      e.incl_s += s.incl_s;
      e.count += s.count;
    }
    if (!stack_.empty()) stack_.back().child_s += top_s;
  }

  /// Benchmark-only work (trace digestion) inside the innermost scope: it
  /// is subtracted from that scope and from the wall the coverage divides.
  void add_excluded(double seconds) {
    excluded_s_ += seconds;
    if (!stack_.empty()) stack_.back().child_s += seconds;
  }

  const std::map<std::string, Entry>& entries() const { return entries_; }
  double excluded_s() const { return excluded_s_; }

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::map<std::string, Entry> entries_;
  double excluded_s_ = 0.0;
};

/// RAII form of Ledger::open/close; a null ledger makes it a no-op, so the
/// untraced and traced loops share one body.
class Scope {
 public:
  Scope(Ledger* l, const char* name) : l_(l) {
    if (l_) l_->open(name);
  }
  ~Scope() {
    if (l_) l_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* l_;
};

// ----------------------------------------------------------------- sampler

/// Wall-clock stack sampler for traced --net runs. A timer signals the main
/// thread about every millisecond; while the innermost ledger scope belongs
/// to a group, the handler stores the time, the group and the call stack.
/// Samples are drained at every trace digest, right after each call.
class StackSampler {
 public:
  static constexpr int kDepth = 64;
  static constexpr int kCapacity = 1 << 14;
  static constexpr long kPeriodNs = 997'000;  // off any round-length beat

  struct Sample {
    Clock::time_point ts;
    int group = kNoGroup;
    int depth = 0;
    int first = 0;  ///< Index of the interrupted frame in pcs.
    void* pcs[kDepth];
  };

  StackSampler() : buf_(kCapacity) {
    void* warm[4];
    backtrace(warm, 4);  // loads the unwinder before a signal needs it
    instance_ = this;
    struct sigaction sa {};
    sa.sa_sigaction = &StackSampler::on_signal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
      throw std::runtime_error("sampler: sigaction failed");
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = gettid();
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0)
      throw std::runtime_error("sampler: timer_create failed");
    itimerspec its{};
    its.it_interval.tv_nsec = kPeriodNs;
    its.it_value.tv_nsec = kPeriodNs;
    timer_settime(timer_, 0, &its, nullptr);
  }

  ~StackSampler() {
    timer_delete(timer_);
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    sigaction(SIGPROF, &sa, nullptr);
    instance_ = nullptr;
  }

  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Stops taking samples until the next drain (benchmark-only work).
  void pause() {
    paused_.store(true, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }

  /// Calls fn on every sample taken since the last drain, forgets them and
  /// resumes sampling.
  template <typename Fn>
  void drain(Fn&& fn) {
    pause();
    const int n = std::min(n_.load(std::memory_order_relaxed), kCapacity);
    for (int i = 0; i < n; ++i) fn(buf_[static_cast<std::size_t>(i)]);
    n_.store(0, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    paused_.store(false, std::memory_order_relaxed);
  }

 private:
  static void on_signal(int, siginfo_t*, void* context) {
    const int saved_errno = errno;
    StackSampler* s = instance_;
    const int group = g_group.load(std::memory_order_relaxed);
    if (s != nullptr && group != kNoGroup &&
        !s->paused_.load(std::memory_order_relaxed)) {
      const int i = s->n_.load(std::memory_order_relaxed);
      if (i < kCapacity) {
        Sample& x = s->buf_[static_cast<std::size_t>(i)];
        x.ts = Clock::now();
        x.group = group;
        x.depth = backtrace(x.pcs, kDepth);
        const auto* uc = static_cast<const ucontext_t*>(context);
        const auto pc =
            reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
        x.first = 2;  // handler, signal trampoline, interrupted frame
        for (int k = 0; k < x.depth; ++k)
          if (x.pcs[k] == pc) {
            x.first = k;
            break;
          }
        s->n_.store(i + 1, std::memory_order_relaxed);
      }
    }
    errno = saved_errno;
  }

  static inline StackSampler* instance_ = nullptr;
  std::vector<Sample> buf_;
  std::atomic<int> n_{0};
  std::atomic<bool> paused_{false};
  timer_t timer_{};
};

/// Demangled name of the function containing pc, without its parameter
/// list; "" when the symbol is unknown.
std::string function_name(const void* pc) {
  static std::map<const void*, std::string> cache;
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  Dl_info info{};
  std::string name;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* d = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = status == 0 && d != nullptr ? d : info.dli_sname;
    std::free(d);
    while (name.size() > 6 && name.ends_with(" const"))
      name.resize(name.size() - 6);
    if (!name.empty() && name.back() == ')') {
      int depth = 0;  // cut at the '(' that opens the final parameter list
      for (std::size_t k = name.size(); k-- > 0;) {
        if (name[k] == ')') ++depth;
        if (name[k] == '(' && --depth == 0) {
          name.resize(k);
          break;
        }
      }
    }
  }
  cache.emplace(pc, name);
  return name;
}

/// Samples that landed in a group's self time (outside every program span
/// but net.round), split by the function the group's entry function was
/// calling. "(self)" is the entry function's own body, "(unknown)" a stack
/// the unwinder could not follow up to the entry.
struct Attribution {
  std::int64_t samples[kGroups] = {};
  std::map<std::string, std::int64_t> callees[kGroups];

  void add(const StackSampler::Sample& x) {
    const GroupSpec& spec = group_spec(x.group);
    int entry = -1;
    for (int k = x.depth - 1; k >= x.first; --k) {
      // A return address points past its call; step back into the call.
      const void* pc = static_cast<const char*>(x.pcs[k]) - (k > x.first);
      const std::string name = function_name(pc);
      if (std::find(spec.entries.begin(), spec.entries.end(), name) !=
          spec.entries.end())
        entry = k;
    }
    std::string callee = "(unknown)";
    if (entry == x.first) {
      callee = "(self)";
    } else if (entry > x.first) {
      const int k = entry - 1;
      callee = function_name(static_cast<const char*>(x.pcs[k]) -
                             (k > x.first));
      if (callee.empty()) callee = "(unknown)";
      if (callee.starts_with("mhca::")) callee.erase(0, 6);
    }
    ++samples[x.group];
    ++callees[x.group][callee];
  }
};

/// The traced side's recorder, with its time origin, and (--net) the
/// sampler and what it attributed.
struct Tracing {
  obs::TraceRecorder rec;
  Clock::time_point t0 = Clock::now();  ///< rec's origin, within a µs.
  std::unique_ptr<StackSampler> sampler;
  Attribution attr;
};

/// Folds the recorder's events into the ledger when `fold` is set
/// (per-span-name self times; one stack over every track, since all spans
/// come from this thread and nest in time), then clears the recorder. The
/// sampler's samples taken outside every span but net.round go to the
/// attribution. Returns the event count.
std::int64_t digest_trace(Tracing& tr, Ledger& ledger, bool fold) {
  const auto t0 = Clock::now();
  if (tr.sampler) tr.sampler->pause();
  obs::TraceRecorder& rec = tr.rec;
  const std::int64_t events = static_cast<std::int64_t>(rec.event_count());
  std::map<std::string, Ledger::Entry> spans;
  std::vector<std::pair<double, double>> covered;  // span intervals, seconds
  double top_s = 0.0;
  if (fold && events > 0) {
    obs::JsonValue doc;
    std::string err;
    if (!obs::parse_json(rec.to_json(), doc, &err))
      throw std::runtime_error("trace does not parse: " + err);
    const obs::JsonValue* list = doc.find("traceEvents");
    struct Open {
      std::string name;
      double ts;
      double child;
    };
    std::vector<Open> stack;
    for (const obs::JsonValue& ev : list->items) {
      const std::string& ph = ev.find("ph")->str;
      const double ts = ev.find("ts")->number * 1e-6;
      if (ph == "B") {
        stack.push_back({ev.find("name")->str, ts, 0.0});
      } else if (ph == "E") {
        const Open o = stack.back();
        stack.pop_back();
        const double d = ts - o.ts;
        Ledger::Entry& e = spans[o.name];
        e.incl_s += d;
        e.self_s += d - o.child;
        ++e.count;
        if (o.name != "net.round") covered.emplace_back(o.ts, ts);
        if (stack.empty())
          top_s += d;
        else
          stack.back().child += d;
      }
    }
    if (!stack.empty()) throw std::runtime_error("trace has an open span");
  }
  if (tr.sampler) {
    std::sort(covered.begin(), covered.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto& iv : covered) {
      if (!merged.empty() && iv.first <= merged.back().second)
        merged.back().second = std::max(merged.back().second, iv.second);
      else
        merged.push_back(iv);
    }
    tr.sampler->drain([&](const StackSampler::Sample& x) {
      const double ts = seconds_between(tr.t0, x.ts);
      const auto it = std::upper_bound(
          merged.begin(), merged.end(), std::make_pair(ts, 1e300));
      if (it != merged.begin() && ts <= std::prev(it)->second) return;
      tr.attr.add(x);
    });
  }
  rec.clear();
  ledger.add_spans(spans, top_s);
  ledger.add_excluded(seconds_between(t0, Clock::now()));
  return events;
}

// ------------------------------------------------------------ run records

/// One scenario run: what the end-to-end metrics and the checks need.
struct RunRecord {
  int scenario = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;             ///< Setup plus every slot/round.
  std::vector<double> slot_ms;     ///< Slots/rounds 2..N.
  std::int64_t slots = 0;
  std::int64_t users = 0;
  double total_observed = 0.0;
  std::int64_t messages = 0;
  std::int64_t conflicts = 0;
  std::int64_t winners = 0;        ///< Winners that transmitted.
  std::int64_t abstained = 0;      ///< Winners that abstained.
  std::vector<int> last_strategy;
  std::string fingerprint;
};

std::string lockstep_fingerprint(const std::vector<int>& strategy,
                                 double observed) {
  return hex64(strategy_hash(strategy)) + "-" + hex64(bits_of(observed));
}

std::string net_fingerprint(std::uint64_t trace_hash, std::uint64_t digest,
                            const std::vector<int>& strategy,
                            double observed) {
  return hex64(trace_hash) + "-" + hex64(digest) + "-" +
         lockstep_fingerprint(strategy, observed);
}

/// Delegating channel model that timestamps the first sample() of every
/// slot: the simulator samples a slot's winners right after deciding it.
class SlotClock final : public ChannelModel {
 public:
  explicit SlotClock(const ChannelModel& inner) : inner_(inner) {}

  int num_nodes() const override { return inner_.num_nodes(); }
  int num_channels() const override { return inner_.num_channels(); }
  double mean(int node, int channel, std::int64_t t = 1) const override {
    return inner_.mean(node, channel, t);
  }
  double sample(int node, int channel, std::int64_t t) const override {
    if (t != last_slot_) {
      marks_.emplace_back(t, Clock::now());
      last_slot_ = t;
    }
    return inner_.sample(node, channel, t);
  }
  double rate_scale_kbps() const override { return inner_.rate_scale_kbps(); }
  bool is_stationary() const override { return inner_.is_stationary(); }

  const std::vector<std::pair<std::int64_t, Clock::time_point>>& marks()
      const {
    return marks_;
  }

 private:
  const ChannelModel& inner_;
  mutable std::int64_t last_slot_ = 0;
  mutable std::vector<std::pair<std::int64_t, Clock::time_point>> marks_;
};

// ------------------------------------------------- end-to-end (user path)

RunRecord lockstep_user_run(const scenario::Scenario& s) {
  RunRecord r;
  const auto t0 = Clock::now();
  scenario::ScenarioRunner runner(s);
  SlotClock clock(runner.model());
  const SimulationResult res = runner.run_with(clock);
  const auto t_end = Clock::now();
  const auto& marks = clock.marks();
  if (marks.empty() || marks.front().first != 1)
    throw std::runtime_error("slot 1 transmitted nothing; no setup boundary");
  r.setup_s = seconds_between(t0, marks.front().second);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    // A slot without winners samples nothing; its time joins the next mark.
    const auto gap = marks[i].first - marks[i - 1].first;
    const double ms =
        seconds_between(marks[i - 1].second, marks[i].second) * 1e3 /
        static_cast<double>(gap);
    for (std::int64_t k = 0; k < gap; ++k) r.slot_ms.push_back(ms);
  }
  r.wall_s = seconds_between(t0, t_end);
  r.slots = res.total_slots;
  r.users = runner.network().num_nodes();
  r.total_observed = res.total_observed;
  r.messages = res.total_messages;
  r.last_strategy = res.last_strategy;
  r.fingerprint = lockstep_fingerprint(res.last_strategy, res.total_observed);
  return r;
}

// ------------------------------------------------- components (traced)

/// What ScenarioRunner's constructor builds, built call by call so each
/// layer gets its own scope (same Rng order: topology, then channel).
struct Components {
  ConflictGraph network;
  std::unique_ptr<ExtendedConflictGraph> ecg;
  std::unique_ptr<ChannelModel> model;
  std::unique_ptr<IndexPolicy> policy;
  std::unique_ptr<dynamics::DynamicNetwork> dyn;
};

Components build_components(const scenario::Scenario& s, Ledger* L) {
  Components c;
  {
    Scope build(L, "scenario.build");
    scenario::validate_fields(s);
    Rng rng(s.run.seed);
    {
      Scope sc(L, "graph.topology");
      c.network = scenario::topology_registry().create(
          s.topology.kind, s.topology.params, rng);
    }
    {
      Scope sc(L, "channel.build");
      const scenario::ChannelBuildContext ctx{c.network.num_nodes(),
                                              s.num_channels, s.run.slots};
      c.model = scenario::channel_registry().create(
          s.channel.kind, s.channel.params, ctx, rng);
    }
    {
      Scope sc(L, "graph.h_build");
      c.ecg = std::make_unique<ExtendedConflictGraph>(c.network,
                                                      s.num_channels);
    }
    c.policy = scenario::policy_registry().create(
        s.policy.kind, s.policy.params,
        scenario::PolicyBuildContext{c.network.num_nodes()});
  }
  if (scenario::is_dynamic(s)) {
    Scope sc(L, "dynamics.build");
    Rng rng(scenario::dynamics_seed_of(s, s.run.seed));
    const dynamics::DynamicsBuildContext ctx{&c.network, s.run.slots};
    c.dyn = std::make_unique<dynamics::DynamicNetwork>(
        c.network, s.num_channels,
        dynamics::dynamics_registry().create(s.dynamics.model.kind,
                                             s.dynamics.model.params, ctx,
                                             rng),
        s.dynamics.incremental);
    if (s.dynamics.batch && s.run.update_period > 1)
      c.dyn->set_batch_period(s.run.update_period);
  }
  return c;
}

// --------------------------------------------------- per-layer collection

/// DistributedRobustPtas::stage_times() buckets, as per-layer names.
constexpr std::pair<const char*, double DecisionStageTimes::*> kStages[] = {
    {"mwis.setup", &DecisionStageTimes::setup_ms},
    {"mwis.election", &DecisionStageTimes::election_ms},
    {"mwis.gather", &DecisionStageTimes::gather_ms},
    {"mwis.solve", &DecisionStageTimes::solve_ms},
    {"mwis.apply", &DecisionStageTimes::apply_ms},
    {"mwis.validate", &DecisionStageTimes::validate_ms},
    {"mwis.other", &DecisionStageTimes::other_ms},
};

/// Counts and samples the traced mirrors collect next to the ledger.
struct LayerStats {
  std::int64_t reps = 0;
  std::int64_t slots = 0;
  std::int64_t users = 0;
  std::int64_t decisions = 0;
  std::vector<double> decide_ms;
  std::int64_t mini_rounds = 0;
  std::int64_t leaders = 0;
  std::int64_t winners = 0;
  std::int64_t bnb_nodes = 0;
  std::int64_t exact_decisions = 0;
  std::int64_t changed_slots = 0;
  std::int64_t touched = 0;
  std::int64_t has_edge_calls = 0;
  std::int64_t h_vertices = 0;
  std::int64_t h_edges = 0;
  double cache_mb = 0.0;
  std::vector<double> step_ms;
  double max_table_size = 0.0;
  std::int64_t trace_events = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  obs::MetricsRegistry registry;  ///< channel.* / membership.* totals.
};

/// The lockstep Simulator's slot loop (sim/simulator.cc), with each module
/// call in its own ledger scope. Must decide exactly what the simulator
/// decides; the caller compares fingerprints. The simulator's index-sum
/// estimate series is left out: no decision reads it.
RunRecord lockstep_traced_run(const scenario::Scenario& s, Ledger& L,
                              LayerStats& st, Tracing& tr) {
  RunRecord r;
  const auto t0 = Clock::now();
  L.open("rep");
  Components c = build_components(s, &L);
  const ExtendedConflictGraph& ecg = c.dyn ? c.dyn->ecg() : *c.ecg;
  const Graph& h = ecg.graph();
  const SimulationConfig cfg = scenario::to_simulation_config(s);
  if (cfg.solver != SolverKind::kDistributedPtas)
    throw std::runtime_error("lockstep workloads use solver.kind=distributed");
  DistributedPtasConfig dcfg;
  dcfg.r = cfg.r;
  dcfg.max_mini_rounds = cfg.D;
  dcfg.local_solver = cfg.local_solver;
  dcfg.bnb_node_cap = cfg.bnb_node_cap;
  dcfg.count_messages = cfg.count_messages;
  dcfg.local_solve_parallelism = cfg.local_solve_parallelism;
  dcfg.use_memoized_covers = cfg.use_memoized_covers;
  dcfg.collect_stage_times = true;
  std::unique_ptr<DistributedRobustPtas> engine;
  {
    Scope sc(&L, "graph.cache_build");
    engine = std::make_unique<DistributedRobustPtas>(h, dcfg);
  }
  st.h_vertices += ecg.num_vertices();
  st.h_edges += h.num_edges();
  st.cache_mb +=
      static_cast<double>(engine->neighborhood_cache().resident_bytes()) /
      (1024.0 * 1024.0);

  const int k_arms = ecg.num_vertices();
  ArmEstimates est(k_arms);
  Rng rng(cfg.seed);
  std::vector<double> weights;
  std::vector<int> strategy;
  double sum_observed = 0.0;
  std::int64_t messages = 0;
  const bool dynamic = c.dyn != nullptr && c.dyn->dynamic();
  DecisionStageTimes prev_stages;
  auto slot_start = t0;
  for (std::int64_t t = 1; t <= cfg.slots; ++t) {
    L.open("sim.slot");
    if (dynamic && t > 1) {
      L.open("dynamics.advance");
      const dynamics::SlotChange& ch = c.dyn->advance(t);
      L.close();
      if (ch.changed) {
        ++st.changed_slots;
        st.touched += static_cast<std::int64_t>(ch.touched_vertices.size());
        L.open("mwis.delta");
        engine->on_graph_delta(ch.touched_vertices);
        L.close();
        if (!strategy.empty()) {
          Scope sc(&L, "sim.prune");
          const std::span<const char> mask = c.dyn->active_vertex_mask();
          std::vector<int> kept;
          kept.reserve(strategy.size());
          for (int v : strategy) {
            bool ok = mask.empty() || mask[static_cast<std::size_t>(v)] != 0;
            for (std::size_t i = 0; ok && i < kept.size(); ++i) {
              ++st.has_edge_calls;
              ok = !h.has_edge(v, kept[i]);
            }
            if (ok) kept.push_back(v);
          }
          strategy = std::move(kept);
        }
      }
    }
    const bool decision_slot = ((t - 1) % cfg.update_period) == 0;
    if (decision_slot) {
      {
        Scope sc(&L, "bandit.index");
        if (c.policy->randomize_round(t, rng)) {
          weights.resize(static_cast<std::size_t>(k_arms));
          for (auto& w : weights) w = rng.uniform();
        } else {
          c.policy->compute_indices(est, t, weights);
        }
      }
      const std::span<const char> mask =
          dynamic ? c.dyn->active_vertex_mask() : std::span<const char>{};
      if (cfg.count_messages && !strategy.empty()) {
        Scope sc(&L, "mwis.msg_count");
        messages += engine->weight_broadcast_messages(strategy);
      }
      L.open("mwis.decide");
      const auto d0 = Clock::now();
      DistributedPtasResult dres = engine->run(weights, mask);
      st.decide_ms.push_back(seconds_between(d0, Clock::now()) * 1e3);
      const DecisionStageTimes& now = engine->stage_times();
      for (const auto& [name, field] : kStages)
        L.add_leaf(name, (now.*field - prev_stages.*field) * 1e-3, 1);
      prev_stages = now;
      L.close();
      strategy = std::move(dres.winners);
      messages += dres.total_messages;
      ++st.decisions;
      st.mini_rounds += dres.mini_rounds_used;
      for (const MiniRoundRecord& m : dres.mini_rounds) st.leaders += m.leaders;
      st.winners += static_cast<std::int64_t>(strategy.size());
      st.bnb_nodes += dres.solver_nodes_explored;
      st.exact_decisions += dres.all_local_solves_exact ? 1 : 0;
    }
    // An output check, not simulator work: the slot's strategy must be an
    // independent set of the current H.
    const auto c0 = Clock::now();
    if (!h.is_independent_set(strategy)) ++r.conflicts;
    L.add_excluded(seconds_between(c0, Clock::now()));
    // Data transmission + observation, timed per call.
    double sample_s = 0.0, observe_s = 0.0;
    double observed = 0.0;
    for (int v : strategy) {
      const int node = ecg.master_of(v);
      const int chan = ecg.channel_of(v);
      const auto a = Clock::now();
      const double x = c.model->sample(node, chan, t);
      const auto b = Clock::now();
      est.observe(v, x);
      const auto d = Clock::now();
      (void)c.model->mean(node, chan, t);
      const auto e = Clock::now();
      sample_s += seconds_between(a, b) + seconds_between(d, e);
      observe_s += seconds_between(b, d);
      observed += x;
    }
    const auto n_tx = static_cast<std::int64_t>(strategy.size());
    L.add_leaf("channel.sample", sample_s, n_tx);
    L.add_leaf("bandit.observe", observe_s, n_tx);
    sum_observed += observed;
    // The engine's ptas.* spans duplicate its stage clock, already folded
    // in above, so they are only counted.
    st.trace_events += digest_trace(tr, L, /*fold=*/false);
    L.close();  // sim.slot
    const auto slot_end = Clock::now();
    if (t == 1)
      r.setup_s = seconds_between(t0, slot_end);
    else
      r.slot_ms.push_back(seconds_between(slot_start, slot_end) * 1e3);
    slot_start = slot_end;
  }
  L.close();  // rep
  r.wall_s = seconds_between(t0, Clock::now());
  r.slots = cfg.slots;
  r.users = ecg.num_nodes();
  r.total_observed = sum_observed;
  r.messages = messages;
  r.last_strategy = strategy;
  r.fingerprint = lockstep_fingerprint(strategy, sum_observed);
  st.slots += r.slots;
  st.users = r.users;
  ++st.reps;
  return r;
}

// --------------------------------------------------------------- --net

/// ScenarioRunner::run_net's round loop (scenario/runner.cc), timed per
/// round. `L` null = untraced; otherwise every call gets a ledger scope and
/// the recorder's spans are folded in after each call that floods.
RunRecord net_loop(const scenario::Scenario& s,
                   const ExtendedConflictGraph& ecg,
                   const ChannelModel& model, dynamics::DynamicNetwork* dyn,
                   Clock::time_point t0, Ledger* L, LayerStats* st,
                   Tracing* tr) {
  RunRecord r;
  const net::NetConfig cfg = scenario::to_net_config(s, ecg.num_nodes());
  const bool view_sync = cfg.membership == net::MembershipMode::kViewSync;
  const auto digest = [&] {
    if (L) st->trace_events += digest_trace(*tr, *L, /*fold=*/true);
  };
  std::unique_ptr<net::DistributedRuntime> runtime;
  {
    Scope sc(L, "net.discovery");
    runtime = std::make_unique<net::DistributedRuntime>(ecg, model, cfg);
    digest();
  }
  std::uint64_t decision_digest = 0xDEC15105;
  double total_observed = 0.0;
  std::vector<int> last;
  auto round_start = t0;
  for (std::int64_t round = 1; round <= s.run.slots; ++round) {
    if (dyn != nullptr && round > 1) {
      if (L) L->open("dynamics.advance");
      const dynamics::SlotChange& ch = dyn->advance(round);
      if (L) L->close();
      if (ch.changed) {
        if (st) {
          ++st->changed_slots;
          st->touched += static_cast<std::int64_t>(ch.touched_vertices.size());
        }
        Scope sc(L, "net.rediscovery");
        if (view_sync)
          runtime->on_wire_change(ch.touched_vertices, dyn->active_vertices());
        else
          runtime->on_topology_change(ch.touched_vertices,
                                      dyn->active_vertices());
        digest();
      }
    }
    net::NetRoundResult res;
    {
      Scope sc(L, "net.step");
      const auto a = Clock::now();
      res = runtime->step();
      if (st) st->step_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
      digest();
    }
    {
      Scope sc(L, "net.bookkeeping");
      total_observed += res.observed_sum;
      if (res.conflict) ++r.conflicts;
      r.abstained += res.tx_abstained;
      r.winners += static_cast<std::int64_t>(res.strategy.size());
      decision_digest = hash_combine(decision_digest,
                                     static_cast<std::uint64_t>(res.round));
      for (int v : res.strategy)
        decision_digest =
            hash_combine(decision_digest, static_cast<std::uint64_t>(v));
      last = std::move(res.strategy);
    }
    const auto round_end = Clock::now();
    if (round == 1)
      r.setup_s = seconds_between(t0, round_end);
    else
      r.slot_ms.push_back(seconds_between(round_start, round_end) * 1e3);
    round_start = round_end;
  }
  const net::ChannelStats& cs = runtime->channel_stats();
  r.slots = s.run.slots;
  r.users = ecg.num_nodes();
  r.total_observed = total_observed;
  r.messages = cs.messages;
  r.last_strategy = last;
  r.fingerprint = net_fingerprint(runtime->channel().trace_hash(),
                                  decision_digest, last, total_observed);
  if (st) {
    st->max_table_size = std::max(
        st->max_table_size, static_cast<double>(runtime->max_table_size()));
    obs::publish_channel_stats(st->registry, cs);
    obs::publish_membership_counters(st->registry, runtime->counters());
  }
  return r;
}

RunRecord net_user_run(const scenario::Scenario& s) {
  const auto t0 = Clock::now();
  scenario::ScenarioRunner runner(s);
  RunRecord r;
  if (scenario::is_dynamic(s)) {
    dynamics::DynamicNetwork dyn = runner.make_dynamic_network(s.run.seed);
    r = net_loop(s, dyn.ecg(), runner.model(), &dyn, t0, nullptr, nullptr,
                 nullptr);
  } else {
    r = net_loop(s, runner.extended_graph(), runner.model(), nullptr, t0,
                 nullptr, nullptr, nullptr);
  }
  r.wall_s = seconds_between(t0, Clock::now());
  return r;
}

RunRecord net_traced_run(const scenario::Scenario& s, Ledger& L,
                         LayerStats& st, Tracing& tr) {
  const auto t0 = Clock::now();
  L.open("rep");
  Components c = build_components(s, &L);
  const ExtendedConflictGraph& ecg = c.dyn ? c.dyn->ecg() : *c.ecg;
  RunRecord r = net_loop(s, ecg, *c.model, c.dyn.get(), t0, &L, &st, &tr);
  L.close();
  r.wall_s = seconds_between(t0, Clock::now());
  st.h_vertices += ecg.num_vertices();
  st.h_edges += ecg.graph().num_edges();
  st.slots += r.slots;
  st.users = r.users;
  ++st.reps;
  return r;
}

/// The untraced reference of a --trace 1 pair: ScenarioRunner's own entry
/// point, with the same fingerprint fields as the traced mirror.
RunRecord user_reference_run(const scenario::Scenario& s, bool net_engine) {
  if (!net_engine) return lockstep_user_run(s);
  const auto t0 = Clock::now();
  scenario::ScenarioRunner runner(s);
  const scenario::NetRunSummary sum = runner.run_net();
  RunRecord r;
  r.wall_s = seconds_between(t0, Clock::now());
  r.slots = sum.rounds;
  r.users = runner.network().num_nodes();
  r.total_observed = sum.total_observed;
  r.last_strategy = sum.last_strategy;
  r.fingerprint = net_fingerprint(sum.trace_hash, sum.decision_digest,
                                  sum.last_strategy, sum.total_observed);
  return r;
}

// ------------------------------------------------------------------ output

void append_record(std::string& out, const RunRecord& r) {
  out += "{\"scenario\":" + std::to_string(r.scenario);
  out += ",\"setup_s\":" + obs::json_number(r.setup_s);
  out += ",\"slots\":" + obs::json_number(r.slots);
  out += ",\"users\":" + obs::json_number(r.users);
  out += ",\"total_observed\":" + obs::json_number(r.total_observed);
  out += ",\"messages\":" + obs::json_number(r.messages);
  out += ",\"conflicts\":" + obs::json_number(r.conflicts);
  out += ",\"winners\":" + obs::json_number(r.winners);
  out += ",\"abstained\":" + obs::json_number(r.abstained);
  out += ",\"fingerprint\":" + obs::json_quote(r.fingerprint);
  out += ",\"slot_ms\":[";
  for (std::size_t i = 0; i < r.slot_ms.size(); ++i) {
    if (i) out += ',';
    out += obs::json_number(r.slot_ms[i]);
  }
  out += "]}";
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

/// A group's self time: its scope's, plus (step) the net.round span's time
/// outside the phase spans.
double group_self_s(const Ledger& L, int g) {
  double total = 0.0;
  for (const char* name : {group_spec(g).scope, g == kStep ? "net.round" : ""}) {
    const auto it = L.entries().find(name);
    if (it != L.entries().end()) total += it->second.self_s;
  }
  return total;
}

/// Seconds of group g's self time the samples put in `callee`.
double callee_s(const Ledger& L, const Attribution& attr, int g,
                const std::string& callee) {
  const auto it = attr.callees[g].find(callee);
  if (it == attr.callees[g].end()) return 0.0;
  return group_self_s(L, g) * static_cast<double>(it->second) /
         static_cast<double>(attr.samples[g]);
}

/// Group callees with a per-layer metric of their own; the rest of a
/// group's self time counts as unattributed in obs.coverage.
struct NamedCallee {
  int group;
  const char* callee;  ///< As Attribution names it.
  const char* metric;
};
const NamedCallee kNamedCallees[] = {
    {kStep, "net::VertexAgent::begin_round", "net.begin_round_ms"},
    {kDiscovery, "net::VertexAgent::finalize_discovery",
     "net.finalize_discovery_ms"},
};

/// Per-layer values, named as in perfbench/run.py's PER_LAYER table.
std::map<std::string, double> layer_values(const Ledger& L,
                                           const LayerStats& st,
                                           const Attribution& attr) {
  const auto& E = L.entries();
  const auto self_ms = [&](const char* name) {
    const auto it = E.find(name);
    return it == E.end() ? 0.0 : it->second.self_s * 1e3;
  };
  const auto incl_ms = [&](const char* name) {
    const auto it = E.find(name);
    return it == E.end() ? 0.0 : it->second.incl_s * 1e3;
  };
  const double reps = static_cast<double>(st.reps);
  const double slots = static_cast<double>(st.slots);
  const double decisions = static_cast<double>(st.decisions);
  const double changed = static_cast<double>(st.changed_slots);
  std::map<std::string, double> v;
  v["scenario.build_ms"] = per(incl_ms("scenario.build"), reps);
  v["graph.topology_ms"] = per(incl_ms("graph.topology"), reps);
  v["graph.h_build_ms"] = per(incl_ms("graph.h_build"), reps);
  v["graph.h_vertices"] = per(static_cast<double>(st.h_vertices), reps);
  v["graph.h_edges"] = per(static_cast<double>(st.h_edges), reps);
  v["graph.cache_build_ms"] = per(incl_ms("graph.cache_build"), reps);
  v["graph.cache_mb"] = per(st.cache_mb, reps);
  v["graph.has_edge_calls"] = per(static_cast<double>(st.has_edge_calls), slots);
  v["channel.build_ms"] = per(incl_ms("channel.build"), reps);
  v["dynamics.build_ms"] = per(incl_ms("dynamics.build"), reps);
  v["bandit.index_ms"] = per(self_ms("bandit.index"), slots);
  v["bandit.observe_ms"] = per(self_ms("bandit.observe"), slots);
  v["channel.sample_ms"] = per(self_ms("channel.sample"), slots);
  for (const auto& [name, field] : kStages)
    v[std::string(name) + "_ms"] = per(self_ms(name), slots);
  v["mwis.mini_rounds"] = per(static_cast<double>(st.mini_rounds), decisions);
  v["mwis.leaders_per_decision"] =
      per(static_cast<double>(st.leaders), decisions);
  v["mwis.winners_per_decision"] =
      per(static_cast<double>(st.winners), decisions);
  v["mwis.bnb_nodes_per_decision"] =
      per(static_cast<double>(st.bnb_nodes), decisions);
  v["mwis.exact_solve_frac"] =
      per(static_cast<double>(st.exact_decisions), decisions);
  v["mwis.delta_ms"] = per(incl_ms("mwis.delta"), changed);
  v["dynamics.advance_ms"] = per(self_ms("dynamics.advance"), slots);
  v["dynamics.changed_slot_frac"] = per(changed, slots);
  v["dynamics.touched_per_slot"] =
      per(static_cast<double>(st.touched), slots);
  v["sim.prune_ms"] = per(self_ms("sim.prune"), changed);
  v["mwis.msg_count_ms"] = per(self_ms("mwis.msg_count"), slots);
  v["sim.self_ms"] =
      per(self_ms("sim.slot") + self_ms("net.bookkeeping"), slots);
  v["net.discovery_ms"] = per(incl_ms("net.discovery"), reps);
  v["net.membership_ms"] = per(self_ms("net.hello"), slots);
  v["net.weight_broadcast_ms"] = per(self_ms("net.weight_broadcast"), slots);
  v["net.election_ms"] = per(self_ms("net.election"), slots);
  v["net.determination_ms"] = per(self_ms("net.determination"), slots);
  v["net.tx_ms"] = per(self_ms("net.tx"), slots);
  v["net.round_other_ms"] =
      per(self_ms("net.step") + self_ms("net.round"), slots);
  v["net.rediscovery_ms"] = per(self_ms("net.rediscovery"), slots);
  for (const char* type : {"hello", "weight_update", "leader_declare",
                           "determination", "view_change"}) {
    const auto it = E.find(std::string("flood.") + type);
    v[std::string("net.flood_us.") + type] =
        it == E.end() ? 0.0
                      : per(it->second.incl_s * 1e6,
                            static_cast<double>(it->second.count));
  }
  const obs::MetricsRegistry& reg = st.registry;
  const auto counter = [&](const char* key) {
    return static_cast<double>(reg.counter_value(key));
  };
  v["net.deliveries_per_flood"] =
      per(counter("channel.messages"), counter("channel.floods"));
  v["net.max_table_size"] = st.max_table_size;
  v["net.hello_byte_share"] =
      per(counter("channel.bytes.hello"), counter("channel.bytes_on_wire"));
  v["net.bytes_per_node_round"] = per(counter("channel.bytes_on_wire"),
                                      static_cast<double>(st.users) * slots);
  v["channel.drops"] = per(counter("channel.drops"), slots);
  v["channel.duplicates"] = per(counter("channel.duplicates"), slots);
  v["membership.retries"] = per(counter("membership.retries"), slots);
  v["membership.timeouts"] = per(counter("membership.timeouts"), slots);
  v["membership.view_changes"] = per(counter("membership.view_changes"), slots);
  // Trace digestion is benchmark work, not tracing cost.
  v["obs.trace_overhead"] =
      per(st.traced_wall_s - L.excluded_s(), st.untraced_wall_s) - 1.0;
  v["obs.trace_events"] = per(static_cast<double>(st.trace_events), slots);
  for (const NamedCallee& n : kNamedCallees)
    v[n.metric] = per(callee_s(L, attr, n.group, n.callee) * 1e3,
                      n.group == kDiscovery ? reps : slots);
  // Unattributed: the harness's own loop, and each group's self time that
  // the samples do not put in a named callee.
  const auto root = E.find("rep");
  const double wall =
      root == E.end() ? 0.0 : root->second.incl_s - L.excluded_s();
  double unattributed = root == E.end() ? 0.0 : root->second.self_s;
  for (int g = 1; g < kGroups; ++g) {
    double named = 0.0;
    for (const NamedCallee& n : kNamedCallees)
      if (n.group == g) named += callee_s(L, attr, g, n.callee);
    unattributed += group_self_s(L, g) - named;
  }
  v["obs.coverage"] = root == E.end() ? 0.0 : 1.0 - per(unattributed, wall);
  return v;
}

/// A run stops cycling after this long even if its samples are short.
constexpr double kMaxSeconds = 120.0;

struct Args {
  bool net = false;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t min_samples = 100;
  bool check_lockstep = false;
  std::vector<std::string> scenarios;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--engine") {
      const std::string e = value();
      if (e != "lockstep" && e != "net")
        throw std::runtime_error("--engine must be lockstep or net");
      a.net = e == "net";
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--min-samples") {
      a.min_samples = std::stoll(value());
    } else if (arg == "--check-lockstep") {
      a.check_lockstep = true;
    } else if (arg.rfind("--", 0) == 0) {
      throw std::runtime_error("unknown flag " + arg);
    } else {
      a.scenarios.push_back(arg);
    }
  }
  if (a.scenarios.empty()) throw std::runtime_error("no scenario files given");
  return a;
}

std::string context_json() {
  std::string out = "{\"hardware_concurrency\":" +
                    std::to_string(std::thread::hardware_concurrency());
  out += ",\"simd\":" +
         obs::json_quote(util::simd_level_name(util::simd_level()));
  out += ",\"build_type\":" + obs::json_quote(PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out += ",\"compiler\":" + obs::json_quote(std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  out += ",\"compiler\":" + obs::json_quote(std::string("gcc ") + __VERSION__);
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  const char* workers = std::getenv("MHCA_CACHE_BUILD_WORKERS");
  out += ",\"cache_build_workers\":" + obs::json_quote(workers ? workers : "");
  return out + "}";
}

int run(const Args& a) {
  std::vector<scenario::Scenario> scenarios;
  for (const std::string& path : a.scenarios)
    scenarios.push_back(scenario::parse_scenario_file(path));

  std::vector<RunRecord> records;
  std::vector<Check> checks;
  std::map<int, std::string> first_fp;
  const auto note = [&](RunRecord r, int idx) {
    r.scenario = idx;
    const auto [it, fresh] = first_fp.emplace(idx, r.fingerprint);
    if (!fresh && it->second != r.fingerprint)
      checks.push_back({"repeat", false,
                        "scenario " + std::to_string(idx) + ": " +
                            r.fingerprint + " != " + it->second});
    records.push_back(std::move(r));
  };

  Ledger ledger;
  LayerStats st;
  Tracing tr;
  if (a.trace && a.net) tr.sampler = std::make_unique<StackSampler>();
  const auto start = Clock::now();
  std::int64_t samples = 0;  // untraced slot samples
  const auto enough = [&] {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed > kMaxSeconds) return true;
    if (elapsed < a.seconds) return false;
    const std::size_t have =
        !a.trace ? static_cast<std::size_t>(samples)
                 : (a.net ? st.step_ms.size() : st.decide_ms.size());
    return have >= static_cast<std::size_t>(a.min_samples);
  };
  const std::size_t n = scenarios.size();
  // An untraced run's first pass covers every scenario (the deterministic
  // metrics average over it); later passes, and traced pairs, add samples
  // until the budget is spent.
  const std::size_t first_pass = a.trace ? 1 : n;
  for (std::size_t i = 0; i < first_pass || !enough(); ++i) {
    const int idx = static_cast<int>(i % n);
    const scenario::Scenario& s = scenarios[static_cast<std::size_t>(idx)];
    if (!a.trace) {
      RunRecord r = a.net ? net_user_run(s) : lockstep_user_run(s);
      samples += static_cast<std::int64_t>(r.slot_ms.size());
      note(std::move(r), idx);
      continue;
    }
    // Alternate which side of a pair runs first, so warm-up cost does not
    // land on one side of obs.trace_overhead.
    RunRecord u, t;
    if (i % 2 == 1) u = user_reference_run(s, a.net);
    obs::set_trace(&tr.rec);
    obs::set_metrics(&st.registry);
    t = a.net ? net_traced_run(s, ledger, st, tr)
              : lockstep_traced_run(s, ledger, st, tr);
    obs::set_metrics(nullptr);
    obs::set_trace(nullptr);
    if (i % 2 == 0) u = user_reference_run(s, a.net);
    st.untraced_wall_s += u.wall_s;
    st.traced_wall_s += t.wall_s;
    if (u.fingerprint != t.fingerprint)
      checks.push_back({"traced_equals_untraced", false,
                        "scenario " + std::to_string(idx) + ": traced " +
                            t.fingerprint + " != untraced " + u.fingerprint});
    note(std::move(u), idx);
    note(std::move(t), idx);
  }
  const double rss = peak_rss_mb();

  if (a.check_lockstep) {
    // The message-level runtime must decide exactly what the lockstep
    // engine decides on a fault-free, omniscient scenario.
    for (std::size_t i = 0; i < n; ++i) {
      const SimulationResult lock = scenario::ScenarioRunner(scenarios[i]).run();
      for (const RunRecord& r : records) {
        if (r.scenario != static_cast<int>(i)) continue;
        if (r.last_strategy != lock.last_strategy ||
            bits_of(r.total_observed) != bits_of(lock.total_observed)) {
          checks.push_back({"net_equals_lockstep", false,
                            "scenario " + std::to_string(i)});
          break;
        }
      }
    }
  }
  // Only the traced mirror counts lockstep conflicts (per slot, against the
  // current H); the engine asserts the same on the user path.
  for (const RunRecord& r : records)
    if (!a.net && r.conflicts != 0)
      checks.push_back({"lockstep_conflict_free", false,
                        "scenario " + std::to_string(r.scenario)});

  std::string out = "{\"context\":" + context_json();
  out += ",\"peak_rss_mb\":" + obs::json_number(rss);
  out += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i) out += ',';
    append_record(out, records[i]);
  }
  out += "],\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":" + obs::json_quote(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + obs::json_quote(checks[i].detail) + "}";
  }
  out += "]";
  if (a.trace) {
    out += ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layer_values(ledger, st, tr.attr)) {
      if (!first) out += ',';
      first = false;
      out += obs::json_quote(name) + ":" + obs::json_number(value);
    }
    out += "},\"decide_ms\":[";
    for (std::size_t i = 0; i < st.decide_ms.size(); ++i) {
      if (i) out += ',';
      out += obs::json_number(st.decide_ms[i]);
    }
    out += "],\"step_ms\":[";
    for (std::size_t i = 0; i < st.step_ms.size(); ++i) {
      if (i) out += ',';
      out += obs::json_number(st.step_ms[i]);
    }
    out += "],\"ledger\":{";
    first = true;
    for (const auto& [name, e] : ledger.entries()) {
      if (!first) out += ',';
      first = false;
      out += obs::json_quote(name) + ":{\"self_s\":" +
             obs::json_number(e.self_s) + ",\"incl_s\":" +
             obs::json_number(e.incl_s) + ",\"count\":" +
             obs::json_number(e.count) + "}";
    }
    out += "},\"attribution\":{";
    for (int g = 1; g < kGroups; ++g) {
      if (g > 1) out += ',';
      out += obs::json_quote(group_spec(g).scope) +
             ":{\"self_s\":" + obs::json_number(group_self_s(ledger, g)) +
             ",\"samples\":" + obs::json_number(tr.attr.samples[g]) +
             ",\"callees\":{";
      first = true;
      for (const auto& [callee, count] : tr.attr.callees[g]) {
        if (!first) out += ',';
        first = false;
        out += obs::json_quote(callee) + ":" + obs::json_number(count);
      }
      out += "}}";
    }
    out += "}";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
