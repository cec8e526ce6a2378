// mhca_sim — scenario-file-driven CLI for the channel-access system.
//
//   mhca_sim run <scenario.ini> [--override SEC.KEY=VAL]... [--csv PATH] [--net]
//   mhca_sim print <scenario.ini> [--override SEC.KEY=VAL]...
//   mhca_sim list
//
// Every experiment is a declarative Scenario (src/scenario/README.md):
// topology x channel model x policy x solver knobs are selected by registry
// string keys, so any cell of the paper's evaluation grid runs with no
// recompilation:
//
//   mhca_sim run examples/scenarios/quickstart.ini \
//       --override policy.kind=thompson --override solver.r=3
//
// `run` executes the scenario: a single simulation by default, a multi-seed
// replication when [replication] replications >= 1, or the message-level
// protocol runtime with --net. `print` parses + validates and emits the
// canonical serialized form (what a round-trip preserves). `list` shows
// every registered topology / channel model / policy / dynamics model with
// its accepted keys.
//
// Observability (src/obs/README.md): --trace PATH writes a Perfetto-loadable
// Chrome trace-event timeline of the run, --metrics PATH a metrics-registry
// snapshot (JSON, or CSV when PATH ends in .csv) — both are sugar for the
// scenario's [obs] section. --json replaces the human tables with exactly
// one machine-readable JSON object on stdout; the greppable
// `trace_hash = 0x...` / `decision_digest = 0x...` fingerprint lines of a
// --net run then move to stderr so stdout stays pure JSON.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dynamics/registries.h"
#include "net/transport.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/trace.h"
#include "scenario/registries.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/export.h"
#include "sim/optimum.h"
#include "util/table.h"

namespace {

using namespace mhca;

[[noreturn]] void usage(const std::string& msg) {
  if (!msg.empty()) std::cerr << "mhca_sim: " << msg << "\n";
  std::cerr << "usage:\n"
            << "  mhca_sim run <scenario.ini> [--override SEC.KEY=VAL]..."
               " [--csv PATH] [--net]\n"
            << "      [--transport inprocess|udp] [--shard K/N]"
               " [--port-base PORT]\n"
            << "      [--trace PATH] [--metrics PATH] [--json]\n"
            << "  mhca_sim print <scenario.ini> [--override SEC.KEY=VAL]...\n"
            << "  mhca_sim list\n"
            << "--transport/--shard/--port-base shape a --net run: "
               "--transport X is sugar\n"
            << "for --override net.transport=X; --shard K/N runs this "
               "process as shard K of N\n"
            << "(udp transport; every shard gets the same scenario and "
               "seed); --port-base sets\n"
            << "the first loopback port (shard k binds port+k, default "
               "47310).\n"
            << "--trace PATH writes a Chrome trace-event timeline, "
               "--metrics PATH a metrics\n"
            << "snapshot (.csv = CSV, else JSON); --json emits one JSON "
               "object on stdout.\n";
  std::exit(2);
}

struct Options {
  std::string command;
  std::string scenario_path;
  std::vector<std::string> overrides;
  std::string csv;
  bool net = false;
  int shard_index = -1;  ///< --shard K/N; -1 = flag absent.
  int port_base = 0;     ///< --port-base; 0 = UdpOptions default.
  std::string trace;     ///< --trace; overrides scenario obs.trace.
  std::string metrics;   ///< --metrics; overrides scenario obs.metrics.
  bool json = false;     ///< --json machine-readable output.
};

/// "K/N" with 0 <= K < N; N also lands in the overrides as net.shard.
void parse_shard(const std::string& spec, Options& o) {
  const std::size_t slash = spec.find('/');
  std::size_t k_end = 0, n_end = 0;
  int k = -1, n = -1;
  try {
    k = std::stoi(spec, &k_end);
    if (slash != std::string::npos)
      n = std::stoi(spec.substr(slash + 1), &n_end);
  } catch (const std::exception&) {
    // fall through to the usage error below
  }
  if (slash == std::string::npos || k_end != slash ||
      n_end != spec.size() - slash - 1 || k < 0 || n < 1 || k >= n)
    usage("--shard wants K/N with 0 <= K < N, got '" + spec + "'");
  o.shard_index = k;
  o.overrides.push_back("net.shard=" + std::to_string(n));
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Options o;
  o.command = argv[1];
  int i = 2;
  if (o.command == "run" || o.command == "print") {
    if (i >= argc) usage("missing scenario file");
    o.scenario_path = argv[i++];
  } else if (o.command != "list") {
    usage("unknown command '" + o.command + "'");
  }
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + a);
      return argv[++i];
    };
    if (a == "--override" || a == "-O") o.overrides.push_back(next());
    else if (a == "--csv") o.csv = next();
    else if (a == "--net") o.net = true;
    else if (a == "--transport")
      o.overrides.push_back("net.transport=" + next());
    else if (a == "--shard") parse_shard(next(), o);
    else if (a == "--port-base") {
      const std::string spec = next();
      std::size_t end = 0;
      try {
        o.port_base = std::stoi(spec, &end);
      } catch (const std::exception&) {
        o.port_base = -1;
      }
      if (end != spec.size() || o.port_base < 1 || o.port_base > 65535)
        usage("--port-base wants a port in [1, 65535], got '" + spec + "'");
    }
    else if (a == "--trace") o.trace = next();
    else if (a == "--metrics") o.metrics = next();
    else if (a == "--json") o.json = true;
    else usage("unknown flag '" + a + "'");
  }
  // Reject flags the command would silently ignore.
  if (o.command != "run" &&
      (!o.csv.empty() || o.net || !o.trace.empty() || !o.metrics.empty() ||
       o.json))
    usage("--csv/--net/--trace/--metrics/--json only apply to 'run'");
  if (!o.net && (o.shard_index >= 0 || o.port_base > 0))
    usage("--shard/--port-base only apply to 'run --net'");
  if (o.command == "list" && !o.overrides.empty())
    usage("--override does not apply to 'list'");
  return o;
}

scenario::Scenario load(const Options& o) {
  scenario::Scenario s = scenario::parse_scenario_file(o.scenario_path);
  for (const auto& ov : o.overrides) scenario::apply_override(s, ov);
  scenario::validate(s);
  return s;
}

void print_registry_table(const std::string& title,
                          const std::vector<std::string>& names,
                          const std::vector<std::string>& keys) {
  TablePrinter table({title, "accepted keys"});
  for (std::size_t i = 0; i < names.size(); ++i)
    table.row(names[i], keys[i].empty() ? "(none)" : keys[i]);
  table.print(std::cout);
  std::cout << "\n";
}

int cmd_list() {
  auto keys_of = [](const auto& reg) {
    std::vector<std::string> out;
    for (const auto& name : reg.names())
      out.push_back(scenario::join_keys(reg.accepted_keys(name)));
    return out;
  };
  print_registry_table("topology", scenario::topology_registry().names(),
                       keys_of(scenario::topology_registry()));
  print_registry_table("channel model", scenario::channel_registry().names(),
                       keys_of(scenario::channel_registry()));
  print_registry_table("policy", scenario::policy_registry().names(),
                       keys_of(scenario::policy_registry()));
  print_registry_table("dynamics model", dynamics::dynamics_registry().names(),
                       keys_of(dynamics::dynamics_registry()));
  std::cout << "solver kinds: "
            << scenario::join_keys(scenario::solver_kind_keys()) << "\n"
            << "local solvers: "
            << scenario::join_keys(scenario::local_solver_keys()) << "\n"
            << "fixed sections/keys: see src/scenario/README.md\n";
  return 0;
}

int cmd_print(const Options& o) {
  std::cout << scenario::serialize_scenario(load(o));
  return 0;
}

// ------------------------------------------------------------ observability

/// Installs (and on destruction uninstalls) the process-global recorder and
/// registry the scenario's [obs] section asks for. The objects live here —
/// the globals are non-owning pointers into this frame.
struct ObsSession {
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  bool tracing;
  bool metering;

  explicit ObsSession(const scenario::ObsSpec& spec)
      : tracing(!spec.trace.empty()), metering(!spec.metrics.empty()) {
    if (tracing) obs::set_trace(&recorder);
    if (metering) obs::set_metrics(&registry);
  }
  ~ObsSession() {
    obs::set_trace(nullptr);
    obs::set_metrics(nullptr);
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes the trace / metrics files the session collected. Status lines go
/// to `info` (stderr under --json so stdout stays one JSON object).
bool write_obs_artifacts(const ObsSession& session,
                         const scenario::ObsSpec& spec, std::ostream& info) {
  bool ok = true;
  if (session.tracing) {
    if (session.recorder.write_file(spec.trace)) {
      info << "trace written to " << spec.trace << " ("
           << session.recorder.event_count() << " events)\n";
    } else {
      std::cerr << "mhca_sim: failed to write trace " << spec.trace << "\n";
      ok = false;
    }
  }
  if (session.metering) {
    std::ofstream f(spec.metrics, std::ios::binary);
    if (f) {
      f << (ends_with(spec.metrics, ".csv") ? session.registry.to_csv()
                                            : session.registry.to_json());
    }
    if (f) {
      info << "metrics written to " << spec.metrics << "\n";
    } else {
      std::cerr << "mhca_sim: failed to write metrics " << spec.metrics
                << "\n";
      ok = false;
    }
  }
  return ok;
}

// ------------------------------------------------------------- JSON output

/// Incremental {"k":v,...} builder over the obs/json.h primitives.
class JsonObj {
 public:
  JsonObj() : j_("{") {}
  JsonObj& field(std::string_view key, std::string rendered_value) {
    if (!first_) j_ += ",";
    first_ = false;
    obs::append_json_string(j_, key);
    j_ += ":";
    j_ += rendered_value;
    return *this;
  }
  JsonObj& field(std::string_view key, std::int64_t v) {
    return field(key, obs::json_number(v));
  }
  JsonObj& field(std::string_view key, double v) {
    return field(key, obs::json_number(v));
  }
  std::string str() const { return j_ + "}"; }

 private:
  std::string j_;
  bool first_ = true;
};

std::string int_array_json(const std::vector<int>& xs) {
  std::string j = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) j += ",";
    j += obs::json_number(static_cast<std::int64_t>(xs[i]));
  }
  return j + "]";
}

std::string simulation_json(const scenario::ScenarioRunner& runner,
                            const SimulationResult& res) {
  const scenario::Scenario& s = runner.scenario();
  JsonObj j;
  j.field("mode", obs::json_quote("simulation"))
      .field("scenario", obs::json_quote(s.name))
      .field("users", static_cast<std::int64_t>(runner.network().num_nodes()))
      .field("channels", static_cast<std::int64_t>(s.num_channels))
      .field("vertices", static_cast<std::int64_t>(
                             runner.extended_graph().num_vertices()))
      .field("slots", res.total_slots)
      .field("decisions", res.decisions)
      .field("total_observed", res.total_observed)
      .field("total_effective", res.total_effective)
      .field("total_expected", res.total_expected)
      .field("avg_strategy_size", res.avg_strategy_size)
      .field("decision_seconds", res.decision_seconds)
      .field("theta", res.theta)
      .field("rate_scale_kbps", runner.model().rate_scale_kbps());
  if (s.run.count_messages)
    j.field("total_messages", res.total_messages)
        .field("total_mini_timeslots", res.total_mini_timeslots);
  j.field("last_strategy", int_array_json(res.last_strategy));
  return j.str();
}

std::string replication_json(const scenario::Scenario& s,
                             const ReplicationReport& report) {
  std::string metrics = "[";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) metrics += ",";
    metrics += JsonObj()
                   .field("name", obs::json_quote(m.name))
                   .field("mean", m.summary.mean)
                   .field("stddev", m.summary.stddev)
                   .field("min", m.summary.min)
                   .field("max", m.summary.max)
                   .str();
  }
  metrics += "]";
  return JsonObj()
      .field("mode", obs::json_quote("replication"))
      .field("scenario", obs::json_quote(s.name))
      .field("replications", static_cast<std::int64_t>(report.replications))
      .field("seed0", static_cast<std::int64_t>(s.replication.seed0))
      .field("metrics", metrics)
      .str();
}

std::string net_json(const scenario::Scenario& s,
                     const scenario::NetRunSummary& n, double rate_scale_kbps,
                     const net::TransportStats* ts, int shard_index) {
  std::string by_msgs = "{", by_bytes = "{";
  for (int t = 0; t < net::kNumMsgTypes; ++t) {
    if (t > 0) { by_msgs += ","; by_bytes += ","; }
    const std::string label = obs::json_quote(obs::msg_type_label(t));
    by_msgs += label + ":" + obs::json_number(n.messages_by_type[t]);
    by_bytes += label + ":" + obs::json_number(n.bytes_by_type[t]);
  }
  by_msgs += "}";
  by_bytes += "}";
  JsonObj j;
  j.field("mode", obs::json_quote("net"))
      .field("scenario", obs::json_quote(s.name))
      .field("rounds", n.rounds)
      .field("total_observed", n.total_observed)
      .field("rate_scale_kbps", rate_scale_kbps)
      .field("last_strategy", int_array_json(n.last_strategy))
      .field("max_table_size", static_cast<std::int64_t>(n.max_table_size))
      .field("conflicts", static_cast<std::int64_t>(n.conflicts))
      .field("tx_abstained", n.tx_abstained)
      .field("retries", n.retries)
      .field("timeouts", n.timeouts)
      .field("view_changes", n.view_changes)
      .field("stale_decisions", n.stale_decisions)
      .field("messages", n.messages)
      .field("drops", n.drops)
      .field("duplicates", n.duplicates)
      .field("deferred", n.deferred)
      .field("bytes_on_wire", n.bytes_on_wire)
      .field("fragments", n.fragments)
      .field("messages_by_type", by_msgs)
      .field("bytes_by_type", by_bytes)
      .field("memory_bytes",
             JsonObj()
                 .field("member_lists", n.memory.member_lists)
                 .field("tables", n.memory.tables)
                 .field("local_graphs", n.memory.local_graphs)
                 .field("index_memo", n.memory.index_memo)
                 .str())
      .field("trace_hash", obs::json_quote(obs::json_hex64(n.trace_hash)))
      .field("decision_digest",
             obs::json_quote(obs::json_hex64(n.decision_digest)));
  if (ts != nullptr)
    j.field("transport",
            JsonObj()
                .field("shard", static_cast<std::int64_t>(shard_index))
                .field("shards", static_cast<std::int64_t>(s.net.shard))
                .field("exchanges", ts->exchanges)
                .field("frames_sent", ts->frames_sent)
                .field("frames_received", ts->frames_received)
                .field("datagrams_sent", ts->datagrams_sent)
                .field("datagrams_received", ts->datagrams_received)
                .field("bytes_sent", ts->bytes_sent)
                .field("bytes_received", ts->bytes_received)
                .field("retransmit_requests", ts->retransmit_requests)
                .field("retransmissions", ts->retransmissions)
                .str());
  return j.str();
}

// ------------------------------------------------------------ human output

void print_simulation(const scenario::ScenarioRunner& runner,
                      const SimulationResult& res, const std::string& csv) {
  const scenario::Scenario& s = runner.scenario();
  const double scale = runner.model().rate_scale_kbps();
  const auto slots = static_cast<double>(res.total_slots);
  TablePrinter table({"metric", "value"});
  table.row("scenario", s.name);
  table.row("network", std::to_string(runner.network().num_nodes()) +
                           " users x " + std::to_string(s.num_channels) +
                           " channels (K=" +
                           std::to_string(runner.extended_graph().num_vertices()) +
                           ", topology=" + s.topology.kind + ")");
  table.row("channel / policy / solver",
            s.channel.kind + " / " + s.policy.kind + " / " +
                scenario::solver_kind_key(s.solver.kind));
  table.row("slots / decisions", std::to_string(res.total_slots) + " / " +
                                     std::to_string(res.decisions));
  table.row("avg transmitters per slot", fixed(res.avg_strategy_size, 2));
  table.row("avg observed throughput (kbps)",
            fixed(res.total_observed / slots * scale, 1));
  table.row("avg effective throughput (kbps)",
            fixed(res.total_effective / slots * scale, 1));
  table.row("realized fraction",
            fixed(res.total_effective / std::max(res.total_observed, 1e-12),
                  3));
  table.row("decision wall time (ms)", fixed(res.decision_seconds * 1e3, 1));
  if (s.run.count_messages) {
    table.row("control messages", res.total_messages);
    table.row("mini-timeslots", res.total_mini_timeslots);
  }
  // The exact optimum is only tractable on small instances.
  if (runner.extended_graph().num_vertices() <= 80) {
    const OptimumInfo opt =
        compute_optimum(runner.extended_graph(), runner.model());
    if (opt.exact)
      table.row("expected/optimal ratio",
                fixed(res.total_expected / slots / opt.weight, 3));
  }
  table.print(std::cout);

  if (!csv.empty()) {
    if (export_series_csv(res, csv, scale))
      std::cout << "series written to " << csv << "\n";
    else
      std::cerr << "failed to write " << csv << "\n";
  }
}

void print_replication(const scenario::Scenario& s,
                       const ReplicationReport& report) {
  std::cout << "scenario '" << s.name << "': " << report.replications
            << " replications (seed0 = " << s.replication.seed0
            << "), mean +/- std\n";
  TablePrinter table({"metric", "mean", "std", "min", "max"});
  for (const auto& m : report.metrics)
    table.row(m.name, fixed(m.summary.mean, 4), fixed(m.summary.stddev, 4),
              fixed(m.summary.min, 4), fixed(m.summary.max, 4));
  table.print(std::cout);
}

/// Machine-greppable run fingerprints: CI compares these lines between a
/// sharded UDP run and the in-process run of the same scenario. Under
/// --json they move to stderr (stdout is one JSON object).
void print_fingerprints(const scenario::NetRunSummary& n, std::ostream& os) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "trace_hash = 0x%016llx\n",
                static_cast<unsigned long long>(n.trace_hash));
  os << buf;
  std::snprintf(buf, sizeof(buf), "decision_digest = 0x%016llx\n",
                static_cast<unsigned long long>(n.decision_digest));
  os << buf;
}

void print_net(const scenario::Scenario& s, const scenario::NetRunSummary& n,
               double rate_scale_kbps) {
  TablePrinter table({"metric", "value"});
  table.row("scenario", s.name + " (message-level runtime)");
  table.row("rounds", n.rounds);
  table.row("avg observed throughput (kbps)",
            fixed(n.total_observed / static_cast<double>(n.rounds) *
                      rate_scale_kbps,
                  1));
  table.row("final strategy size", n.last_strategy.size());
  table.row("max agent table size", n.max_table_size);
  table.row("agent state bytes (lists / tables / graphs / memo)",
            std::to_string(n.memory.member_lists) + " / " +
                std::to_string(n.memory.tables) + " / " +
                std::to_string(n.memory.local_graphs) + " / " +
                std::to_string(n.memory.index_memo));
  table.row("conflicting rounds", n.conflicts);
  table.row("control messages", n.messages);
  table.row("bytes on wire", n.bytes_on_wire);
  table.row("mtu fragments (mtu = " + std::to_string(s.net.mtu) + ")",
            n.fragments);
  for (int t = 0; t < net::kNumMsgTypes; ++t) {
    if (n.messages_by_type[t] == 0) continue;
    table.row(std::string("  ") + obs::msg_type_label(t) + " msgs / bytes",
              std::to_string(n.messages_by_type[t]) + " / " +
                  std::to_string(n.bytes_by_type[t]));
  }
  // Robustness telemetry is only meaningful when the wire is unreliable or
  // membership is inferred from it; keep the clean-run table compact.
  if (s.net.faults.any() || s.net.membership == "view_sync") {
    table.row("dropped deliveries", n.drops);
    table.row("duplicate deliveries", n.duplicates);
    table.row("reordered/delayed deliveries", n.deferred);
    table.row("liveness timeouts", n.timeouts);
    table.row("liveness retries", n.retries);
    table.row("view changes", n.view_changes);
    table.row("stale-view decisions", n.stale_decisions);
    table.row("tx abstained (stale winners)", n.tx_abstained);
  }
  table.print(std::cout);
  print_fingerprints(n, std::cout);
}

int cmd_run(const Options& o) {
  scenario::Scenario s = load(o);
  if (!o.trace.empty()) s.obs.trace = o.trace;
  if (!o.metrics.empty()) s.obs.metrics = o.metrics;
  const scenario::ScenarioRunner runner(s);
  ObsSession session(s.obs);
  std::ostream& info = o.json ? std::cerr : std::cout;
  if (o.net) {
    if (!o.csv.empty())
      usage("--csv applies to single-simulation runs, not --net");
    if (s.replication.replications >= 1)
      usage("--net runs a single protocol pass; this scenario replicates "
            "(set --override replication.replications=0)");
    const auto transport = scenario::transport_kind_from_string(
        s.net.transport);
    if (transport == scenario::TransportKind::kUdp) {
      int shard_index = o.shard_index;
      if (shard_index < 0) {
        if (s.net.shard != 1)
          usage("net.transport=udp with net.shard=" +
                std::to_string(s.net.shard) +
                " needs --shard K/N to say which shard this process is");
        shard_index = 0;  // degenerate single-shard socket run
      }
      // Shard k binds port_base + k, so all N ports must fit below 65536.
      if (o.port_base > 65536 - s.net.shard)
        usage("--port-base " + std::to_string(o.port_base) + " with " +
              std::to_string(s.net.shard) + " shards wants a port in [1, " +
              std::to_string(65536 - s.net.shard) + "]");
      net::UdpOptions opts;
      if (o.port_base > 0) opts.port_base = o.port_base;
      opts.mtu = s.net.mtu;
      net::UdpTransport udp(shard_index, s.net.shard, opts);
      const scenario::NetRunSummary n = runner.run_net_sharded(udp);
      udp.finish();
      const net::TransportStats& ts = udp.stats();
      if (o.json) {
        std::cout << net_json(s, n, runner.model().rate_scale_kbps(), &ts,
                              shard_index)
                  << "\n";
        print_fingerprints(n, std::cerr);
      } else {
        std::cout << "shard " << shard_index << "/" << s.net.shard
                  << ": exchanges " << ts.exchanges << ", frames "
                  << ts.frames_sent << " sent / " << ts.frames_received
                  << " received, datagrams " << ts.datagrams_sent
                  << " sent / " << ts.datagrams_received << " received, "
                  << ts.retransmit_requests << " retransmit requests, "
                  << ts.retransmissions << " retransmissions\n";
        print_net(s, n, runner.model().rate_scale_kbps());
      }
    } else {
      if (o.shard_index > 0)
        usage("--shard K/N with K > 0 requires net.transport = udp");
      const scenario::NetRunSummary n = runner.run_net();
      if (o.json) {
        std::cout << net_json(s, n, runner.model().rate_scale_kbps(), nullptr,
                              0)
                  << "\n";
        print_fingerprints(n, std::cerr);
      } else {
        print_net(s, n, runner.model().rate_scale_kbps());
      }
    }
  } else if (s.replication.replications >= 1) {
    if (!o.csv.empty())
      usage("--csv applies to single-simulation runs; this scenario "
            "replicates (set --override replication.replications=0)");
    const ReplicationReport report = runner.replicate();
    if (o.json)
      std::cout << replication_json(s, report) << "\n";
    else
      print_replication(s, report);
  } else {
    const SimulationResult res = runner.run();
    // The lockstep engines never see a registry (their telemetry lives in
    // SimulationResult); publish the finished totals so a --metrics
    // snapshot covers the decision domain here too.
    if (session.metering) obs::publish_simulation(session.registry, res);
    if (o.json) {
      std::cout << simulation_json(runner, res) << "\n";
      if (!o.csv.empty()) {
        if (export_series_csv(res, o.csv, runner.model().rate_scale_kbps()))
          info << "series written to " << o.csv << "\n";
        else
          std::cerr << "failed to write " << o.csv << "\n";
      }
    } else {
      print_simulation(runner, res, o.csv);
    }
  }
  return write_obs_artifacts(session, s.obs, info) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    if (o.command == "list") return cmd_list();
    if (o.command == "print") return cmd_print(o);
    return cmd_run(o);
  } catch (const std::exception& e) {
    std::cerr << "mhca_sim: " << e.what() << "\n";
    return 1;
  }
}
