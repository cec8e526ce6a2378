#include "scenario/scenario.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "dynamics/registries.h"
#include "net/runtime.h"
#include "scenario/registries.h"

namespace mhca::scenario {

// The drift guard: every config struct that carries a B&B node cap defaults
// it from the one constant in mwis/mwis.h, and the structs that still
// mirror SolverSpec's knobs agree with it. A default edited in one place and
// not the others now fails to compile instead of silently diverging (as a
// config shim's node cap did after PR 2). NetSpec embeds net::FaultProfile
// and net::LivenessParams, so the fault and liveness defaults need no pin.
static_assert(SolverSpec{}.node_cap == kDefaultBnbNodeCap);
static_assert(DistributedPtasConfig{}.bnb_node_cap == kDefaultBnbNodeCap);
static_assert(SimulationConfig{}.bnb_node_cap == kDefaultBnbNodeCap);
static_assert(net::NetConfig{}.bnb_node_cap == kDefaultBnbNodeCap);
static_assert(SolverSpec{}.r == SimulationConfig{}.r &&
              SolverSpec{}.r == net::NetConfig{}.r &&
              SolverSpec{}.r == DistributedPtasConfig{}.r);
static_assert(SolverSpec{}.D == SimulationConfig{}.D &&
              SolverSpec{}.D == net::NetConfig{}.D);
static_assert(SolverSpec{}.parallelism ==
              SimulationConfig{}.local_solve_parallelism);
static_assert(net::NetConfig{}.membership ==
              net::MembershipMode::kOmniscient);
static_assert(NetSpec{}.mtu == net::NetConfig{}.mtu &&
              NetSpec{}.mtu == net::wire::kDefaultMtu);

namespace {

const std::vector<std::string> kSections{
    "topology", "channel",     "policy", "dynamics", "solver",
    "run",      "net",         "replication", "timing", "obs"};

/// One fixed-schema field: the key plus its parse-and-assign action.
/// Routing and the valid-keys error message both come from this table, so
/// the two cannot drift.
struct FieldDef {
  const char* key;
  std::function<void(Scenario&, const std::string& value,
                     const std::string& where)>
      set;
};

int int32_field(const std::string& value, const std::string& where) {
  return checked_int32(parse_int_value(value, where), where);
}

const std::vector<FieldDef>& solver_fields() {
  static const std::vector<FieldDef> fields{
      {"kind", [](Scenario& s, const std::string& v, const std::string&) {
         s.solver.kind = solver_kind_from_string(v);
       }},
      {"r", [](Scenario& s, const std::string& v, const std::string& w) {
         s.solver.r = int32_field(v, w);
       }},
      {"D", [](Scenario& s, const std::string& v, const std::string& w) {
         s.solver.D = int32_field(v, w);
       }},
      {"local_solver",
       [](Scenario& s, const std::string& v, const std::string&) {
         s.solver.local_solver = local_solver_from_string(v);
       }},
      {"node_cap", [](Scenario& s, const std::string& v, const std::string& w) {
         s.solver.node_cap = parse_int_value(v, w);
       }},
      {"parallelism",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.solver.parallelism = int32_field(v, w);
       }},
      // Retired key, still set (to false) by the frozen perfbench inis.
      {"memoized_covers",
       [](Scenario&, const std::string& v, const std::string& w) {
         if (parse_bool_value(v, w))
           throw ScenarioError("'" + w +
                               "' is retired: memoized clique covers were "
                               "removed; drop the key or set it to false");
       }},
      {"epsilon", [](Scenario& s, const std::string& v, const std::string& w) {
         s.solver.epsilon = parse_double_value(v, w);
       }},
  };
  return fields;
}

const std::vector<FieldDef>& run_fields() {
  static const std::vector<FieldDef> fields{
      {"slots", [](Scenario& s, const std::string& v, const std::string& w) {
         s.run.slots = parse_int_value(v, w);
       }},
      {"update_period",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.run.update_period = int32_field(v, w);
       }},
      {"seed", [](Scenario& s, const std::string& v, const std::string& w) {
         s.run.seed = parse_uint_value(v, w);
       }},
      {"series_stride",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.run.series_stride = int32_field(v, w);
       }},
      {"count_messages",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.run.count_messages = parse_bool_value(v, w);
       }},
  };
  return fields;
}

const std::vector<FieldDef>& net_fields() {
  static const std::vector<FieldDef> fields{
      {"drop_prob", [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.faults.drop_prob = parse_double_value(v, w);
       }},
      {"drop_seed", [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.faults.seed = parse_uint_value(v, w);
       }},
      {"dup_prob", [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.faults.dup_prob = parse_double_value(v, w);
       }},
      {"reorder_prob",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.faults.reorder_prob = parse_double_value(v, w);
       }},
      {"delay_slots_max",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.faults.delay_slots_max = int32_field(v, w);
       }},
      {"membership",
       [](Scenario& s, const std::string& v, const std::string&) {
         membership_mode_from_string(v);  // reject bad values at parse time
         s.net.membership = v;
       }},
      {"hello_timeout_slots",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.liveness.hello_timeout_slots = int32_field(v, w);
       }},
      {"hello_max_retries",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.liveness.hello_max_retries = int32_field(v, w);
       }},
      {"backoff_base",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.liveness.backoff_base = int32_field(v, w);
       }},
      {"transport",
       [](Scenario& s, const std::string& v, const std::string&) {
         transport_kind_from_string(v);  // reject bad values at parse time
         s.net.transport = v;
       }},
      {"mtu", [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.mtu = int32_field(v, w);
       }},
      {"shard", [](Scenario& s, const std::string& v, const std::string& w) {
         s.net.shard = int32_field(v, w);
       }},
  };
  return fields;
}

const std::vector<FieldDef>& replication_fields() {
  static const std::vector<FieldDef> fields{
      {"replications",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.replication.replications = int32_field(v, w);
       }},
      {"seed0", [](Scenario& s, const std::string& v, const std::string& w) {
         s.replication.seed0 = parse_uint_value(v, w);
       }},
      {"parallelism",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.replication.parallelism = int32_field(v, w);
       }},
  };
  return fields;
}

const std::vector<FieldDef>& timing_fields() {
  static const std::vector<FieldDef> fields{
      {"ta_ms", [](Scenario& s, const std::string& v, const std::string& w) {
         s.timing.ta_ms = parse_double_value(v, w);
       }},
      {"td_ms", [](Scenario& s, const std::string& v, const std::string& w) {
         s.timing.td_ms = parse_double_value(v, w);
       }},
      {"tb_ms", [](Scenario& s, const std::string& v, const std::string& w) {
         s.timing.tb_ms = parse_double_value(v, w);
       }},
      {"tl_ms", [](Scenario& s, const std::string& v, const std::string& w) {
         s.timing.tl_ms = parse_double_value(v, w);
       }},
      {"decision_mini_rounds",
       [](Scenario& s, const std::string& v, const std::string& w) {
         s.timing.decision_mini_rounds = int32_field(v, w);
       }},
  };
  return fields;
}

const std::vector<FieldDef>& obs_fields() {
  static const std::vector<FieldDef> fields{
      {"trace", [](Scenario& s, const std::string& v, const std::string&) {
         s.obs.trace = v;
       }},
      {"metrics", [](Scenario& s, const std::string& v, const std::string&) {
         s.obs.metrics = v;
       }},
  };
  return fields;
}

/// nullptr for the component sections (topology/channel/policy), which mix
/// reserved keys with free-form factory params and are routed by hand.
const std::vector<FieldDef>* fixed_section(const std::string& section) {
  if (section == "solver") return &solver_fields();
  if (section == "run") return &run_fields();
  if (section == "net") return &net_fields();
  if (section == "replication") return &replication_fields();
  if (section == "timing") return &timing_fields();
  if (section == "obs") return &obs_fields();
  return nullptr;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Route one `section.key = value` assignment into the Scenario. Shared by
/// the file parser and apply_override, so both produce identical routing
/// and identical error messages.
void set_field(Scenario& s, const std::string& section, const std::string& key,
               const std::string& value) {
  const std::string where = section.empty() ? key : section + "." + key;
  if (section.empty()) {
    if (key == "name") {
      s.name = value;
      return;
    }
    throw ScenarioError("unknown top-level key '" + key +
                        "'; only 'name' may appear before the first "
                        "[section]");
  }
  if (section == "topology") {
    if (key == "kind")
      s.topology.kind = value;
    else
      s.topology.params.set(key, value);
    return;
  }
  if (section == "channel") {
    if (key == "kind")
      s.channel.kind = value;
    else if (key == "channels")
      s.num_channels = checked_int32(parse_int_value(value, where), where);
    else
      s.channel.params.set(key, value);
    return;
  }
  if (section == "policy") {
    if (key == "kind")
      s.policy.kind = value;
    else
      s.policy.params.set(key, value);
    return;
  }
  if (section == "dynamics") {
    // Like the other component sections, but with two reserved fixed keys
    // next to the free-form model parameters.
    if (key == "kind")
      s.dynamics.model.kind = value;
    else if (key == "incremental")
      s.dynamics.incremental = parse_bool_value(value, where);
    else if (key == "batch")
      s.dynamics.batch = parse_bool_value(value, where);
    else if (key == "seed")
      s.dynamics.seed = parse_uint_value(value, where);
    else
      s.dynamics.model.params.set(key, value);
    return;
  }
  if (const std::vector<FieldDef>* fields = fixed_section(section)) {
    for (const FieldDef& f : *fields) {
      if (key == f.key) {
        f.set(s, value, where);
        return;
      }
    }
    std::vector<std::string> valid;
    for (const FieldDef& f : *fields) valid.emplace_back(f.key);
    throw ScenarioError("unknown key '" + key + "' in [" + section +
                        "]; valid keys: " + join_keys(valid));
  }
  throw ScenarioError("unknown section [" + section +
                      "]; valid sections: " + join_keys(kSections));
}

/// Shortest decimal form that parses back to exactly the same double.
std::string format_double(double v) {
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    if (std::stod(os.str()) == v) return os.str();
  }
  return std::to_string(v);
}

void emit_params(std::ostringstream& os, const ParamMap& params) {
  for (const auto& [k, v] : params.entries()) os << k << " = " << v << "\n";
}

}  // namespace

// --------------------------------------------------------------- parsing

Scenario parse_scenario(const std::string& text) {
  Scenario s;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    try {
      if (t.front() == '[') {
        if (t.back() != ']')
          throw ScenarioError("malformed section header '" + t + "'");
        section = trim(t.substr(1, t.size() - 2));
        bool known = false;
        for (const auto& k : kSections) known = known || k == section;
        if (!known)
          throw ScenarioError("unknown section [" + section +
                              "]; valid sections: " + join_keys(kSections));
        continue;
      }
      const std::size_t eq = t.find('=');
      if (eq == std::string::npos)
        throw ScenarioError("expected 'key = value', got '" + t + "'");
      const std::string key = trim(t.substr(0, eq));
      const std::string value = trim(t.substr(eq + 1));
      if (key.empty()) throw ScenarioError("empty key in '" + t + "'");
      set_field(s, section, key, value);
    } catch (const ScenarioError& e) {
      throw ScenarioError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return s;
}

Scenario parse_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot read scenario file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_scenario(buf.str());
  } catch (const ScenarioError& e) {
    throw ScenarioError(path + ": " + e.what());
  }
}

std::string serialize_scenario(const Scenario& s) {
  std::ostringstream os;
  os << "name = " << s.name << "\n";
  os << "\n[topology]\nkind = " << s.topology.kind << "\n";
  emit_params(os, s.topology.params);
  os << "\n[channel]\nkind = " << s.channel.kind << "\n"
     << "channels = " << s.num_channels << "\n";
  emit_params(os, s.channel.params);
  os << "\n[policy]\nkind = " << s.policy.kind << "\n";
  emit_params(os, s.policy.params);
  os << "\n[dynamics]\nkind = " << s.dynamics.model.kind << "\n"
     << "incremental = " << (s.dynamics.incremental ? "true" : "false")
     << "\n"
     << "batch = " << (s.dynamics.batch ? "true" : "false") << "\n"
     << "seed = " << s.dynamics.seed << "\n";
  emit_params(os, s.dynamics.model.params);
  os << "\n[solver]\n"
     << "kind = " << solver_kind_key(s.solver.kind) << "\n"
     << "r = " << s.solver.r << "\n"
     << "D = " << s.solver.D << "\n"
     << "local_solver = " << local_solver_key(s.solver.local_solver) << "\n"
     << "node_cap = " << s.solver.node_cap << "\n"
     << "parallelism = " << s.solver.parallelism << "\n"
     << "epsilon = " << format_double(s.solver.epsilon) << "\n";
  os << "\n[run]\n"
     << "slots = " << s.run.slots << "\n"
     << "update_period = " << s.run.update_period << "\n"
     << "seed = " << s.run.seed << "\n"
     << "series_stride = " << s.run.series_stride << "\n"
     << "count_messages = " << (s.run.count_messages ? "true" : "false")
     << "\n";
  os << "\n[net]\n"
     << "drop_prob = " << format_double(s.net.faults.drop_prob) << "\n"
     << "drop_seed = " << s.net.faults.seed << "\n"
     << "dup_prob = " << format_double(s.net.faults.dup_prob) << "\n"
     << "reorder_prob = " << format_double(s.net.faults.reorder_prob) << "\n"
     << "delay_slots_max = " << s.net.faults.delay_slots_max << "\n"
     << "membership = " << s.net.membership << "\n"
     << "hello_timeout_slots = " << s.net.liveness.hello_timeout_slots << "\n"
     << "hello_max_retries = " << s.net.liveness.hello_max_retries << "\n"
     << "backoff_base = " << s.net.liveness.backoff_base << "\n"
     << "transport = " << s.net.transport << "\n"
     << "mtu = " << s.net.mtu << "\n"
     << "shard = " << s.net.shard << "\n";
  os << "\n[replication]\n"
     << "replications = " << s.replication.replications << "\n"
     << "seed0 = " << s.replication.seed0 << "\n"
     << "parallelism = " << s.replication.parallelism << "\n";
  os << "\n[timing]\n"
     << "ta_ms = " << format_double(s.timing.ta_ms) << "\n"
     << "td_ms = " << format_double(s.timing.td_ms) << "\n"
     << "tb_ms = " << format_double(s.timing.tb_ms) << "\n"
     << "tl_ms = " << format_double(s.timing.tl_ms) << "\n"
     << "decision_mini_rounds = " << s.timing.decision_mini_rounds << "\n";
  // Empty paths round-trip: `trace = ` parses back to "" (off).
  os << "\n[obs]\n"
     << "trace = " << s.obs.trace << "\n"
     << "metrics = " << s.obs.metrics << "\n";
  return os.str();
}

void apply_override(Scenario& s, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos)
    throw ScenarioError("override '" + spec +
                        "' must look like section.key=value");
  const std::string path = trim(spec.substr(0, eq));
  const std::string value = trim(spec.substr(eq + 1));
  const std::size_t dot = path.find('.');
  try {
    if (dot == std::string::npos) {
      set_field(s, "", path, value);
    } else {
      set_field(s, path.substr(0, dot), path.substr(dot + 1), value);
    }
  } catch (const ScenarioError& e) {
    throw ScenarioError("override '" + spec + "': " + e.what());
  }
}

void validate_fields(const Scenario& s) {
  if (s.num_channels < 1)
    throw ScenarioError("channel.channels must be >= 1");
  if (s.run.slots < 1) throw ScenarioError("run.slots must be >= 1");
  if (s.run.update_period < 1)
    throw ScenarioError("run.update_period must be >= 1");
  if (s.run.series_stride < 0)
    throw ScenarioError("run.series_stride must be >= 0 (0 = auto)");
  if (s.solver.r < 1) throw ScenarioError("solver.r must be >= 1");
  if (s.solver.D < 0) throw ScenarioError("solver.D must be >= 0");
  if (s.solver.node_cap < 1)
    throw ScenarioError("solver.node_cap must be >= 1");
  if (s.solver.parallelism < 0)
    throw ScenarioError("solver.parallelism must be >= 0");
  if (s.replication.replications < 0)
    throw ScenarioError("replication.replications must be >= 0");
  if (s.replication.parallelism < 0)
    throw ScenarioError("replication.parallelism must be >= 0");
  // ControlChannel requires every fault probability in [0, 1) (a channel
  // that drops everything can never complete discovery), so reject here
  // with the key name *and the offending value* instead of letting the
  // assert fire three layers down.
  const auto check_prob = [](double p, const char* key) {
    if (!(p >= 0.0 && p < 1.0))  // NaN fails both comparisons
      throw ScenarioError(std::string("net.") + key + " = " +
                          format_double(p) + " is outside the supported "
                          "[0, 1) range");
  };
  check_prob(s.net.faults.drop_prob, "drop_prob");
  check_prob(s.net.faults.dup_prob, "dup_prob");
  check_prob(s.net.faults.reorder_prob, "reorder_prob");
  if (s.net.faults.delay_slots_max < 0)
    throw ScenarioError("net.delay_slots_max must be >= 0 (got " +
                        std::to_string(s.net.faults.delay_slots_max) + ")");
  const net::MembershipMode mode =
      membership_mode_from_string(s.net.membership);
  if (mode != net::MembershipMode::kViewSync &&
      (s.net.faults.reorder_prob > 0.0 || s.net.faults.delay_slots_max > 0))
    throw ScenarioError(
        "net.reorder_prob / net.delay_slots_max require net.membership = "
        "view_sync: omniscient discovery finalizes tables once per change "
        "and cannot absorb a late hello");
  if (s.net.liveness.hello_timeout_slots < 2)
    throw ScenarioError(
        "net.hello_timeout_slots must be >= 2 (keep-alives go out every "
        "hello_timeout_slots - 1 rounds; got " +
        std::to_string(s.net.liveness.hello_timeout_slots) + ")");
  if (s.net.liveness.hello_max_retries < 0)
    throw ScenarioError("net.hello_max_retries must be >= 0 (got " +
                        std::to_string(s.net.liveness.hello_max_retries) + ")");
  if (s.net.liveness.backoff_base < 1)
    throw ScenarioError("net.backoff_base must be >= 1 (got " +
                        std::to_string(s.net.liveness.backoff_base) + ")");
  if (s.net.mtu < net::wire::kMinMtu || s.net.mtu > net::wire::kMaxMtu)
    throw ScenarioError(
        "net.mtu = " + std::to_string(s.net.mtu) + " is outside the "
        "supported [" + std::to_string(net::wire::kMinMtu) + ", " +
        std::to_string(net::wire::kMaxMtu) + "] range (header " +
        std::to_string(net::wire::kHeaderSize) + " B must fit; UDP "
        "payloads cap at 65507 B)");
  if (s.net.shard < 1)
    throw ScenarioError("net.shard must be >= 1 (got " +
                        std::to_string(s.net.shard) + ")");
  const TransportKind transport =
      transport_kind_from_string(s.net.transport);
  if (s.net.shard > 1 && transport != TransportKind::kUdp)
    throw ScenarioError(
        "net.shard = " + std::to_string(s.net.shard) + " requires "
        "net.transport = udp (only the socket transport runs a scenario as "
        "multiple processes)");
  if (transport == TransportKind::kUdp) {
    if (mode != net::MembershipMode::kOmniscient)
      throw ScenarioError(
          "net.transport = udp requires net.membership = omniscient "
          "(the sharded runtime cannot replay the view-sync membership "
          "phase's same-pass hello responses yet)");
    if (is_dynamic(s))
      throw ScenarioError(
          "net.transport = udp requires static dynamics (sharded churn "
          "rediscovery would need its own exchange barrier)");
  }
}

void validate(const Scenario& s) {
  validate_fields(s);
  topology_registry().validate(s.topology.kind, s.topology.params);
  if (s.channel.kind.empty())
    throw ScenarioError(
        "scenario has no channel model ([channel] kind is empty)");
  channel_registry().validate(s.channel.kind, s.channel.params);
  policy_registry().validate(s.policy.kind, s.policy.params);
  dynamics::dynamics_registry().validate(s.dynamics.model.kind,
                                         s.dynamics.model.params);
}

bool is_dynamic(const Scenario& s) {
  return s.dynamics.model.kind != dynamics::kStaticDynamicsKind;
}

// ----------------------------------------------------------- conversions

SimulationConfig to_simulation_config(const Scenario& s) {
  SimulationConfig cfg;
  cfg.slots = s.run.slots;
  cfg.update_period = s.run.update_period;
  cfg.solver = s.solver.kind;
  cfg.r = s.solver.r;
  cfg.D = s.solver.D;
  cfg.local_solver = s.solver.local_solver;
  cfg.bnb_node_cap = s.solver.node_cap;
  cfg.local_solve_parallelism = s.solver.parallelism;
  cfg.ptas_epsilon = s.solver.epsilon;
  cfg.timing = s.timing;
  cfg.seed = s.run.seed;
  cfg.count_messages = s.run.count_messages;
  cfg.series_stride =
      s.run.series_stride > 0
          ? s.run.series_stride
          : static_cast<int>(std::max<std::int64_t>(1, s.run.slots / 100));
  return cfg;
}

// ------------------------------------------------------- enum <-> string

// One table per enum: from_string (and _key / _keys, where they exist) all
// derive from it, so adding a kind updates parsing, serialization, error
// messages, and the CLI's `list` output together.
namespace {

constexpr std::pair<const char*, SolverKind> kSolverKinds[] = {
    {"distributed", SolverKind::kDistributedPtas},
    {"centralized", SolverKind::kCentralizedPtas},
    {"greedy", SolverKind::kGreedy},
    {"exact", SolverKind::kExact},
};

constexpr std::pair<const char*, LocalSolverKind> kLocalSolvers[] = {
    {"exact", LocalSolverKind::kExact},
    {"greedy", LocalSolverKind::kGreedy},
};

constexpr std::pair<const char*, PolicyKind> kPolicyKinds[] = {
    {"cab", PolicyKind::kCab},
    {"llr", PolicyKind::kLlr},
    {"ucb1", PolicyKind::kUcb1},
    {"greedy", PolicyKind::kGreedy},
    {"eps", PolicyKind::kEpsGreedy},
    {"thompson", PolicyKind::kThompson},
};

constexpr std::pair<const char*, net::MembershipMode> kMembershipModes[] = {
    {"omniscient", net::MembershipMode::kOmniscient},
    {"view_sync", net::MembershipMode::kViewSync},
};

constexpr std::pair<const char*, TransportKind> kTransportKinds[] = {
    {"inprocess", TransportKind::kInProcess},
    {"udp", TransportKind::kUdp},
};

template <typename Table>
std::vector<std::string> table_keys(const Table& table) {
  std::vector<std::string> out;
  for (const auto& [key, kind] : table) out.emplace_back(key);
  return out;
}

}  // namespace

const std::vector<std::string>& solver_kind_keys() {
  static const std::vector<std::string> keys = table_keys(kSolverKinds);
  return keys;
}

const std::vector<std::string>& local_solver_keys() {
  static const std::vector<std::string> keys = table_keys(kLocalSolvers);
  return keys;
}

SolverKind solver_kind_from_string(const std::string& s) {
  for (const auto& [key, kind] : kSolverKinds)
    if (s == key) return kind;
  throw ScenarioError("unknown solver kind '" + s +
                      "'; valid: " + join_keys(solver_kind_keys()));
}

const char* solver_kind_key(SolverKind kind) {
  for (const auto& [key, k] : kSolverKinds)
    if (kind == k) return key;
  return "?";
}

LocalSolverKind local_solver_from_string(const std::string& s) {
  for (const auto& [key, kind] : kLocalSolvers)
    if (s == key) return kind;
  throw ScenarioError("unknown local solver '" + s +
                      "'; valid: " + join_keys(local_solver_keys()));
}

const char* local_solver_key(LocalSolverKind kind) {
  for (const auto& [key, k] : kLocalSolvers)
    if (kind == k) return key;
  return "?";
}

PolicyKind policy_kind_from_string(const std::string& s) {
  for (const auto& [key, kind] : kPolicyKinds)
    if (s == key) return kind;
  throw ScenarioError("policy '" + s +
                      "' has no built-in PolicyKind; built-ins: " +
                      join_keys(table_keys(kPolicyKinds)));
}

net::MembershipMode membership_mode_from_string(const std::string& s) {
  for (const auto& [key, mode] : kMembershipModes)
    if (s == key) return mode;
  throw ScenarioError("unknown net.membership '" + s +
                      "'; valid: " + join_keys(table_keys(kMembershipModes)));
}

TransportKind transport_kind_from_string(const std::string& s) {
  for (const auto& [key, kind] : kTransportKinds)
    if (s == key) return kind;
  throw ScenarioError("unknown net.transport '" + s +
                      "'; valid: " + join_keys(table_keys(kTransportKinds)));
}

}  // namespace mhca::scenario
