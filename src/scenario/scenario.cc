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

// One parse_into / text_of pair per field type: field() picks both from the
// member's type, so a key's parsing and its canonical text cannot disagree.
void parse_into(int& out, const std::string& v, const std::string& where) {
  out = checked_int32(parse_int_value(v, where), where);
}
void parse_into(std::int64_t& out, const std::string& v,
                const std::string& where) {
  out = parse_int_value(v, where);
}
void parse_into(std::uint64_t& out, const std::string& v,
                const std::string& where) {
  out = parse_uint_value(v, where);
}
void parse_into(double& out, const std::string& v, const std::string& where) {
  out = parse_double_value(v, where);
}
void parse_into(bool& out, const std::string& v, const std::string& where) {
  out = parse_bool_value(v, where);
}
void parse_into(std::string& out, const std::string& v, const std::string&) {
  out = v;
}
void parse_into(SolverKind& out, const std::string& v, const std::string&) {
  out = solver_kind_from_string(v);
}
void parse_into(LocalSolverKind& out, const std::string& v,
                const std::string&) {
  out = local_solver_from_string(v);
}

std::string text_of(int v) { return std::to_string(v); }
std::string text_of(std::int64_t v) { return std::to_string(v); }
std::string text_of(std::uint64_t v) { return std::to_string(v); }
std::string text_of(double v) { return format_double(v); }
std::string text_of(bool v) { return v ? "true" : "false"; }
std::string text_of(const std::string& v) { return v; }
std::string text_of(SolverKind v) { return solver_kind_key(v); }
std::string text_of(LocalSolverKind v) { return local_solver_key(v); }

/// One fixed key of a section: how a value is parsed into the Scenario and
/// how the Scenario writes it back. Parsing, overrides, serialization and
/// the valid-keys error message all read this one entry. `text` is null for
/// a parse-only (retired) key, which serialization skips.
struct FieldDef {
  const char* key;
  std::function<void(Scenario&, const std::string& value,
                     const std::string& where)>
      set;
  std::function<std::string(const Scenario&)> text;
};

/// The FieldDef of the member `ref` returns, e.g.
/// `field("r", [](auto& s) -> auto& { return s.solver.r; })`.
template <typename Ref>
FieldDef field(const char* key, Ref ref) {
  return {key,
          [ref](Scenario& s, const std::string& v, const std::string& w) {
            parse_into(ref(s), v, w);
          },
          [ref](const Scenario& s) { return text_of(ref(s)); }};
}

/// `f`, but `check(value)` runs first and throws on a bad value: a string
/// field that must name an enum entry fails at parse time.
template <typename Check>
FieldDef checked(FieldDef f, Check check) {
  f.set = [set = std::move(f.set), check](Scenario& s, const std::string& v,
                                          const std::string& w) {
    check(v);
    set(s, v, w);
  };
  return f;
}

/// The ParamMap of a component section: it takes every key the section's
/// fields do not name. Both accessors are left empty for fixed-schema
/// sections.
struct ParamsDef {
  std::function<ParamMap&(Scenario&)> of;
  std::function<const ParamMap&(const Scenario&)> read;
};

template <typename Ref>
ParamsDef params(Ref ref) {
  return {ref, ref};
}

struct SectionDef {
  const char* name;
  std::vector<FieldDef> fields;  ///< Canonical (serialization) order.
  ParamsDef params;
};

/// The scenario schema: every section and fixed key, in canonical order.
const std::vector<SectionDef>& schema() {
  static const std::vector<SectionDef> sections{
      {"topology",
       {field("kind", [](auto& s) -> auto& { return s.topology.kind; })},
       params([](auto& s) -> auto& { return s.topology.params; })},
      {"channel",
       {field("kind", [](auto& s) -> auto& { return s.channel.kind; }),
        field("channels", [](auto& s) -> auto& { return s.num_channels; })},
       params([](auto& s) -> auto& { return s.channel.params; })},
      {"policy",
       {field("kind", [](auto& s) -> auto& { return s.policy.kind; })},
       params([](auto& s) -> auto& { return s.policy.params; })},
      {"dynamics",
       {field("kind", [](auto& s) -> auto& { return s.dynamics.model.kind; }),
        field("incremental",
              [](auto& s) -> auto& { return s.dynamics.incremental; }),
        field("batch", [](auto& s) -> auto& { return s.dynamics.batch; }),
        field("seed", [](auto& s) -> auto& { return s.dynamics.seed; })},
       params([](auto& s) -> auto& { return s.dynamics.model.params; })},
      {"solver",
       {field("kind", [](auto& s) -> auto& { return s.solver.kind; }),
        field("r", [](auto& s) -> auto& { return s.solver.r; }),
        field("D", [](auto& s) -> auto& { return s.solver.D; }),
        field("local_solver",
              [](auto& s) -> auto& { return s.solver.local_solver; }),
        field("node_cap", [](auto& s) -> auto& { return s.solver.node_cap; }),
        field("parallelism",
              [](auto& s) -> auto& { return s.solver.parallelism; }),
        // Retired key, still set (to false) by the frozen perfbench inis.
        {"memoized_covers",
         [](Scenario&, const std::string& v, const std::string& w) {
           if (parse_bool_value(v, w))
             throw ScenarioError("'" + w +
                                 "' is retired: memoized clique covers were "
                                 "removed; drop the key or set it to false");
         },
         nullptr},
        field("epsilon", [](auto& s) -> auto& { return s.solver.epsilon; })},
       {}},
      {"run",
       {field("slots", [](auto& s) -> auto& { return s.run.slots; }),
        field("update_period",
              [](auto& s) -> auto& { return s.run.update_period; }),
        field("seed", [](auto& s) -> auto& { return s.run.seed; }),
        field("series_stride",
              [](auto& s) -> auto& { return s.run.series_stride; }),
        field("count_messages",
              [](auto& s) -> auto& { return s.run.count_messages; })},
       {}},
      {"net",
       {field("drop_prob",
              [](auto& s) -> auto& { return s.net.faults.drop_prob; }),
        field("drop_seed", [](auto& s) -> auto& { return s.net.faults.seed; }),
        field("dup_prob",
              [](auto& s) -> auto& { return s.net.faults.dup_prob; }),
        field("reorder_prob",
              [](auto& s) -> auto& { return s.net.faults.reorder_prob; }),
        field("delay_slots_max",
              [](auto& s) -> auto& { return s.net.faults.delay_slots_max; }),
        checked(field("membership",
                      [](auto& s) -> auto& { return s.net.membership; }),
                membership_mode_from_string),
        field("hello_timeout_slots",
              [](auto& s) -> auto& {
                return s.net.liveness.hello_timeout_slots;
              }),
        field("hello_max_retries",
              [](auto& s) -> auto& {
                return s.net.liveness.hello_max_retries;
              }),
        field("backoff_base",
              [](auto& s) -> auto& { return s.net.liveness.backoff_base; }),
        checked(field("transport",
                      [](auto& s) -> auto& { return s.net.transport; }),
                transport_kind_from_string),
        field("mtu", [](auto& s) -> auto& { return s.net.mtu; }),
        field("shard", [](auto& s) -> auto& { return s.net.shard; })},
       {}},
      {"replication",
       {field("replications",
              [](auto& s) -> auto& { return s.replication.replications; }),
        field("seed0", [](auto& s) -> auto& { return s.replication.seed0; }),
        field("parallelism",
              [](auto& s) -> auto& { return s.replication.parallelism; })},
       {}},
      {"timing",
       {field("ta_ms", [](auto& s) -> auto& { return s.timing.ta_ms; }),
        field("td_ms", [](auto& s) -> auto& { return s.timing.td_ms; }),
        field("tb_ms", [](auto& s) -> auto& { return s.timing.tb_ms; }),
        field("tl_ms", [](auto& s) -> auto& { return s.timing.tl_ms; }),
        field("decision_mini_rounds",
              [](auto& s) -> auto& {
                return s.timing.decision_mini_rounds;
              })},
       {}},
      // Empty paths round-trip: `trace = ` parses back to "" (off).
      {"obs",
       {field("trace", [](auto& s) -> auto& { return s.obs.trace; }),
        field("metrics", [](auto& s) -> auto& { return s.obs.metrics; })},
       {}},
  };
  return sections;
}

const SectionDef& find_section(const std::string& name) {
  for (const SectionDef& sec : schema())
    if (name == sec.name) return sec;
  std::vector<std::string> valid;
  for (const SectionDef& sec : schema()) valid.emplace_back(sec.name);
  throw ScenarioError("unknown section [" + name +
                      "]; valid sections: " + join_keys(valid));
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
  if (section.empty()) {
    if (key == "name") {
      s.name = value;
      return;
    }
    throw ScenarioError("unknown top-level key '" + key +
                        "'; only 'name' may appear before the first "
                        "[section]");
  }
  const SectionDef& sec = find_section(section);
  for (const FieldDef& f : sec.fields) {
    if (key == f.key) {
      f.set(s, value, section + "." + key);
      return;
    }
  }
  if (sec.params.of) {
    sec.params.of(s).set(key, value);
    return;
  }
  std::vector<std::string> valid;
  for (const FieldDef& f : sec.fields) valid.emplace_back(f.key);
  throw ScenarioError("unknown key '" + key + "' in [" + section +
                      "]; valid keys: " + join_keys(valid));
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
        find_section(section);  // reject an unknown section at its header
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
  for (const SectionDef& sec : schema()) {
    os << "\n[" << sec.name << "]\n";
    for (const FieldDef& f : sec.fields)
      if (f.text) os << f.key << " = " << f.text(s) << "\n";
    if (sec.params.read)
      for (const auto& [k, v] : sec.params.read(s).entries())
        os << k << " = " << v << "\n";
  }
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
