#include "scn/scenario.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>

#include "baseline/decay.h"
#include "graph/generators.h"
#include "scn/json.h"
#include "scn/spec_error.h"
#include "sim/splice.h"
#include "util/assert.h"
#include "util/specparse.h"

namespace dg::scn {

namespace {

using spec::parse_num;
using spec::split;

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string join(std::initializer_list<const char*> words) {
  std::string out;
  for (const char* w : words) {
    if (!out.empty()) out += ", ";
    out += w;
  }
  return out;
}

/// Error sink: first failure wins; messages carry file:line:col + JSON
/// path so a campaign author can jump straight to the offending token.
class Ctx {
 public:
  explicit Ctx(std::string filename) : filename_(std::move(filename)) {}

  bool fail(const json::Value& at, const std::string& path,
            const std::string& message) {
    if (error_.empty()) {
      std::ostringstream os;
      os << filename_ << ':' << at.line() << ':' << at.col() << ": ";
      if (!path.empty()) os << path << ": ";
      os << message;
      error_ = os.str();
    }
    return false;
  }

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

 private:
  std::string filename_;
  std::string error_;
};

/// Typed field access over one JSON object with unknown-key detection.
/// Getters leave the output untouched when the key is absent (specs carry
/// the defaults), and fail with the expected/actual kinds otherwise.
class ObjectReader {
 public:
  ObjectReader(Ctx& ctx, const json::Value& obj, std::string path,
               std::initializer_list<const char*> valid)
      : ctx_(ctx), obj_(obj), path_(std::move(path)), valid_(valid) {}

  /// Reports every key outside the valid list.  Call last.
  bool finish() {
    for (const auto& [key, value] : obj_.members()) {
      bool known = false;
      for (const char* v : valid_) {
        if (key == v) {
          known = true;
          break;
        }
      }
      if (!known) {
        return ctx_.fail(value, path_,
                         "unknown key '" + key +
                             "' (valid keys: " + join(valid_) + ")");
      }
    }
    return true;
  }

  const json::Value* get(const char* key) const { return obj_.find(key); }

  bool str(const char* key, std::string& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return true;
    if (!v->is_string()) return wrong_kind(*v, key, "a string");
    out = v->as_string();
    return true;
  }

  bool boolean(const char* key, bool& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return true;
    if (!v->is_bool()) return wrong_kind(*v, key, "a boolean");
    out = v->as_bool();
    return true;
  }

  bool number(const char* key, double& out) {
    const json::Value* v = get(key);
    if (v == nullptr) return true;
    if (!v->is_number()) return wrong_kind(*v, key, "a number");
    out = v->as_number();
    return true;
  }

  bool integer(const char* key, std::int64_t& out, std::int64_t min,
               std::int64_t max = (std::int64_t{1} << 53)) {
    const json::Value* v = get(key);
    if (v == nullptr) return true;
    if (!v->is_number()) return wrong_kind(*v, key, "an integer");
    const double d = v->as_number();
    if (d != std::floor(d)) return wrong_kind(*v, key, "an integer");
    if (d < static_cast<double>(min) || d > static_cast<double>(max)) {
      std::ostringstream os;
      os << "key '" << key << "' must be in [" << min << ", " << max
         << "]; got " << json::format_number(d);
      return ctx_.fail(*v, path_, os.str());
    }
    out = static_cast<std::int64_t>(d);
    return true;
  }

  bool size(const char* key, std::size_t& out, std::size_t min = 1) {
    std::int64_t v = static_cast<std::int64_t>(out);
    if (!integer(key, v, static_cast<std::int64_t>(min))) return false;
    out = static_cast<std::size_t>(v);
    return true;
  }

  bool wrong_kind(const json::Value& v, const char* key, const char* want) {
    return ctx_.fail(v, path_,
                     std::string("key '") + key + "' must be " + want +
                         "; got " + v.kind_name());
  }

  Ctx& ctx() { return ctx_; }
  const std::string& path() const { return path_; }

 private:
  Ctx& ctx_;
  const json::Value& obj_;
  std::string path_;
  std::initializer_list<const char*> valid_;
};

// Key lists live at namespace scope so their backing arrays have static
// storage: ObjectReader keeps the initializer_list by value, and a braced
// temporary at a call site would dangle once the statement ends.
constexpr std::initializer_list<const char*> kTopLevelKeys = {
    "campaign", "scenarios"};
constexpr std::initializer_list<const char*> kScenarioKeys = {
    "name", "topology", "scheduler", "channel", "traffic", "faults",
    "algorithm", "trials", "seed", "round_threads", "obs", "stages",
    "matrix"};
constexpr std::initializer_list<const char*> kTopologyKeys = {
    "type", "n", "side", "r", "cols", "rows", "spacing",
    "k", "cliques", "p_grey_reliable", "p_grey_unreliable"};
constexpr std::initializer_list<const char*> kAlgorithmKeys = {
    "type", "eps1", "r", "ack_scale", "senders", "receiver",
    "horizon_phases", "log_delta", "horizon_rounds", "ack_rounds",
    "seed_eps", "queue_cap", "phases_per_seed", "shared_seeds"};
constexpr std::initializer_list<const char*> kAxisEntryKeys = {
    "tag", "seed_offset", "set"};

const std::set<std::string> kTopologyTypes = {
    "geometric", "grid", "clique", "star", "line", "bridged",
    "contention_star", "disjoint_cliques", "deployment"};
const std::set<std::string> kAlgorithmTypes = {
    "lb_progress", "decay_progress", "seed_agreement",
    "seed_then_progress", "abstraction_fidelity", "traffic_latency",
    "lb_churn"};

/// The one-line workload list every workload-related rejection embeds
/// (the same actionable style as the channel/scheduler/traffic specs).
const char* kValidAlgorithmTypes =
    "lb_progress, decay_progress, seed_agreement, seed_then_progress, "
    "abstraction_fidelity, traffic_latency, lb_churn";
/// Topology families that attach a plane embedding (required by SINR
/// reception).
const std::set<std::string> kEmbeddedTopologies = {
    "geometric", "grid", "star", "line", "bridged"};

bool parse_topology(Ctx& ctx, const json::Value& v, const std::string& path,
                    TopologySpec& out) {
  if (!v.is_object()) {
    return ctx.fail(v, path, std::string("must be an object; got ") +
                                 v.kind_name());
  }
  ObjectReader r(ctx, v, path, kTopologyKeys);
  return r.str("type", out.type) && r.size("n", out.n) &&
         r.number("side", out.side) && r.number("r", out.r) &&
         r.size("cols", out.cols) && r.size("rows", out.rows) &&
         r.number("spacing", out.spacing) && r.size("k", out.k) &&
         r.size("cliques", out.cliques) &&
         r.number("p_grey_reliable", out.p_grey_reliable) &&
         r.number("p_grey_unreliable", out.p_grey_unreliable) && r.finish();
}

bool parse_algorithm(Ctx& ctx, const json::Value& v, const std::string& path,
                     AlgorithmSpec& out) {
  if (!v.is_object()) {
    return ctx.fail(v, path, std::string("must be an object; got ") +
                                 v.kind_name());
  }
  ObjectReader r(ctx, v, path, kAlgorithmKeys);
  std::int64_t log_delta = out.log_delta;
  if (!r.str("type", out.type) || !r.number("eps1", out.eps1) ||
      !r.number("r", out.r) || !r.number("ack_scale", out.ack_scale) ||
      !r.integer("receiver", out.receiver, -1) ||
      !r.integer("horizon_phases", out.horizon_phases, 1) ||
      !r.integer("log_delta", log_delta, 1, 62) ||
      !r.integer("horizon_rounds", out.horizon_rounds, 1) ||
      !r.integer("ack_rounds", out.ack_rounds, 1) ||
      !r.number("seed_eps", out.seed_eps) ||
      !r.integer("queue_cap", out.queue_cap, 0) ||
      !r.integer("phases_per_seed", out.phases_per_seed,
                 -(std::int64_t{1} << 53)) ||
      !r.boolean("shared_seeds", out.shared_seeds)) {
    return false;
  }
  out.log_delta = static_cast<int>(log_delta);
  if (const json::Value* s = r.get("senders")) {
    if (s->is_string()) {
      if (s->as_string() != "all_but_receiver") {
        return ctx.fail(*s, path,
                        "senders must be an array of vertex indices or the "
                        "string \"all_but_receiver\"; got '" +
                            s->as_string() + "'");
      }
      out.senders_all_but_receiver = true;
      out.senders.clear();
    } else if (s->is_array()) {
      if (s->items().empty()) {
        return ctx.fail(*s, path, "senders must not be empty");
      }
      out.senders.clear();
      for (const json::Value& item : s->items()) {
        if (!item.is_number()) {
          return ctx.fail(item, path,
                          "senders entries must be non-negative integers");
        }
        const double d = item.as_number();
        if (d != std::floor(d) || d < 0) {
          return ctx.fail(item, path,
                          "senders entries must be non-negative integers");
        }
        out.senders.push_back(static_cast<graph::Vertex>(d));
      }
    } else {
      return r.wrong_kind(*s, "senders",
                          "an array or \"all_but_receiver\"");
    }
  }
  return r.finish();
}

/// Total vertex count of a topology spec (known statically for every
/// family), used to bound-check senders/receiver at validation time
/// instead of hitting an engine contract abort mid-campaign.
std::size_t node_count(const TopologySpec& t) {
  if (t.type == "geometric" || t.type == "deployment") return t.n;
  if (t.type == "grid") return t.cols * t.rows;
  if (t.type == "clique" || t.type == "line") return t.k;
  if (t.type == "star") return t.k + 1;
  if (t.type == "bridged") return 2 * t.k;
  if (t.type == "contention_star") return t.k + 2;
  if (t.type == "disjoint_cliques") return t.cliques * t.k;
  return 0;
}

/// Ranges of a topology spec.  Sizes need no rule of their own: the
/// vertex-count rule in cross_field_error() implies every generator's
/// size precondition.
std::string topology_error(const TopologySpec& t) {
  if (kTopologyTypes.find(t.type) == kTopologyTypes.end()) {
    return "unknown topology type '" + t.type +
           "' (valid: geometric, grid, clique, star, line, bridged, "
           "contention_star, disjoint_cliques, deployment)";
  }
  if (!(t.side > 0.0)) return "side must be > 0";
  if (!(t.spacing > 0.0)) return "spacing must be > 0";
  const double min_r = t.type == "bridged" ? 1.2 : 1.0;
  if (!(t.r >= min_r)) {
    std::ostringstream os;
    os << "r must be >= " << min_r << " for topology '" << t.type << "'";
    return os.str();
  }
  for (double p : {t.p_grey_reliable, t.p_grey_unreliable}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return "grey-zone probabilities must be in [0, 1]";
    }
  }
  return "";
}

std::string algorithm_error(const AlgorithmSpec& a) {
  if (kAlgorithmTypes.find(a.type) == kAlgorithmTypes.end()) {
    return "unknown algorithm type '" + a.type + "' (valid: " +
           std::string(kValidAlgorithmTypes) + ")";
  }
  if (!(a.eps1 > 0.0 && a.eps1 <= 0.5)) return "eps1 must be in (0, 0.5]";
  if (!(a.seed_eps > 0.0 && a.seed_eps <= 0.25)) {
    return "seed_eps must be in (0, 0.25]";
  }
  if (!(a.ack_scale > 0.0)) return "ack_scale must be > 0";
  if (!(a.r >= 0.0)) return "r must be >= 0 (0 = derive from topology)";
  if (a.phases_per_seed < 1 ||
      a.phases_per_seed > std::numeric_limits<int>::max()) {
    return "phases_per_seed must be in [1, " +
           std::to_string(std::numeric_limits<int>::max()) + "]";
  }
  return "";
}

/// Cross-field rules: workload vs topology vs channel compatibility plus
/// vertex bound checks.
std::string cross_field_error(const ScenarioSpec& spec) {
  const AlgorithmSpec& a = spec.algorithm;
  const std::size_t n = node_count(spec.topology);
  if (n < 2) return "topology must have at least 2 vertices";
  if (a.type == "abstraction_fidelity") {
    if (spec.topology.type != "deployment") {
      return "algorithm 'abstraction_fidelity' requires topology type "
             "'deployment' (a raw SINR embedding); got '" +
             spec.topology.type + "'";
    }
    if (!spec.channel_spec.is_sinr) {
      return "algorithm 'abstraction_fidelity' requires an SINR channel "
             "(channel: \"sinr:alpha,beta,noise\"); got '" +
             spec.channel + "'";
    }
  } else if (spec.topology.type == "deployment") {
    return "topology 'deployment' is only valid with algorithm "
           "'abstraction_fidelity' (other workloads need a dual graph; use "
           "'geometric' instead)";
  } else if (spec.channel_spec.is_sinr) {
    if (a.type == "decay_progress" || a.type == "seed_then_progress") {
      return "algorithm '" + a.type +
             "' supports only the dual_graph channel";
    }
    if (kEmbeddedTopologies.find(spec.topology.type) ==
        kEmbeddedTopologies.end()) {
      return "channel 'sinr' needs an embedded topology (geometric, grid, "
             "star, line, bridged); got '" +
             spec.topology.type + "'";
    }
  }
  if (!spec.faults.empty()) {
    const fault::FaultSpec& f = spec.fault_spec;
    const bool names_vertex = f.kind == fault::FaultSpec::Kind::kCrash ||
                              f.kind == fault::FaultSpec::Kind::kRegion;
    if (names_vertex && f.vertex >= n) {
      std::ostringstream os;
      os << "faults '" << spec.faults << "' names vertex " << f.vertex
         << ", but the topology has only " << n << " vertices";
      return os.str();
    }
    if (f.kind == fault::FaultSpec::Kind::kAdversary &&
        static_cast<std::size_t>(f.k) > n) {
      std::ostringstream os;
      os << "faults '" << spec.faults << "' crashes " << f.k
         << " vertices per period, but the topology has only " << n
         << " vertices";
      return os.str();
    }
  }
  if (!spec.traffic.empty()) {
    const traffic::TrafficSpec& t = spec.traffic_spec;
    const bool counted = t.kind == traffic::TrafficSpec::Kind::kSaturate ||
                         t.kind == traffic::TrafficSpec::Kind::kBurst;
    if (counted && t.count > n) {
      std::ostringstream os;
      os << "traffic '" << spec.traffic << "' names " << t.count
         << " sender(s), but the topology has only " << n << " vertices";
      return os.str();
    }
    if (t.kind == traffic::TrafficSpec::Kind::kHotspot && t.hot >= n) {
      std::ostringstream os;
      os << "traffic hot vertex " << t.hot << " out of range (topology has "
         << n << " vertices)";
      return os.str();
    }
  }
  if (a.receiver >= static_cast<std::int64_t>(n)) {
    std::ostringstream os;
    os << "receiver " << a.receiver << " out of range (topology has " << n
       << " vertices)";
    return os.str();
  }
  for (graph::Vertex s : a.senders) {
    if (s >= n) {
      std::ostringstream os;
      os << "sender " << s << " out of range (topology has " << n
         << " vertices)";
      return os.str();
    }
  }
  return "";
}

/// The campaign's key-consumption rules: "traffic", "faults" and
/// "queue_cap" belong only on the workloads that read them, so a sweep on
/// the wrong workload fails instead of producing identical counters.
bool check_consumption(Ctx& ctx, const json::Value& at,
                       const std::string& path, const ScenarioSpec& spec) {
  const AlgorithmSpec& a = spec.algorithm;
  if (a.type == "traffic_latency" || a.type == "lb_churn") {
    if (spec.traffic.empty()) {
      return ctx.fail(at, path,
                      "algorithm '" + a.type +
                          "' needs a \"traffic\" spec (valid: " +
                          traffic::valid_traffic_specs() + ")");
    }
  } else if (!spec.traffic.empty()) {
    return ctx.fail(at, path,
                    "key \"traffic\" is only consumed by algorithm "
                    "'traffic_latency' or 'lb_churn'; algorithm '" +
                        a.type + "' manages its own environment (valid "
                        "workload kinds: " +
                        std::string(kValidAlgorithmTypes) + ")");
  } else if (a.queue_cap != 0) {
    return ctx.fail(at, path,
                    "key \"queue_cap\" is only consumed by algorithm "
                    "'traffic_latency' or 'lb_churn'; algorithm '" +
                        a.type + "' has no admission queue (valid "
                        "workload kinds: " +
                        std::string(kValidAlgorithmTypes) + ")");
  }
  if (a.type == "lb_churn") {
    if (spec.faults.empty()) {
      return ctx.fail(at, path,
                      "algorithm 'lb_churn' needs a \"faults\" spec "
                      "(valid: " +
                          fault::valid_fault_specs() + ")");
    }
  } else if (!spec.faults.empty()) {
    return ctx.fail(at, path,
                    "key \"faults\" is only consumed by algorithm "
                    "'lb_churn'; algorithm '" +
                        a.type + "' runs fault-free (valid workload "
                        "kinds: " +
                        std::string(kValidAlgorithmTypes) + ")");
  }
  return true;
}

/// Reports a validate_scenario() failure at its field's JSON node (the
/// scenario object for a cross-field rule), so it carries the same
/// file:line:col: path: prefix as every other schema error.
bool fail_at_field(Ctx& ctx, const json::Value& v, const std::string& path,
                   const ScenarioError& err) {
  if (err.field.empty()) return ctx.fail(v, path, err.message);
  const std::size_t bracket = err.field.find('[');
  const json::Value* at = v.find(err.field.substr(0, bracket));
  if (at != nullptr && bracket != std::string::npos) {
    const std::size_t i = std::strtoull(err.field.c_str() + bracket + 1,
                                        nullptr, 10);
    if (i < at->items().size()) at = &at->items()[i];
  }
  return ctx.fail(at != nullptr ? *at : v, path + "." + err.field,
                  err.message);
}

/// Parses one *concrete* (matrix-expanded) scenario object: the JSON
/// reading here, every value rule in validate_scenario().
bool parse_scenario(Ctx& ctx, const json::Value& v, const std::string& path,
                    ScenarioSpec& out) {
  ObjectReader r(ctx, v, path, kScenarioKeys);
  if (!r.str("scheduler", out.scheduler) || !r.str("channel", out.channel) ||
      !r.str("traffic", out.traffic) || !r.str("faults", out.faults)) {
    return false;
  }
  if (const json::Value* t = r.get("topology")) {
    if (!parse_topology(ctx, *t, path + ".topology", out.topology)) {
      return false;
    }
  }
  if (const json::Value* a = r.get("algorithm")) {
    if (!parse_algorithm(ctx, *a, path + ".algorithm", out.algorithm)) {
      return false;
    }
  }
  std::int64_t trials = static_cast<std::int64_t>(out.trials);
  std::int64_t seed = 0;
  bool have_seed = v.find("seed") != nullptr;
  if (!r.integer("trials", trials, 1) || !r.integer("seed", seed, 0) ||
      !r.size("round_threads", out.round_threads) ||
      !r.boolean("obs", out.obs)) {
    return false;
  }
  out.trials = static_cast<std::size_t>(trials);
  if (have_seed) out.seed = static_cast<std::uint64_t>(seed);
  if (const json::Value* st = r.get("stages")) {
    if (!st->is_array()) {
      return r.wrong_kind(*st, "stages", "an array of stage spec strings");
    }
    out.stages.clear();
    for (std::size_t i = 0; i < st->items().size(); ++i) {
      const json::Value& item = st->items()[i];
      if (!item.is_string()) {
        return ctx.fail(item, path + ".stages[" + std::to_string(i) + "]",
                        std::string("stage spec must be a string; got ") +
                            item.kind_name());
      }
      out.stages.push_back(item.as_string());
    }
  }
  if (!r.finish()) return false;
  const ScenarioError err = validate_scenario(out);
  if (!err.ok()) return fail_at_field(ctx, v, path, err);
  return check_consumption(ctx, v, path, out);
}

struct AxisEntry {
  std::string tag;
  std::uint64_t seed_offset = 0;
  const json::Value* set = nullptr;  ///< patch object, may be null
};

struct Axis {
  std::string name;
  std::vector<AxisEntry> entries;
};

bool parse_matrix(Ctx& ctx, const json::Value& m, const std::string& path,
                  std::vector<Axis>& out) {
  if (!m.is_object()) {
    return ctx.fail(m, path, std::string("must be an object of axes; got ") +
                                 m.kind_name());
  }
  for (const auto& [axis_name, axis_val] : m.members()) {
    const std::string axis_path = path + "." + axis_name;
    if (!axis_val.is_array()) {
      return ctx.fail(axis_val, axis_path,
                      std::string("axis must be an array; got ") +
                          axis_val.kind_name());
    }
    if (axis_val.items().empty()) {
      return ctx.fail(axis_val, axis_path,
                      "empty sweep axis (every axis needs at least one "
                      "entry, or drop the axis)");
    }
    Axis axis;
    axis.name = axis_name;
    std::set<std::string> tags;
    for (std::size_t i = 0; i < axis_val.items().size(); ++i) {
      const json::Value& e = axis_val.items()[i];
      const std::string entry_path =
          axis_path + "[" + std::to_string(i) + "]";
      if (!e.is_object()) {
        return ctx.fail(e, entry_path,
                        std::string("axis entry must be an object with "
                                    "tag/seed_offset/set; got ") +
                            e.kind_name());
      }
      ObjectReader r(ctx, e, entry_path, kAxisEntryKeys);
      AxisEntry entry;
      if (!r.str("tag", entry.tag)) return false;
      if (!valid_name(entry.tag)) {
        return ctx.fail(e, entry_path,
                        "axis entry needs a \"tag\" of [A-Za-z0-9_.-]+");
      }
      if (!tags.insert(entry.tag).second) {
        return ctx.fail(e, entry_path,
                        "duplicate tag '" + entry.tag + "' in axis '" +
                            axis_name + "'");
      }
      std::int64_t off = 0;
      if (!r.integer("seed_offset", off, 0)) return false;
      entry.seed_offset = static_cast<std::uint64_t>(off);
      if (const json::Value* set = r.get("set")) {
        if (!set->is_object()) {
          return r.wrong_kind(*set, "set",
                              "an object of dotted-path assignments");
        }
        entry.set = set;
      }
      if (!r.finish()) return false;
      axis.entries.push_back(std::move(entry));
    }
    out.push_back(std::move(axis));
  }
  return true;
}

}  // namespace

ScenarioError validate_scenario(ScenarioSpec& spec) {
  std::string err = topology_error(spec.topology);
  if (!err.empty()) return {"topology", std::move(err)};
  if (err = algorithm_error(spec.algorithm); !err.empty()) {
    return {"algorithm", std::move(err)};
  }
  if (err = validate_scheduler_spec(spec.scheduler); !err.empty()) {
    return {"scheduler", std::move(err)};
  }
  if (err = phys::parse_channel_spec(spec.channel, spec.channel_spec);
      !err.empty()) {
    return {"channel", std::move(err)};
  }
  if (!spec.traffic.empty()) {
    err = traffic::parse_traffic_spec(spec.traffic, spec.traffic_spec);
    if (!err.empty()) return {"traffic", std::move(err)};
  }
  if (!spec.faults.empty()) {
    err = fault::parse_fault_spec(spec.faults, spec.fault_spec);
    if (!err.empty()) return {"faults", std::move(err)};
  }
  if (!spec.stages.empty()) {
    std::vector<sim::SpliceSpec> splices(spec.stages.size());
    for (std::size_t i = 0; i < spec.stages.size(); ++i) {
      if (!sim::parse_splice_spec(spec.stages[i], splices[i], err)) {
        return {"stages[" + std::to_string(i) + "]", std::move(err)};
      }
    }
    if (err = sim::validate_splice_specs(splices); !err.empty()) {
      return {"stages", std::move(err)};
    }
  }
  return {"", cross_field_error(spec)};
}

std::string validate_scheduler_spec(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.empty()) return "empty scheduler spec";
  const std::string& kind = parts[0];
  const auto arity = [&](std::size_t max_args) -> std::string {
    if (parts.size() - 1 > max_args) {
      return "scheduler '" + kind + "' takes at most " +
             std::to_string(max_args) + " argument(s); got '" + spec + "'";
    }
    return "";
  };
  const auto arg = [&](std::size_t i, double dflt, double& out) -> bool {
    out = dflt;
    if (parts.size() <= i) return true;
    return parse_num(parts[i], out);
  };
  double a = 0, b = 0;
  if (kind == "bernoulli") {
    if (auto e = arity(1); !e.empty()) return e;
    if (!arg(1, 0.5, a)) return "malformed bernoulli probability in '" +
                                spec + "'";
    if (!(a >= 0.0 && a <= 1.0)) {
      return "bernoulli probability must be in [0, 1]; got '" + spec + "'";
    }
    return "";
  }
  if (kind == "full-g" || kind == "full-gprime") return arity(0);
  if (kind == "flicker") {
    if (auto e = arity(2); !e.empty()) return e;
    if (!arg(1, 64, a) || !arg(2, 32, b) || a != std::floor(a) ||
        b != std::floor(b)) {
      return "malformed flicker:period:duty in '" + spec + "'";
    }
    if (!(a >= 1.0) || !(b >= 0.0 && b <= a)) {
      return "flicker needs period >= 1 and 0 <= duty <= period; got '" +
             spec + "'";
    }
    return "";
  }
  if (kind == "burst") {
    if (auto e = arity(2); !e.empty()) return e;
    if (!arg(1, 16, a) || !arg(2, 0.5, b) || a != std::floor(a)) {
      return "malformed burst:epoch:p in '" + spec + "'";
    }
    if (!(a >= 1.0) || !(b >= 0.0 && b <= 1.0)) {
      return "burst needs epoch >= 1 and p in [0, 1]; got '" + spec + "'";
    }
    return "";
  }
  if (kind == "anti") {
    if (auto e = arity(2); !e.empty()) return e;
    if (!arg(1, 7, a) || !arg(2, 1.0 / 16.0, b) || a != std::floor(a)) {
      return "malformed anti:log_delta:pivot in '" + spec + "'";
    }
    if (!(a >= 1.0 && a <= 62.0) || !(b > 0.0 && b <= 1.0)) {
      return "anti needs log_delta in [1, 62] and pivot in (0, 1]; got '" +
             spec + "'";
    }
    return "";
  }
  return unknown_spec("scheduler", kind,
                      "bernoulli:p, full-g, full-gprime, "
                      "flicker:period:duty, burst:epoch:p, "
                      "anti[:log_delta[:pivot]]");
}

std::unique_ptr<sim::LinkScheduler> build_scheduler(const std::string& spec) {
  DG_EXPECTS(validate_scheduler_spec(spec).empty());
  const auto parts = split(spec, ':');
  const std::string& kind = parts[0];
  const auto arg = [&](std::size_t i, double dflt) {
    double out = dflt;
    if (parts.size() > i) parse_num(parts[i], out);
    return out;
  };
  if (kind == "full-g") return std::make_unique<sim::ConstantScheduler>(false);
  if (kind == "full-gprime") {
    return std::make_unique<sim::ConstantScheduler>(true);
  }
  if (kind == "flicker") {
    return std::make_unique<sim::FlickerScheduler>(
        static_cast<sim::Round>(arg(1, 64)),
        static_cast<sim::Round>(arg(2, 32)));
  }
  if (kind == "burst") {
    return std::make_unique<sim::BurstScheduler>(
        static_cast<sim::Round>(arg(1, 16)), arg(2, 0.5));
  }
  if (kind == "anti") {
    const int log_delta = static_cast<int>(arg(1, 7));
    return std::make_unique<sim::AntiScheduleAdversary>(
        [log_delta](sim::Round t) {
          return baseline::decay_probability(t, log_delta);
        },
        /*pivot=*/arg(2, 1.0 / 16.0));
  }
  return std::make_unique<sim::BernoulliScheduler>(arg(1, 0.5));
}

graph::DualGraph build_topology(const TopologySpec& t, Rng& rng) {
  if (t.type == "grid") return graph::grid(t.cols, t.rows, t.spacing, t.r);
  if (t.type == "clique") return graph::clique_cluster(t.k);
  if (t.type == "star") return graph::star_ring(t.k, t.r);
  if (t.type == "line") return graph::line(t.k, t.spacing, t.r);
  if (t.type == "bridged") return graph::bridged_clusters(t.k, t.r);
  if (t.type == "contention_star") return graph::contention_star(t.k);
  if (t.type == "disjoint_cliques") {
    return graph::disjoint_cliques(t.cliques, t.k);
  }
  DG_EXPECTS(t.type == "geometric");  // deployment never builds a graph
  graph::GeometricSpec spec;
  spec.n = t.n;
  spec.side = t.side;
  spec.r = t.r;
  spec.p_grey_reliable = t.p_grey_reliable;
  spec.p_grey_unreliable = t.p_grey_unreliable;
  return graph::random_geometric(spec, rng);
}

CampaignParse parse_campaign_text(const std::string& text,
                                  const std::string& filename) {
  CampaignParse out;
  json::Value doc;
  const json::ParseError perr = json::parse(text, doc);
  if (!perr.ok()) {
    std::ostringstream os;
    os << filename << ':' << perr.line << ':' << perr.col << ": "
       << perr.message;
    out.error = os.str();
    return out;
  }

  Ctx ctx(filename);
  const auto finish = [&]() {
    out.error = ctx.error();
    return out;
  };
  if (!doc.is_object()) {
    ctx.fail(doc, "",
             std::string("campaign document must be an object; got ") +
                 doc.kind_name());
    return finish();
  }
  ObjectReader top(ctx, doc, "", kTopLevelKeys);
  if (!top.str("campaign", out.campaign.name)) return finish();
  if (!valid_name(out.campaign.name)) {
    ctx.fail(doc, "campaign",
             "campaign needs a \"campaign\" name of [A-Za-z0-9_.-]+");
    return finish();
  }
  const json::Value* scenarios = top.get("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() ||
      scenarios->items().empty()) {
    ctx.fail(scenarios != nullptr ? *scenarios : doc, "scenarios",
             "campaign needs a non-empty \"scenarios\" array");
    return finish();
  }
  if (!top.finish()) return finish();

  std::set<std::string> scenario_names;
  std::set<std::string> variant_names;
  for (std::size_t i = 0; i < scenarios->items().size(); ++i) {
    const json::Value& sv = scenarios->items()[i];
    const std::string path = "scenarios[" + std::to_string(i) + "]";
    if (!sv.is_object()) {
      ctx.fail(sv, path,
               std::string("scenario must be an object; got ") +
                   sv.kind_name());
      return finish();
    }
    const json::Value* name_val = sv.find("name");
    std::string base_name;
    if (name_val == nullptr || !name_val->is_string() ||
        !valid_name(base_name = name_val->as_string())) {
      ctx.fail(name_val != nullptr ? *name_val : sv, path,
               "scenario needs a \"name\" of [A-Za-z0-9_.-]+");
      return finish();
    }
    if (!scenario_names.insert(base_name).second) {
      ctx.fail(*name_val, path,
               "duplicate scenario name '" + base_name + "'");
      return finish();
    }

    std::vector<Axis> axes;
    if (const json::Value* m = sv.find("matrix")) {
      if (!parse_matrix(ctx, *m, path + ".matrix", axes)) return finish();
    }

    // Odometer over the axis cross-product (declaration order, last axis
    // fastest -- the loop-nest order of the hand-written benches).
    std::vector<std::size_t> idx(axes.size(), 0);
    while (true) {
      json::Value concrete = sv;  // deep copy
      concrete.remove("matrix");
      std::string variant = base_name;
      std::string variant_path = path;
      std::uint64_t offset = 0;
      bool patch_ok = true;
      std::string bad_path;
      for (std::size_t a = 0; a < axes.size() && patch_ok; ++a) {
        const AxisEntry& e = axes[a].entries[idx[a]];
        variant += "/" + e.tag;
        variant_path += "{" + axes[a].name + "=" + e.tag + "}";
        offset += e.seed_offset;
        if (e.set != nullptr) {
          for (const auto& [p, v] : e.set->members()) {
            if (!concrete.set_path(p, v)) {
              patch_ok = false;
              bad_path = p;
              break;
            }
          }
        }
      }
      if (!patch_ok) {
        ctx.fail(sv, variant_path,
                 "matrix set path '" + bad_path +
                     "' steps through a non-object value");
        return finish();
      }
      ScenarioSpec spec;
      if (!parse_scenario(ctx, concrete, variant_path, spec)) {
        return finish();
      }
      spec.name = variant;
      spec.seed += offset;
      if (!variant_names.insert(spec.name).second) {
        ctx.fail(sv, path, "duplicate variant name '" + spec.name + "'");
        return finish();
      }
      out.campaign.variants.push_back(std::move(spec));

      // Advance the odometer; wrapping past the first axis ends the sweep.
      bool done = true;
      for (std::size_t a = axes.size(); a > 0;) {
        --a;
        if (++idx[a] < axes[a].entries.size()) {
          done = false;
          break;
        }
        idx[a] = 0;
      }
      if (done) break;
    }
  }
  return finish();
}

CampaignParse parse_campaign_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    CampaignParse out;
    out.error = path + ": cannot open file";
    return out;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_campaign_text(buffer.str(), path);
}

}  // namespace dg::scn
