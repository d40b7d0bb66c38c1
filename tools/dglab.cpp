// dglab -- command-line laboratory for the dual-graph local broadcast stack.
//
//   dglab net   [topology flags]                  describe a network
//   dglab seed  [topology flags] [--eps=0.1]      run seed agreement + spec
//   dglab run   [topology flags] [run flags]      run LBAlg + spec report
//   dglab sweep [--deltas=4,8,16,32] [run flags]  progress/delivery sweep
//
// Topology flags:
//   --type=geometric|grid|clique|star|line   (default geometric)
//   --n=64 --side=4.0 --r=1.5                (geometric)
//   --cols=6 --rows=4 --spacing=1.0          (grid)
//   --k=16                                   (clique size / star leaves / line length)
// Run flags:
//   --eps=0.1 --seed=1 --phases=30 --senders=2 --ack-scale=0.02
//   --sched=bernoulli:0.5 | full-g | full-gprime | flicker:64:32
//           | burst:16:0.5 | anti
//   --channel=dual | sinr:alpha,beta,noise   (reception physics; sinr needs
//           an embedded topology and makes --sched irrelevant)
//   --traffic=saturate[:count] | poisson:rate | burst:period:size[:count]
//           | hotspot:rate:bias[:hot]   (environment traffic model; replaces
//           the --senders keep-busy default and prints queue/latency stats)
//   --traffic-cap=N  (per-node admission queue bound; 0 = unbounded)
//   --faults=crash:round:vertex[:repair] | poisson:rate[:mean_repair]
//           | region:round:center:radius[:repair] | adversary:k[:period[:repair]]
//           (crash/recover schedule; prints the graceful-degradation
//           ledger -- fault-window progress violations, re-stabilization
//           time, throughput dip -- next to the clean-window spec report)
//   --round-threads=N  (sharded-round worker cap, N >= 1; omit to use the
//           DG_ROUND_THREADS default.  Results are byte-identical at every
//           value -- the flag moves wall clock, never outcomes)
//   --splice=SPEC  (splice an extra stage into the engine's round
//           pipeline: noop | dedup[:window[:slab]] | tap:slab[:v1,...];
//           see sim/splice.h for the grammar.  Applies to run, sweep and
//           seed; a dedup stage suppresses recently-heard packets, a tap
//           stage counts slab population per round into the telemetry)
//   --reuse=1 (phases per seed)  --ablate (private coins)
// Telemetry flags (run only):
//   --trace=N  print the last N wire events (transmissions, receptions,
//           collisions) after the report, 1 <= N <= 65536; with
//           --trace-out the same N-event tail becomes the trace's "wire"
//           track (16 events when only --trace-out is given).  Without
//           --trace or --trace-out no trace observer is registered.
//   --metrics-out=FILE  write the obs::Registry dump (dg-metrics-v1 JSON;
//           the "logical" domain is byte-identical at every
//           --round-threads value, "timing" is wall clock)
//   --trace-out=FILE    write a Chrome trace-event JSON (open in Perfetto
//           or chrome://tracing): per-round engine phase slices, message
//           lifecycle spans (enqueue->admit->first-recv->ack/abort),
//           crash/recover instants, and the wire tail (see --trace)
//   --trace-rounds=LO:HI  clamp trace events to a round window
//   --trace-vertices=v1,v2,...  keep only these vertices' (each < n)
//           message spans, fault instants and wire events in the JSON
//           (engine phase slices always pass; the --trace text does not
//           filter).  Both need --trace-out.
//
// --topology=family:args is a compact alias for the topology flags:
//   grid:32x32 | geometric:256 | clique:16 | star:16 | line:16
//
// Unknown --flags are rejected (a typo like --schd= must not silently run
// the default configuration), and so are out-of-range numbers: --n >= 1,
// 0 < --eps <= 0.5, --r >= 1 and --phases >= 0, as in the scenario schema.
// When the first argument is a --flag the `run` subcommand is implied:
// `dglab --topology=grid:8x8 --phases=10`.
//
// Example:
//   dglab run --type=geometric --n=48 --sched=bernoulli:0.5 --phases=40
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "phys/channel_spec.h"
#include "phys/sinr.h"
#include "scn/scenario.h"
#include "seed/seed_alg.h"
#include "seed/spec.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "traffic/spec.h"
#include "util/specparse.h"
#include "util/table.h"

namespace {

using namespace dg;

// ---- tiny flag parser: --key=value ----

/// Every flag any subcommand understands; parsing rejects the rest.
constexpr const char* kValidFlags[] = {
    "type", "n", "side", "r", "cols", "rows", "spacing", "k",   // topology
    "topology",                                                 // alias
    "eps", "seed", "phases", "senders", "ack-scale",            // run
    "sched", "channel", "reuse", "ablate", "deltas",            // run/sweep
    "traffic", "traffic-cap", "round-threads", "faults",        // environment
    "splice",                                                   // pipeline
    "metrics-out", "trace", "trace-out", "trace-rounds",        // obs
    "trace-vertices",
};

class Flags {
 public:
// GCC 12's -Wrestrict misfires on the std::string assignments below once
// they inline into main (upstream PR105329 family); the code is plain
// map-of-string bookkeeping.  Clang has no -Wrestrict group, so the
// pragma is GCC-only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        unknown_.push_back(arg);
        continue;
      }
      const auto eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (std::find_if(std::begin(kValidFlags), std::end(kValidFlags),
                       [&](const char* f) { return key == f; }) ==
          std::end(kValidFlags)) {
        unknown_.push_back(arg);
        continue;
      }
      if (eq == std::string::npos) {
        values_[key] = "1";
      } else {
        values_[key] = arg.substr(eq + 1);
      }
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// Arguments that matched no known flag (typos like --schd=).
  const std::vector<std::string>& unknown() const noexcept { return unknown_; }

  std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  double num(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  std::uint64_t uint(const std::string& key, std::uint64_t dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> unknown_;
};

using dg::spec::split;

/// Parses --round-threads through the shared scn validator (the same
/// grammar dgcampaign enforces), exiting with a message on 0, negatives,
/// or trailing junk.  Returns 0 when the flag is absent (engine default,
/// i.e. DG_ROUND_THREADS or serial).
std::size_t round_threads_flag(const Flags& flags) {
  if (!flags.flag("round-threads")) return 0;
  std::size_t parsed = 0;
  const std::string err =
      scn::validate_round_threads_value(flags.str("round-threads", ""), parsed);
  if (!err.empty()) {
    std::cerr << "dglab: --" << err << "\n";
    std::exit(2);
  }
  return parsed;
}

/// Builds the engine config shared by the run/sweep/seed subcommands:
/// the --round-threads cap plus the --splice stage, both validated here
/// so a typo like --splice=dedupe exits 2 with the valid grammar instead
/// of a contract abort inside the engine.
sim::EngineConfig engine_config_flags(const Flags& flags) {
  sim::EngineConfig config;
  const std::size_t round_threads = round_threads_flag(flags);
  if (round_threads != 0) config.with_round_threads(round_threads);
  if (flags.flag("splice")) {
    sim::SpliceSpec spec;
    std::string err;
    if (!sim::parse_splice_spec(flags.str("splice", ""), spec, err)) {
      std::cerr << "dglab: --splice: " << err << "\n";
      std::exit(2);
    }
    config.with_splice(std::move(spec));
  }
  return config;
}

// ---- builders ----

/// Strict non-negative integer parse for compound specs (strtoull would
/// silently wrap "-1" and accept trailing junk).
bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

/// Strict finite-number parse for numeric flags (strtod alone would read
/// "abc" as 0 and ignore trailing junk).
bool parse_number(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(out);
}

/// Range-checks the numeric flags the library contract-checks, against the
/// bounds the scenario schema (scn/scenario.cpp) enforces for the same
/// keys: n >= 1, eps1 in (0, 0.5], r >= 1, and a non-negative phase count.
/// A bad value exits 2 naming the flag instead of aborting inside a
/// generator, LbParams or the run loop.
void check_numeric_flags(const Flags& flags) {
  const auto reject = [&](const char* flag, const std::string& rule) {
    std::cerr << "dglab: --" << flag << ": " << rule << "; got '"
              << flags.str(flag, "") << "'\n";
    std::exit(2);
  };
  std::uint64_t count = 0;
  double x = 0.0;
  if (flags.flag("n") &&
      (!parse_uint(flags.str("n", ""), count) || count == 0)) {
    reject("n", "n must be an integer >= 1");
  }
  if (flags.flag("eps") &&
      !(parse_number(flags.str("eps", ""), x) && x > 0.0 && x <= 0.5)) {
    reject("eps", "eps1 must be in (0, 0.5]");
  }
  if (flags.flag("r") && !(parse_number(flags.str("r", ""), x) && x >= 1.0)) {
    reject("r", "r must be >= 1");
  }
  if (flags.flag("phases") && !parse_uint(flags.str("phases", ""), count)) {
    reject("phases", "phases must be an integer >= 0");
  }
}

/// Expands the --topology=family:args alias (grid:32x32, geometric:256,
/// clique:16, star:16, line:16) directly into a network.  Geometry knobs
/// (--side, --spacing, --r) still apply; the alias only fixes the family
/// and its size.
graph::DualGraph build_network_alias(const Flags& flags, Rng& rng) {
  const std::string spec = flags.str("topology", "");
  const auto colon = spec.find(':');
  const std::string fam = spec.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const double r = flags.num("r", 1.5);
  const auto bad = [&]() -> graph::DualGraph {
    std::cerr << "dglab: --topology: malformed spec '" << spec
              << "' (valid: grid:COLSxROWS, geometric:N, clique:K, "
                 "star:K, line:K)\n";
    std::exit(2);
  };
  if (fam == "grid") {
    const auto x = args.find('x');
    std::uint64_t cols = 0, rows = 0;
    if (x == std::string::npos || !parse_uint(args.substr(0, x), cols) ||
        !parse_uint(args.substr(x + 1), rows) || cols == 0 || rows == 0) {
      return bad();
    }
    return graph::grid(static_cast<std::size_t>(cols),
                       static_cast<std::size_t>(rows),
                       flags.num("spacing", 1.0), r);
  }
  std::uint64_t k = 0;
  if (!parse_uint(args, k) || k == 0) return bad();
  if (fam == "geometric") {
    graph::GeometricSpec gspec;
    gspec.n = static_cast<std::size_t>(k);
    gspec.side = flags.num("side", 4.0);
    gspec.r = r;
    return graph::random_geometric(gspec, rng);
  }
  if (fam == "clique") return graph::clique_cluster(k);
  if (fam == "star") return graph::star_ring(k, r);
  if (fam == "line") return graph::line(k, flags.num("spacing", 1.0), r);
  return bad();
}

graph::DualGraph build_network(const Flags& flags, Rng& rng) {
  if (flags.flag("topology")) {
    if (flags.flag("type")) {
      std::cerr << "dglab: --topology and --type are mutually exclusive "
                   "(the alias already names the family)\n";
      std::exit(2);
    }
    return build_network_alias(flags, rng);
  }
  const std::string type = flags.str("type", "geometric");
  const double r = flags.num("r", 1.5);
  const auto k = static_cast<std::size_t>(flags.uint("k", 16));
  if (type == "grid") {
    return graph::grid(static_cast<std::size_t>(flags.uint("cols", 6)),
                       static_cast<std::size_t>(flags.uint("rows", 4)),
                       flags.num("spacing", 1.0), r);
  }
  if (type == "clique") return graph::clique_cluster(k);
  if (type == "star") return graph::star_ring(k, r);
  if (type == "line") return graph::line(k, flags.num("spacing", 1.0), r);
  if (type != "geometric") {
    // A typo like --type=cliqe must not silently run the default family.
    std::cerr << "dglab: unknown --type '" << type
              << "' (valid: geometric, grid, clique, star, line)\n";
    std::exit(2);
  }
  graph::GeometricSpec spec;
  spec.n = static_cast<std::size_t>(flags.uint("n", 64));
  spec.side = flags.num("side", 4.0);
  spec.r = r;
  return graph::random_geometric(spec, rng);
}

/// --sched goes through the shared scn grammar, so a typo like
/// --sched=bernouli:0.5 is rejected with the list of valid specs instead
/// of silently running the Bernoulli default.
std::unique_ptr<sim::LinkScheduler> build_scheduler(const Flags& flags) {
  const std::string spec = flags.str("sched", "bernoulli:0.5");
  const std::string error = scn::validate_scheduler_spec(spec);
  if (!error.empty()) {
    std::cerr << "dglab: --sched: " << error << "\n";
    std::exit(2);
  }
  return scn::build_scheduler(spec);
}

/// Parses --channel=dual | sinr:alpha,beta,noise via the shared
/// phys::parse_channel_spec grammar.  Returns nullptr for the default
/// dual-graph reception (the scheduler decides the round topology); for
/// sinr, the graph must carry a plane embedding.  Exits with a message on
/// a malformed spec or a missing embedding (bad CLI input gets exit 2
/// instead of the SinrChannel constructor's contract abort).
std::unique_ptr<phys::ChannelModel> build_channel(const Flags& flags,
                                                  const graph::DualGraph& g) {
  phys::ChannelSpec spec;
  const std::string error =
      phys::parse_channel_spec(flags.str("channel", "dual"), spec);
  if (!error.empty()) {
    std::cerr << "dglab: --channel: " << error << "\n";
    std::exit(2);
  }
  if (!spec.is_sinr) return nullptr;
  if (!g.embedding().has_value()) {
    std::cerr << "dglab: --channel=sinr needs an embedded topology "
                 "(geometric, grid, star, or line)\n";
    std::exit(2);
  }
  return std::make_unique<phys::SinrChannel>(spec.sinr);
}

/// Wire tail length when --trace-out is given without --trace.
constexpr std::size_t kDefaultWireTail = 16;

/// What the trace flags ask for: the wire tail length (0 = no trace sink)
/// and the JSON filters.
struct TraceFlags {
  std::size_t wire_tail = 0;
  obs::TraceSink::Filter filter;
};

/// Parses every trace flag before any work is done, exiting 2 with a
/// message on a bad value.  cmd_run checks the vertex ids against n
/// before it prints anything.
TraceFlags trace_flags(const Flags& flags) {
  const auto reject = [](const std::string& message) {
    std::cerr << "dglab: " << message << "\n";
    std::exit(2);
  };
  const bool out = flags.flag("trace-out");
  if (!out && (flags.flag("trace-rounds") || flags.flag("trace-vertices"))) {
    reject("--trace-rounds/--trace-vertices need --trace-out=");
  }
  TraceFlags t;
  if (flags.flag("trace")) {
    const std::string s = flags.str("trace", "");
    std::uint64_t n = 0;
    if (!parse_uint(s, n) || n == 0 || n > obs::TraceSink::kMaxWireCapacity) {
      reject("--trace: the wire tail length must be an integer in [1, " +
             std::to_string(obs::TraceSink::kMaxWireCapacity) + "]; got '" +
             s + "'");
    }
    t.wire_tail = static_cast<std::size_t>(n);
  } else if (out) {
    t.wire_tail = kDefaultWireTail;
  }
  if (flags.flag("trace-rounds")) {
    const std::string s = flags.str("trace-rounds", "");
    const auto colon = s.find(':');
    std::uint64_t lo = 0, hi = 0;
    if (colon == std::string::npos || !parse_uint(s.substr(0, colon), lo) ||
        !parse_uint(s.substr(colon + 1), hi) || lo > hi ||
        hi > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
      reject("--trace-rounds needs LO:HI with LO <= HI < 2^63; got '" + s +
             "'");
    }
    t.filter.round_lo = static_cast<std::int64_t>(lo);
    t.filter.round_hi = static_cast<std::int64_t>(hi);
  }
  if (flags.flag("trace-vertices")) {
    for (const std::string& v : split(flags.str("trace-vertices", ""), ',')) {
      std::uint64_t parsed = 0;
      if (!parse_uint(v, parsed) ||
          parsed > std::numeric_limits<graph::Vertex>::max()) {
        reject("--trace-vertices needs a comma-separated vertex list; got '" +
               v + "'");
      }
      t.filter.vertices.push_back(static_cast<graph::Vertex>(parsed));
    }
  }
  return t;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os) return false;
  os << content;
  return static_cast<bool>(os);
}

/// Builds the LB simulation with --channel deciding reception: an explicit
/// channel model when one is requested, the dual-graph scheduler otherwise.
std::unique_ptr<lb::LbSimulation> make_simulation(const Flags& flags,
                                                  const graph::DualGraph& g,
                                                  const lb::LbParams& params,
                                                  std::uint64_t master) {
  auto channel = build_channel(flags, g);
  std::unique_ptr<lb::LbSimulation> sim;
  if (channel != nullptr) {
    sim = std::make_unique<lb::LbSimulation>(g, std::move(channel), params,
                                             master);
  } else {
    sim = std::make_unique<lb::LbSimulation>(g, build_scheduler(flags), params,
                                             master);
  }
  sim->configure(engine_config_flags(flags));
  return sim;
}

void describe(const graph::DualGraph& g, const Flags& flags) {
  std::cout << "network: n=" << g.size() << " Delta=" << g.delta()
            << " Delta'=" << g.delta_prime()
            << " unreliable-edges=" << g.unreliable_edge_count() << "\n";
  if (g.embedding().has_value()) {
    std::cout << "embedding: r-geographic(r=" << g.r() << ") -> "
              << (graph::is_r_geographic(g, *g.embedding(), g.r())
                      ? "valid"
                      : "INVALID")
              << "\n";
  }
  (void)flags;
}

// ---- subcommands ----

int cmd_net(const Flags& flags) {
  Rng rng(flags.uint("seed", 1));
  const auto g = build_network(flags, rng);
  describe(g, flags);
  // Degree histogram.
  std::map<std::size_t, std::size_t> hist;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    ++hist[g.g_neighbors(v).size()];
  }
  Table table({"G-degree", "vertices"});
  for (const auto& [deg, count] : hist) {
    table.row().cell(static_cast<std::uint64_t>(deg)).cell(
        static_cast<std::uint64_t>(count));
  }
  table.print(std::cout);
  return 0;
}

int cmd_seed(const Flags& flags) {
  const std::uint64_t master = flags.uint("seed", 1);
  Rng rng(master);
  const auto g = build_network(flags, rng);
  describe(g, flags);
  const double eps = std::min(0.25, flags.num("eps", 0.1));
  const auto params = seed::SeedAlgParams::make(eps, g.delta());
  std::cout << "SeedAlg(eps=" << eps << "): " << params.num_phases
            << " phases x " << params.phase_length << " rounds = "
            << params.total_rounds() << " rounds\n";

  const auto ids = sim::assign_ids(g.size(), derive_seed(master, 1));
  auto channel = build_channel(flags, g);
  std::vector<std::unique_ptr<sim::Process>> procs;
  Rng init(derive_seed(master, 2));
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    procs.push_back(std::make_unique<seed::SeedProcess>(params, ids[v], init));
  }
  std::unique_ptr<sim::LinkScheduler> sched;
  std::unique_ptr<sim::Engine> engine;
  if (channel != nullptr) {
    engine = std::make_unique<sim::Engine>(g, *channel, std::move(procs),
                                           derive_seed(master, 3));
  } else {
    sched = build_scheduler(flags);
    engine = std::make_unique<sim::Engine>(g, *sched, std::move(procs),
                                           derive_seed(master, 3));
  }
  std::cout << "channel: " << engine->channel().name() << "\n";
  engine->configure(engine_config_flags(flags));
  engine->run_rounds(params.total_rounds());

  seed::DecisionVector decisions(g.size());
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    decisions[v] =
        dynamic_cast<const seed::SeedProcess&>(engine->process(v)).decision();
  }
  const auto res = seed::check_seed_spec(g, ids, decisions);
  std::cout << "spec: well-formed=" << (res.well_formed ? "OK" : "FAIL")
            << " consistent=" << (res.consistent ? "OK" : "FAIL")
            << " owners-local=" << (res.owners_local ? "OK" : "FAIL") << "\n"
            << "distinct owners: " << res.distinct_owners
            << "; max owners per closed G'-neighborhood: "
            << res.max_neighborhood_owners << "\n";
  return res.well_formed && res.consistent ? 0 : 1;
}

int cmd_run(const Flags& flags, const TraceFlags& trace) {
  const std::uint64_t master = flags.uint("seed", 1);
  Rng rng(master);
  const auto g = build_network(flags, rng);
  for (const graph::Vertex v : trace.filter.vertices) {
    if (v >= g.size()) {
      std::cerr << "dglab: --trace-vertices: vertex " << v
                << " is out of range for network size " << g.size() << "\n";
      std::exit(2);
    }
  }
  describe(g, flags);

  lb::LbScales scales;
  scales.ack_scale = flags.num("ack-scale", 0.02);
  auto params = lb::LbParams::calibrated(flags.num("eps", 0.1),
                                         std::max(1.0, g.r()), g.delta(),
                                         g.delta_prime(), scales);
  params.phases_per_seed = static_cast<int>(flags.uint("reuse", 1));
  params.use_shared_seeds = !flags.flag("ablate");

  std::cout << "LBAlg: T_s=" << params.t_s << " T_prog=" << params.t_prog
            << " phase=" << params.phase_length()
            << " group=" << params.group_length()
            << " T_ack=" << params.t_ack_phases << " phases"
            << (params.use_shared_seeds ? "" : "  [ABLATED]") << "\n";

  auto sim_ptr = make_simulation(flags, g, params, master);
  lb::LbSimulation& sim = *sim_ptr;
  std::cout << "channel: " << sim.engine().channel().name() << "\n";

  const bool want_metrics = flags.flag("metrics-out");
  const bool want_trace = flags.flag("trace-out");
  obs::Registry registry;  // backs --trace-out's profiler even without
                           // --metrics-out; only written when asked for
  std::unique_ptr<obs::TraceSink> sink;
  if (trace.wire_tail != 0) {
    sink = std::make_unique<obs::TraceSink>(trace.filter, trace.wire_tail);
    sim.add_observer(sink.get());
  }
  if (want_metrics || want_trace) {
    sim.configure(sim::EngineConfig{}.with_telemetry(
        &registry, want_trace ? sink.get() : nullptr));
  }

  const std::string traffic_str = flags.str("traffic", "");
  // Flag combinations that would otherwise be silently ignored are
  // rejected (the same policy as unknown flags).
  if (traffic_str.empty() && flags.flag("traffic-cap")) {
    std::cerr << "dglab: --traffic-cap needs --traffic= (the keep-busy "
                 "default has no admission queue)\n";
    std::exit(2);
  }
  if (!traffic_str.empty() && flags.flag("senders")) {
    std::cerr << "dglab: --senders and --traffic are mutually exclusive "
                 "(use --traffic=saturate:count for spread senders)\n";
    std::exit(2);
  }
  if (!traffic_str.empty()) {
    traffic::TrafficSpec tspec;
    const std::string error = traffic::parse_traffic_spec(traffic_str, tspec);
    if (!error.empty()) {
      std::cerr << "dglab: --traffic: " << error << "\n";
      std::exit(2);
    }
    const bool counted = tspec.kind == traffic::TrafficSpec::Kind::kSaturate ||
                         tspec.kind == traffic::TrafficSpec::Kind::kBurst;
    if ((counted && tspec.count > g.size()) ||
        (tspec.kind == traffic::TrafficSpec::Kind::kHotspot &&
         tspec.hot >= g.size())) {
      std::cerr << "dglab: --traffic: vertex bound exceeds network size "
                << g.size() << " in '" << traffic_str << "'\n";
      std::exit(2);
    }
    // Digits only: strtoull would silently wrap "-1" to ULLONG_MAX (an
    // unbounded queue) instead of rejecting it.
    const std::string cap_str = flags.str("traffic-cap", "0");
    if (cap_str.empty() ||
        cap_str.find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << "dglab: --traffic-cap needs a non-negative integer; "
                   "got '" << cap_str << "'\n";
      std::exit(2);
    }
    sim.traffic().set_queue_capacity(
        static_cast<std::size_t>(flags.uint("traffic-cap", 0)));
    sim.add_traffic(
        traffic::build_source(tspec, g.size(), derive_seed(master, 0x7fcULL)));
    std::cout << "traffic: " << traffic_str << "\n";
  } else {
    const auto senders =
        std::min<std::uint64_t>(flags.uint("senders", 2), g.size());
    if (senders >= 1) {
      sim.keep_busy(traffic::spread_vertices(
          static_cast<std::size_t>(senders), g.size()));
    }
  }
  const std::string faults_str = flags.str("faults", "");
  std::unique_ptr<fault::FaultPlan> plan;  // must outlive the run
  if (!faults_str.empty()) {
    fault::FaultSpec fspec;
    const std::string error = fault::parse_fault_spec(faults_str, fspec);
    if (!error.empty()) {
      std::cerr << "dglab: --faults: " << error << "\n";
      std::exit(2);
    }
    const bool names_vertex = fspec.kind == fault::FaultSpec::Kind::kCrash ||
                              fspec.kind == fault::FaultSpec::Kind::kRegion;
    if ((names_vertex && fspec.vertex >= g.size()) ||
        (fspec.kind == fault::FaultSpec::Kind::kAdversary &&
         static_cast<std::size_t>(fspec.k) > g.size())) {
      std::cerr << "dglab: --faults: vertex bound exceeds network size "
                << g.size() << " in '" << faults_str << "'\n";
      std::exit(2);
    }
    plan = fault::build_fault_plan(fspec);
    sim.configure(sim::EngineConfig{}.with_fault_plan(plan.get()));
    std::cout << "faults: " << faults_str << " (" << plan->name()
              << " plan)\n";
  }
  sim.run_phases(static_cast<std::int64_t>(flags.uint("phases", 30)));
  if (want_metrics || want_trace) sim.export_telemetry();

  const auto& r = sim.report();
  std::cout << "\nafter " << sim.round() << " rounds:\n"
            << "  timely-ack=" << (r.timely_ack_ok ? "OK" : "VIOLATED")
            << " validity=" << (r.validity_ok ? "OK" : "VIOLATED")
            << " violations=" << r.violations << "\n"
            << "  bcast/ack/recv: " << r.bcast_count << "/" << r.ack_count
            << "/" << r.recv_count << " (raw receptions "
            << r.raw_receptions << ")\n"
            << "  reliability: " << r.reliability.successes() << "/"
            << r.reliability.trials() << "   progress: "
            << r.progress.successes() << "/" << r.progress.trials() << "\n";
  if (!traffic_str.empty()) {
    const traffic::TrafficStats& ts = sim.traffic().stats();
    // --phases=0 runs no rounds; report 0 rates instead of dividing by 0.
    const double rounds = std::max(1.0, static_cast<double>(sim.round()));
    std::cout << "  traffic: offered/admitted/acked/dropped: " << ts.offered
              << "/" << ts.admitted << "/" << ts.acked << "/" << ts.dropped
              << "  (offered " << ts.offered / rounds << "/round, delivered "
              << ts.acked / rounds << "/round)\n"
              << "  latency (rounds): wait " << ts.mean_wait() << "  ack "
              << ts.mean_ack_latency() << "  first-recv "
              << ts.mean_recv_latency() << "\n"
              << "  queued: network backlog mean " << ts.mean_backlog()
              << "  per-node depth max " << ts.depth_max << "\n";
    if (ts.crash_requeues != 0 || ts.readmitted != 0) {
      std::cout << "  crash re-queues: " << ts.crash_requeues
                << "  re-admitted after recovery: " << ts.readmitted << "\n";
    }
  }
  if (!faults_str.empty()) {
    // The graceful-degradation ledger: spec tallies above cover only
    // fault-free windows; everything a fault touched degrades into here.
    const lb::DegradationLedger& led = sim.ledger();
    std::cout << "  degradation: crashes/recoveries " << led.crashes << "/"
              << led.recoveries << "  fault rounds " << led.fault_rounds
              << "/" << led.rounds_observed << "\n"
              << "  fault-window progress: "
              << led.faulty_progress.successes() << "/"
              << led.faulty_progress.trials() << " (violation rate "
              << led.progress_violation_rate() << ")\n"
              << "  fault-window reliability: "
              << led.faulty_reliability.successes() << "/"
              << led.faulty_reliability.trials() << "\n"
              << "  re-stabilization: mean "
              << led.mean_restabilization_rounds() << " rounds over "
              << led.restab_count << " recoveries"
              << "  fault-window ack rate "
              << led.fault_window_ack_rate() << "/round\n";
  }
  if (flags.flag("trace")) {
    std::cout << "\ntrace tail:\n";
    sink->write_text(std::cout);
  }
  if (want_metrics) {
    const std::string path = flags.str("metrics-out", "");
    if (!write_file(path, registry.json())) {
      std::cerr << "dglab: --metrics-out: cannot write '" << path << "'\n";
      return 2;
    }
    std::cout << "metrics: " << registry.size() << " series -> " << path
              << "\n";
  }
  if (want_trace) {
    const std::string path = flags.str("trace-out", "");
    if (!write_file(path, sink->json())) {
      std::cerr << "dglab: --trace-out: cannot write '" << path << "'\n";
      return 2;
    }
    std::cout << "trace: " << sink->event_count() << " events -> " << path
              << "\n";
  }
  return r.timely_ack_ok && r.validity_ok ? 0 : 1;
}

int cmd_sweep(const Flags& flags) {
  Table table({"Delta", "phase", "progress mean (rounds)",
               "reliability", "progress freq"});
  for (const std::string& ds : split(flags.str("deltas", "4,8,16,32"), ',')) {
    const auto clique = static_cast<std::size_t>(
        std::strtoull(ds.c_str(), nullptr, 10));
    const auto g = graph::clique_cluster(clique);
    lb::LbScales scales;
    scales.ack_scale = flags.num("ack-scale", 0.02);
    const auto params = lb::LbParams::calibrated(
        flags.num("eps", 0.1), 1.5, g.delta(), g.delta_prime(), scales);
    auto sim_ptr = make_simulation(flags, g, params, flags.uint("seed", 1));
    lb::LbSimulation& sim = *sim_ptr;
    sim.keep_busy({0});
    sim.run_phases(static_cast<std::int64_t>(flags.uint("phases", 20)));
    const auto& r = sim.report();
    // Mean first-reception latency across completed broadcasts.
    double total = 0;
    std::size_t count = 0;
    for (const auto& rec : sim.checker().broadcasts()) {
      for (const auto& [v, round] : rec.recv_rounds) {
        total += static_cast<double>(round - rec.input_round);
        ++count;
      }
    }
    table.row()
        .cell(static_cast<std::uint64_t>(clique))
        .cell(params.phase_length())
        .cell(count ? total / static_cast<double>(count) : 0.0, 1)
        .cell(std::to_string(r.reliability.successes()) + "/" +
              std::to_string(r.reliability.trials()))
        .cell(r.progress.trials() ? r.progress.frequency() : 1.0, 3);
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout << "usage: dglab <net|seed|run|sweep> [--flags]\n"
               "       dglab --flags...   (implies 'run')\n"
               "  --topology=grid:32x32 | geometric:256 | clique:16 | "
               "star:16 | line:16\n"
               "  --metrics-out=FILE --trace-out=FILE  telemetry dumps "
               "(trace-event JSON loads in Perfetto)\n"
               "  --trace=N  print the last N wire events (tx/rx/collision)\n"
               "  --trace-rounds=LO:HI --trace-vertices=v1,v2  trace filters\n"
               "  --channel=dual | sinr:alpha,beta,noise  reception physics\n"
               "  --splice=noop | dedup[:window[:slab]] | tap:slab[:v1,...]"
               "  extra pipeline stage\n"
               "  --traffic=saturate[:count] | poisson:rate | "
               "burst:period:size[:count] | hotspot:rate:bias[:hot]\n"
               "  --faults=crash:round:vertex[:repair] | "
               "poisson:rate[:mean_repair] | "
               "region:round:center:radius[:repair] | "
               "adversary:k[:period[:repair]]\n"
               "see the header of tools/dglab.cpp for the full flag list\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  // A leading --flag implies `run`, so the flag-only invocation
  // `dglab --topology=grid:32x32 --metrics-out=m.json` works as-is.
  std::string cmd = argv[1];
  int first = 2;
  if (cmd.rfind("--", 0) == 0) {
    cmd = "run";
    first = 1;
  }
  const Flags flags(argc, argv, first);
  if (!flags.unknown().empty()) {
    for (const std::string& arg : flags.unknown()) {
      std::cerr << "dglab: unknown flag '" << arg << "'\n";
    }
    std::cerr << "valid flags:";
    for (const char* f : kValidFlags) std::cerr << " --" << f;
    std::cerr << "\n";
    return 2;
  }
  check_numeric_flags(flags);
  // Traffic flags only apply to `run`; the other subcommands drive their
  // own environments, and silently ignoring the flags there would break
  // the no-silent-ignore policy the run command enforces.
  if (cmd != "run" &&
      (flags.flag("traffic") || flags.flag("traffic-cap") ||
       flags.flag("faults"))) {
    std::cerr << "dglab: --traffic/--traffic-cap/--faults only apply to "
                 "the 'run' subcommand\n";
    return 2;
  }
  if (cmd == "net" && flags.flag("splice")) {
    std::cerr << "dglab: --splice only applies to the run/sweep/seed "
                 "subcommands (net builds no engine)\n";
    return 2;
  }
  if (cmd != "run" &&
      (flags.flag("metrics-out") || flags.flag("trace") ||
       flags.flag("trace-out") || flags.flag("trace-rounds") ||
       flags.flag("trace-vertices"))) {
    std::cerr << "dglab: the telemetry flags (--metrics-out/--trace/"
                 "--trace-out/--trace-rounds/--trace-vertices) only apply to "
                 "the 'run' subcommand\n";
    return 2;
  }
  const TraceFlags trace = trace_flags(flags);
  if (cmd == "net") return cmd_net(flags);
  if (cmd == "seed") return cmd_seed(flags);
  if (cmd == "run") return cmd_run(flags, trace);
  if (cmd == "sweep") return cmd_sweep(flags);
  usage();
  return 2;
}
