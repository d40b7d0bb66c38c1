// dglab -- command-line laboratory for the dual-graph local broadcast stack.
//
//   dglab net   [topology flags]                  describe a network
//   dglab seed  [topology flags] [--eps=0.1]      run seed agreement + spec
//   dglab run   [topology flags] [run flags]      run LBAlg + spec report
//   dglab sweep [--deltas=4,8,16,32] [run flags]  progress/delivery sweep
//
// The topology, run and environment flags are sugar for the keys of one
// scn::ScenarioSpec (scn/scenario.h); dglab fills the spec, runs the
// scenario validator, and builds everything with the shared scn builders.
// Topology flags:
//   --type=geometric|grid|clique|star|line   (default geometric; also the
//           schema's bridged|contention_star|disjoint_cliques)
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
// the default configuration); value ranges are scn::validate_scenario()'s.
// When the first argument is a --flag the `run` subcommand is implied:
// `dglab --topology=grid:8x8 --phases=10`.
//
// Example:
//   dglab run --type=geometric --n=48 --sched=bernoulli:0.5 --phases=40
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "scn/scenario.h"
#include "scn/workload.h"
#include "seed/seed_alg.h"
#include "traffic/source.h"
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
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> unknown_;
};

using dg::spec::split;

/// Prints "dglab: <message>" and exits 2: every bad input ends here.
[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dglab: " << message << "\n";
  std::exit(2);
}

/// Strict non-negative integer parse (strtoull alone would silently wrap
/// "-1", read "abc" as 0, accept trailing junk and saturate on overflow).
bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// Strict finite-number parse for numeric flags (strtod alone would read
/// "abc" as 0 and ignore trailing junk).
bool parse_number(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(out);
}

/// --key as an integer in [lo, hi], or `dflt` when the flag is absent.
std::uint64_t uint_flag(
    const Flags& flags, const char* key, std::uint64_t dflt,
    std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::int64_t>::max()) {
  if (!flags.flag(key)) return dflt;
  const std::string s = flags.str(key, "");
  std::uint64_t v = 0;
  if (!parse_uint(s, v) || v < lo || v > hi) {
    fail("--" + std::string(key) + " needs an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]; got '" + s +
         "'");
  }
  return v;
}

/// --key as a finite number, or `dflt` when the flag is absent.  Its range
/// is the scenario validator's to check.
double number_flag(const Flags& flags, const char* key, double dflt) {
  if (!flags.flag(key)) return dflt;
  const std::string s = flags.str(key, "");
  double x = 0.0;
  if (!parse_number(s, x)) {
    fail("--" + std::string(key) + " needs a number; got '" + s + "'");
  }
  return x;
}

/// Expands --topology=family:args (grid:32x32, geometric:256, clique:16,
/// star:16, line:16) into the topology's family and size.  The geometry
/// flags (--side, --spacing, --r) still apply.
void apply_topology_alias(const std::string& alias, scn::TopologySpec& t) {
  const auto colon = alias.find(':');
  const std::string fam = alias.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : alias.substr(colon + 1);
  const auto x = args.find('x');
  std::uint64_t a = 0, b = 0;
  if (fam == "grid" && x != std::string::npos &&
      parse_uint(args.substr(0, x), a) && parse_uint(args.substr(x + 1), b)) {
    t.cols = a;
    t.rows = b;
  } else if ((fam == "geometric" || fam == "clique" || fam == "star" ||
              fam == "line") &&
             parse_uint(args, a)) {
    (fam == "geometric" ? t.n : t.k) = a;
  } else {
    fail("--topology: malformed spec '" + alias +
         "' (valid: grid:COLSxROWS, geometric:N, clique:K, star:K, "
         "line:K)");
  }
  t.type = fam;
}

/// Runs the scenario validator; a failure exits 2 naming the field.
void validate(scn::ScenarioSpec& spec, const std::string& context = "") {
  const scn::ScenarioError err = scn::validate_scenario(spec);
  if (err.ok()) return;
  fail(context + (err.field.empty() ? "" : err.field + ": ") + err.message);
}

/// Compiles the flags into the scenario they are sugar for and validates
/// it.  `cmd` picks the workload (seed_agreement for seed, lb_progress
/// otherwise) and the --phases default.
scn::ScenarioSpec scenario_from_flags(const Flags& flags,
                                      const std::string& cmd) {
  scn::ScenarioSpec spec;
  scn::TopologySpec& t = spec.topology;
  t.type = flags.str("type", t.type);
  t.n = uint_flag(flags, "n", t.n);
  t.side = number_flag(flags, "side", t.side);
  t.r = number_flag(flags, "r", t.r);
  t.cols = uint_flag(flags, "cols", t.cols);
  t.rows = uint_flag(flags, "rows", t.rows);
  t.spacing = number_flag(flags, "spacing", t.spacing);
  t.k = uint_flag(flags, "k", t.k);
  if (flags.flag("topology")) {
    if (flags.flag("type")) {
      fail("--topology and --type are mutually exclusive (the alias "
           "already names the family)");
    }
    apply_topology_alias(flags.str("topology", ""), t);
  }
  spec.scheduler = flags.str("sched", spec.scheduler);
  spec.channel = flags.str("channel", spec.channel);
  spec.traffic = flags.str("traffic", "");
  spec.faults = flags.str("faults", "");
  if (flags.flag("splice")) spec.stages = {flags.str("splice", "")};
  scn::AlgorithmSpec& a = spec.algorithm;
  a.type = cmd == "seed" ? "seed_agreement" : "lb_progress";
  a.eps1 = number_flag(flags, "eps", a.eps1);
  a.seed_eps = std::min(0.25, a.eps1);
  a.ack_scale = number_flag(flags, "ack-scale", a.ack_scale);
  a.horizon_phases = static_cast<std::int64_t>(
      uint_flag(flags, "phases", cmd == "sweep" ? 20 : 30));
  a.queue_cap = static_cast<std::int64_t>(uint_flag(flags, "traffic-cap", 0));
  spec.seed = uint_flag(flags, "seed", 1, 0,
                        std::numeric_limits<std::uint64_t>::max());
  if (flags.flag("round-threads")) {
    const std::string err = scn::validate_round_threads_value(
        flags.str("round-threads", ""), spec.round_threads);
    if (!err.empty()) fail("--" + err);
  }
  validate(spec);
  return spec;
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
  const bool out = flags.flag("trace-out");
  if (!out && (flags.flag("trace-rounds") || flags.flag("trace-vertices"))) {
    fail("--trace-rounds/--trace-vertices need --trace-out=");
  }
  TraceFlags t;
  if (flags.flag("trace")) {
    const std::string s = flags.str("trace", "");
    std::uint64_t n = 0;
    if (!parse_uint(s, n) || n == 0 || n > obs::TraceSink::kMaxWireCapacity) {
      fail("--trace: the wire tail length must be an integer in [1, " +
           std::to_string(obs::TraceSink::kMaxWireCapacity) + "]; got '" + s +
           "'");
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
      fail("--trace-rounds needs LO:HI with LO <= HI < 2^63; got '" + s + "'");
    }
    t.filter.round_lo = static_cast<std::int64_t>(lo);
    t.filter.round_hi = static_cast<std::int64_t>(hi);
  }
  if (flags.flag("trace-vertices")) {
    for (const std::string& v : split(flags.str("trace-vertices", ""), ',')) {
      std::uint64_t parsed = 0;
      if (!parse_uint(v, parsed) ||
          parsed > std::numeric_limits<graph::Vertex>::max()) {
        fail("--trace-vertices needs a comma-separated vertex list; got '" +
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

void describe(const graph::DualGraph& g) {
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
}

// ---- subcommands ----

int cmd_net(const scn::ScenarioSpec& spec) {
  Rng rng(spec.seed);
  const auto g = scn::build_topology(spec.topology, rng);
  describe(g);
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

int cmd_seed(const scn::ScenarioSpec& spec) {
  Rng rng(spec.seed);
  const auto g = scn::build_topology(spec.topology, rng);
  describe(g);
  const double eps = spec.algorithm.seed_eps;
  const auto params = seed::SeedAlgParams::make(eps, g.delta());
  std::cout << "SeedAlg(eps=" << eps << "): " << params.num_phases
            << " phases x " << params.phase_length << " rounds = "
            << params.total_rounds() << " rounds\n";
  std::string channel;
  const auto res = scn::run_seed_check(spec, g, spec.seed, nullptr, &channel);
  std::cout << "channel: " << channel << "\n"
            << "spec: well-formed=" << (res.well_formed ? "OK" : "FAIL")
            << " consistent=" << (res.consistent ? "OK" : "FAIL")
            << " owners-local=" << (res.owners_local ? "OK" : "FAIL") << "\n"
            << "distinct owners: " << res.distinct_owners
            << "; max owners per closed G'-neighborhood: "
            << res.max_neighborhood_owners << "\n";
  return res.well_formed && res.consistent ? 0 : 1;
}

int cmd_run(const Flags& flags, const scn::ScenarioSpec& spec,
            const TraceFlags& trace) {
  // The run knobs with no scenario key, applied after the shared builders.
  const std::uint64_t senders = uint_flag(flags, "senders", 2);
  const std::uint64_t reuse = uint_flag(flags, "reuse", 1, 1,
                                        std::numeric_limits<int>::max());
  Rng rng(spec.seed);
  const auto g = scn::build_topology(spec.topology, rng);
  for (const graph::Vertex v : trace.filter.vertices) {
    if (v >= g.size()) {
      fail("--trace-vertices: vertex " + std::to_string(v) +
           " is out of range for network size " + std::to_string(g.size()));
    }
  }
  describe(g);

  auto params = scn::lb_params_for(spec.algorithm, g);
  params.phases_per_seed = static_cast<int>(reuse);
  params.use_shared_seeds = !flags.flag("ablate");

  std::cout << "LBAlg: T_s=" << params.t_s << " T_prog=" << params.t_prog
            << " phase=" << params.phase_length()
            << " group=" << params.group_length()
            << " T_ack=" << params.t_ack_phases << " phases"
            << (params.use_shared_seeds ? "" : "  [ABLATED]") << "\n";

  const auto sim_ptr = scn::make_lb_simulation(spec, g, params, spec.seed);
  lb::LbSimulation& sim = *sim_ptr;
  sim.configure(scn::engine_config_for(spec, nullptr));
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

  if (!spec.traffic.empty()) {
    sim.traffic().set_queue_capacity(
        static_cast<std::size_t>(spec.algorithm.queue_cap));
    sim.add_traffic(traffic::build_source(spec.traffic_spec, g.size(),
                                          derive_seed(spec.seed, 0x7fcULL)));
    std::cout << "traffic: " << spec.traffic << "\n";
  } else if (const auto count = std::min<std::uint64_t>(senders, g.size());
             count >= 1) {
    sim.keep_busy(
        traffic::spread_vertices(static_cast<std::size_t>(count), g.size()));
  }
  std::unique_ptr<fault::FaultPlan> plan;  // must outlive the run
  if (!spec.faults.empty()) {
    plan = fault::build_fault_plan(spec.fault_spec);
    sim.configure(sim::EngineConfig{}.with_fault_plan(plan.get()));
    std::cout << "faults: " << spec.faults << " (" << plan->name()
              << " plan)\n";
  }
  sim.run_phases(spec.algorithm.horizon_phases);
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
  if (!spec.traffic.empty()) {
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
  if (!spec.faults.empty()) {
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

int cmd_sweep(const Flags& flags, const scn::ScenarioSpec& base) {
  // Each --deltas entry is the base scenario on a clique of that size,
  // validated before any point runs.
  const std::string deltas = flags.str("deltas", "4,8,16,32");
  std::vector<scn::ScenarioSpec> points;
  for (const std::string& ds : split(deltas, ',')) {
    std::uint64_t k = 0;
    if (!parse_uint(ds, k)) {
      fail("--deltas needs a comma-separated list of clique sizes; got '" +
           deltas + "'");
    }
    scn::ScenarioSpec& spec = points.emplace_back(base);
    spec.topology.type = "clique";
    spec.topology.k = static_cast<std::size_t>(k);
    spec.algorithm.r = 1.5;
    validate(spec, "--deltas=" + ds + ": ");
  }
  if (points.empty()) fail("--deltas needs at least one clique size");
  Table table({"Delta", "phase", "progress mean (rounds)",
               "reliability", "progress freq"});
  for (const scn::ScenarioSpec& spec : points) {
    Rng rng(spec.seed);
    const auto g = scn::build_topology(spec.topology, rng);
    const auto params = scn::lb_params_for(spec.algorithm, g);
    const auto sim_ptr = scn::make_lb_simulation(spec, g, params, spec.seed);
    lb::LbSimulation& sim = *sim_ptr;
    sim.configure(scn::engine_config_for(spec, nullptr));
    sim.keep_busy({0});
    sim.run_phases(spec.algorithm.horizon_phases);
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
        .cell(static_cast<std::uint64_t>(spec.topology.k))
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
  if (cmd != "net" && cmd != "seed" && cmd != "run" && cmd != "sweep") {
    usage();
    return 2;
  }
  // Traffic flags only apply to `run`; the other subcommands drive their
  // own environments, and silently ignoring the flags there would break
  // the no-silent-ignore policy the run command enforces.
  if (cmd != "run" &&
      (flags.flag("traffic") || flags.flag("traffic-cap") ||
       flags.flag("faults"))) {
    fail("--traffic/--traffic-cap/--faults only apply to the 'run' "
         "subcommand");
  }
  // Flag combinations that would otherwise be silently ignored are
  // rejected (the same policy as unknown flags).
  const bool traffic = !flags.str("traffic", "").empty();
  if (!traffic && flags.flag("traffic-cap")) {
    fail("--traffic-cap needs --traffic= (the keep-busy default has no "
         "admission queue)");
  }
  if (traffic && flags.flag("senders")) {
    fail("--senders and --traffic are mutually exclusive (use "
         "--traffic=saturate:count for spread senders)");
  }
  if (cmd == "net" && flags.flag("splice")) {
    fail("--splice only applies to the run/sweep/seed subcommands (net "
         "builds no engine)");
  }
  if (cmd != "run" &&
      (flags.flag("metrics-out") || flags.flag("trace") ||
       flags.flag("trace-out") || flags.flag("trace-rounds") ||
       flags.flag("trace-vertices"))) {
    fail("the telemetry flags (--metrics-out/--trace/--trace-out/"
         "--trace-rounds/--trace-vertices) only apply to the 'run' "
         "subcommand");
  }
  const TraceFlags trace = trace_flags(flags);
  const scn::ScenarioSpec spec = scenario_from_flags(flags, cmd);
  if (cmd == "net") return cmd_net(spec);
  if (cmd == "seed") return cmd_seed(spec);
  if (cmd == "run") return cmd_run(flags, spec, trace);
  return cmd_sweep(flags, spec);
}
