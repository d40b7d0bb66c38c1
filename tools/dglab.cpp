// dglab -- command-line laboratory for the dual-graph local broadcast stack.
//
//   dglab net   [topology flags]                      describe a network
//   dglab seed  [topology flags] [engine flags]       seed agreement + spec
//   dglab run   [every flag but --deltas]             LBAlg + spec report
//   dglab sweep [--deltas=...] [engine + LBAlg flags] progress/delivery sweep
//
// The flags are sugar for the keys of one scn::ScenarioSpec
// (scn/scenario.h); dglab fills the spec, runs the scenario validator, and
// builds everything with the shared scn builders.  kFlags below lists the
// subcommands that read each flag, grouped as here; any other flag, a flag
// the subcommand does not read, a valued flag without '=', a switch given
// a value, or a flag given twice exits 2 (tools/cli_flags.h).  Value
// ranges are scn::validate_scenario()'s.
//
// Every subcommand:
//   --seed=1  master seed
// Topology flags (net, seed, run):
//   --type=geometric|grid|clique|star|line   (default geometric; also the
//           schema's bridged|contention_star|disjoint_cliques)
//   --n=64 --side=4.0 --r=1.5                (geometric)
//   --cols=6 --rows=4 --spacing=1.0          (grid)
//   --k=16                                   (clique size / star leaves / line length)
//   --topology=family:args  compact alias for --type and its size:
//           grid:32x32 | geometric:256 | clique:16 | star:16 | line:16
//           (the geometry flags --side, --spacing, --r still apply)
// Engine flags (seed, run, sweep):
//   --eps=0.1  LBAlg's eps1; SeedAlg runs at min(0.25, eps)
//   --sched=bernoulli:0.5 | full-g | full-gprime | flicker:64:32
//           | burst:16:0.5 | anti
//   --channel=dual | sinr:alpha,beta,noise   (reception physics; sinr needs
//           an embedded topology and makes --sched irrelevant)
//   --round-threads=N  (sharded-round worker cap, N >= 1; omit to use the
//           DG_ROUND_THREADS default.  Results are byte-identical at every
//           value -- the flag moves wall clock, never outcomes)
//   --splice=SPEC  (splice an extra stage into the engine's round
//           pipeline: noop | dedup[:window[:slab]] | tap:slab[:v1,...];
//           see sim/splice.h for the grammar.  A dedup stage suppresses
//           recently-heard packets, a tap stage counts slab population per
//           round into the telemetry)
// LBAlg flags (run, sweep):
//   --phases=30 (sweep: 20)  --ack-scale=0.02
//   --reuse=1   phases per seed (algorithm.phases_per_seed)
//   --ablate    private coins instead of shared seeds
//               (algorithm.shared_seeds = false)
// Run flags (run only):
//   --senders=2  keep-busy senders spread over the network
//   --traffic=saturate[:count] | poisson:rate | burst:period:size[:count]
//           | hotspot:rate:bias[:hot]   (environment traffic model; replaces
//           the --senders keep-busy default and prints queue/latency stats)
//   --traffic-cap=N  (per-node admission queue bound; 0 = unbounded; needs
//           --traffic)
//   --faults=crash:round:vertex[:repair] | poisson:rate[:mean_repair]
//           | region:round:center:radius[:repair] | adversary:k[:period[:repair]]
//           (crash/recover schedule; prints the graceful-degradation
//           ledger -- fault-window progress violations, re-stabilization
//           time, throughput dip -- next to the clean-window spec report)
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
// Sweep flags (sweep only):
//   --deltas=4,8,16,32  clique sizes, one table row each
//
// When the first argument is a --flag the `run` subcommand is implied:
// `dglab --topology=grid:8x8 --phases=10`.
//
// Example:
//   dglab run --type=geometric --n=48 --sched=bernoulli:0.5 --phases=40
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"
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
using cli::Flags;
using cli::parse_uint;
using dg::spec::split;

// Which subcommands read each flag group (see the header).
constexpr const char* kAll = "net seed run sweep";
constexpr const char* kTopology = "net seed run";
constexpr const char* kEngine = "seed run sweep";
constexpr const char* kLb = "run sweep";

constexpr cli::FlagSpec kFlags[] = {
    {"seed", true, kAll},
    {"type", true, kTopology},      {"n", true, kTopology},
    {"side", true, kTopology},      {"r", true, kTopology},
    {"cols", true, kTopology},      {"rows", true, kTopology},
    {"spacing", true, kTopology},   {"k", true, kTopology},
    {"topology", true, kTopology},
    {"eps", true, kEngine},         {"sched", true, kEngine},
    {"channel", true, kEngine},     {"round-threads", true, kEngine},
    {"splice", true, kEngine},
    {"phases", true, kLb},          {"ack-scale", true, kLb},
    {"reuse", true, kLb},           {"ablate", false, kLb},
    {"senders", true, "run"},       {"traffic", true, "run"},
    {"traffic-cap", true, "run"},   {"faults", true, "run"},
    {"trace", true, "run"},         {"metrics-out", true, "run"},
    {"trace-out", true, "run"},     {"trace-rounds", true, "run"},
    {"trace-vertices", true, "run"},
    {"deltas", true, "sweep"},
};

/// Expands --topology=family:args (grid:32x32, geometric:256, clique:16,
/// star:16, line:16) into the topology's family and size.  The geometry
/// flags (--side, --spacing, --r) still apply.
void apply_topology_alias(const Flags& flags, scn::TopologySpec& t) {
  const std::string alias = flags.str("topology", "");
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
    flags.fail("--topology: malformed spec '" + alias +
               "' (valid: grid:COLSxROWS, geometric:N, clique:K, star:K, "
               "line:K)");
  }
  t.type = fam;
}

/// Runs the scenario validator; a failure exits 2 naming the field.
void validate(const Flags& flags, scn::ScenarioSpec& spec,
              const std::string& context = "") {
  const scn::ScenarioError err = scn::validate_scenario(spec);
  if (err.ok()) return;
  flags.fail(context + (err.field.empty() ? "" : err.field + ": ") +
             err.message);
}

/// Compiles the flags into the scenario they are sugar for and validates
/// it.  `cmd` picks the workload (seed_agreement for seed, lb_progress
/// otherwise) and the --phases default.
scn::ScenarioSpec scenario_from_flags(const Flags& flags,
                                      const std::string& cmd) {
  scn::ScenarioSpec spec;
  scn::TopologySpec& t = spec.topology;
  t.type = flags.str("type", t.type);
  t.n = flags.integer("n", t.n);
  t.side = flags.number("side", t.side);
  t.r = flags.number("r", t.r);
  t.cols = flags.integer("cols", t.cols);
  t.rows = flags.integer("rows", t.rows);
  t.spacing = flags.number("spacing", t.spacing);
  t.k = flags.integer("k", t.k);
  if (flags.has("topology")) {
    if (flags.has("type")) {
      flags.fail("--topology and --type are mutually exclusive (the alias "
                 "already names the family)");
    }
    apply_topology_alias(flags, t);
  }
  spec.scheduler = flags.str("sched", spec.scheduler);
  spec.channel = flags.str("channel", spec.channel);
  spec.traffic = flags.str("traffic", "");
  spec.faults = flags.str("faults", "");
  if (flags.has("splice")) spec.stages = {flags.str("splice", "")};
  scn::AlgorithmSpec& a = spec.algorithm;
  a.type = cmd == "seed" ? "seed_agreement" : "lb_progress";
  a.eps1 = flags.number("eps", a.eps1);
  a.seed_eps = std::min(0.25, a.eps1);
  a.ack_scale = flags.number("ack-scale", a.ack_scale);
  a.horizon_phases = static_cast<std::int64_t>(
      flags.integer("phases", cmd == "sweep" ? 20 : 30));
  a.phases_per_seed = static_cast<std::int64_t>(
      flags.integer("reuse", static_cast<std::uint64_t>(a.phases_per_seed)));
  a.shared_seeds = !flags.has("ablate");
  a.queue_cap = static_cast<std::int64_t>(flags.integer("traffic-cap", 0));
  spec.seed = flags.integer("seed", 1, 0,
                            std::numeric_limits<std::uint64_t>::max());
  spec.round_threads = flags.integer("round-threads", 0, 1);
  validate(flags, spec);
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
  const bool out = flags.has("trace-out");
  if (!out && (flags.has("trace-rounds") || flags.has("trace-vertices"))) {
    flags.fail("--trace-rounds/--trace-vertices need --trace-out=");
  }
  TraceFlags t;
  t.wire_tail = flags.integer("trace", out ? kDefaultWireTail : 0, 1,
                              obs::TraceSink::kMaxWireCapacity);
  if (flags.has("trace-rounds")) {
    const std::string s = flags.str("trace-rounds", "");
    const auto colon = s.find(':');
    std::uint64_t lo = 0, hi = 0;
    if (colon == std::string::npos || !parse_uint(s.substr(0, colon), lo) ||
        !parse_uint(s.substr(colon + 1), hi) || lo > hi ||
        hi > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
      flags.fail("--trace-rounds needs LO:HI with LO <= HI < 2^63; got '" +
                 s + "'");
    }
    t.filter.round_lo = static_cast<std::int64_t>(lo);
    t.filter.round_hi = static_cast<std::int64_t>(hi);
  }
  for (const std::string& v : split(flags.str("trace-vertices", ""), ',')) {
    std::uint64_t parsed = 0;
    if (!parse_uint(v, parsed) ||
        parsed > std::numeric_limits<graph::Vertex>::max()) {
      flags.fail("--trace-vertices needs a comma-separated vertex list; "
                 "got '" + v + "'");
    }
    t.filter.vertices.push_back(static_cast<graph::Vertex>(parsed));
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
  // The run knob with no scenario key, applied after the shared builders.
  const std::uint64_t senders = flags.integer("senders", 2);
  Rng rng(spec.seed);
  const auto g = scn::build_topology(spec.topology, rng);
  for (const graph::Vertex v : trace.filter.vertices) {
    if (v >= g.size()) {
      flags.fail("--trace-vertices: vertex " + std::to_string(v) +
                 " is out of range for network size " +
                 std::to_string(g.size()));
    }
  }
  describe(g);

  const auto params = scn::lb_params_for(spec.algorithm, g);

  std::cout << "LBAlg: T_s=" << params.t_s << " T_prog=" << params.t_prog
            << " phase=" << params.phase_length()
            << " group=" << params.group_length()
            << " T_ack=" << params.t_ack_phases << " phases"
            << (params.use_shared_seeds ? "" : "  [ABLATED]") << "\n";

  const auto sim_ptr = scn::make_lb_simulation(spec, g, params, spec.seed);
  lb::LbSimulation& sim = *sim_ptr;
  sim.configure(scn::engine_config_for(spec, nullptr));
  std::cout << "channel: " << sim.engine().channel().name() << "\n";

  const bool want_metrics = flags.has("metrics-out");
  const bool want_trace = flags.has("trace-out");
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
  if (flags.has("trace")) {
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
      flags.fail("--deltas needs a comma-separated list of clique sizes; "
                 "got '" + deltas + "'");
    }
    scn::ScenarioSpec& spec = points.emplace_back(base);
    spec.topology.type = "clique";
    spec.topology.k = static_cast<std::size_t>(k);
    spec.algorithm.r = 1.5;
    validate(flags, spec, "--deltas=" + ds + ": ");
  }
  if (points.empty()) flags.fail("--deltas needs at least one clique size");
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
               "       dglab --flags...   (implies 'run')\n";
  for (const char* cmd : {"net", "seed", "run", "sweep"}) {
    std::cout << "  " << cmd << ":";
    cli::print_flags(std::cout, kFlags, cmd);
    std::cout << "\n";
  }
  std::cout << "see the header of tools/dglab.cpp for values and defaults\n";
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
  if (cmd != "net" && cmd != "seed" && cmd != "run" && cmd != "sweep") {
    usage();
    return 2;
  }
  const Flags flags("dglab", kFlags, cmd, argc, argv, first);
  flags.exit_on_errors();
  if (!flags.positional().empty()) {
    flags.fail("unexpected argument '" + flags.positional().front() + "'");
  }
  // Flag combinations that would otherwise be silently ignored are
  // rejected (the same policy as unknown flags).
  const bool traffic = !flags.str("traffic", "").empty();
  if (!traffic && flags.has("traffic-cap")) {
    flags.fail("--traffic-cap needs --traffic= (the keep-busy default has "
               "no admission queue)");
  }
  if (traffic && flags.has("senders")) {
    flags.fail("--senders and --traffic are mutually exclusive (use "
               "--traffic=saturate:count for spread senders)");
  }
  const TraceFlags trace = trace_flags(flags);
  const scn::ScenarioSpec spec = scenario_from_flags(flags, cmd);
  if (cmd == "net") return cmd_net(spec);
  if (cmd == "seed") return cmd_seed(spec);
  if (cmd == "run") return cmd_run(flags, spec, trace);
  return cmd_sweep(flags, spec);
}
