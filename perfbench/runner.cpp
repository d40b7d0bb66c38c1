// perfbench_runner: runs one benchmark workload end to end through the
// simulator library's public API and prints one JSON document of raw
// per-repetition measurements: timed spans around every layer call, the
// host time of each LbSimulation::run_round call, RSS samples, and the
// obs::Registry dumps the library fills.  run.py builds this binary,
// aggregates the repetitions into the benchmark's metrics and applies the
// correctness gate; nothing here is timed from inside src/.
//
//   perfbench_runner --workload geo_dense|grid_sparse|campaign_churn
//                    --seed N --seconds S --trace 0|1
//                    [--smoke] [--campaign FILE]
//
// Untraced repetitions repeat until at least kMinReps have run and S
// seconds have passed; after the first two, single-simulation repetitions re-run on the
// already validated graph (see run_single_rep).  With --trace 1 the runner
// does one untraced repetition (the baseline for the tracing overhead) and
// then one traced repetition, which installs an obs::Registry for the whole
// run.  --smoke shrinks every workload for the benchmark's own tests.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dual_graph.h"
#include "graph/generators.h"
#include "lb/params.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "scn/campaign.h"
#include "scn/scenario.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace {

using namespace dg;
using Clock = std::chrono::steady_clock;

// Every workload stays within the 4 cores of the reference machine: round
// sharding for the single simulations, trial workers for the campaign.
constexpr std::size_t kThreads = 4;
// Untraced repetitions per run, at least: two that set up from scratch and
// one re-run, so every median has three samples.
constexpr int kMinReps = 3;
// Campaign set-ups per variant, each timing kParsesPerSetup parse + expand
// passes as one span: a single pass takes tens of microseconds, too short
// to time on its own.
constexpr int kSetups = 4;
constexpr int kParsesPerSetup = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string campaign_path;
};

/// Spans kept in memory, one per layer call the runner makes: name (a
/// string literal), start and end in ns since the repetition began, and
/// the index of the enclosing span (-1 for the root).
class SpanLog {
 public:
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  /// Closes span `id` (the innermost open one); returns its seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    stack_.pop_back();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  template <typename F>
  double time(const char* name, F&& body) {
    const int id = open(name);
    body();
    return close(id);
  }

  void write(std::ostream& os) const {
    os << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "[\"" << s.name << "\"," << s.start_ns << ','
         << s.end_ns << ',' << s.parent << ']';
    }
    os << ']';
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

double current_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- single-simulation workloads (geo_dense, grid_sparse) ----

graph::DualGraph make_graph(const Options& o) {
  if (o.workload == "geo_dense") {
    graph::GeometricSpec spec;
    spec.n = o.smoke ? 1024 : 16384;
    spec.side = o.smoke ? 20.0 : 80.0;
    Rng rng(o.seed, 1);
    return graph::random_geometric(spec, rng);
  }
  const std::size_t side = o.smoke ? 32 : 256;
  return graph::grid(side, side, 1.0, 1.5);
}

std::size_t reliable_edges(const graph::DualGraph& g) {
  std::size_t ends = 0;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    ends += g.g_neighbors(v).size();
  }
  return ends / 2;
}

/// One repetition.  A full repetition generates and validates the graph;
/// with `kept` engaged it is a re-run instead, which rebuilds only the
/// simulation on the kept graph, so the run repeats without repeating the
/// O(n^2) validation.  `keep_graph` leaves a full repetition's graph in
/// `kept` for the re-runs.
void run_single_rep(const Options& o, bool traced, bool keep_graph,
                    std::optional<graph::DualGraph>& kept, std::ostream& out) {
  const bool full = !kept.has_value();
  SpanLog spans;
  const int root = spans.open(full ? "workload" : "rerun");
  std::vector<double> round_ms;
  double rss_setup = 0;
  double rss_run = 0;
  double cpu_run = 0;
  bool geographic = false;
  lb::LbSpecReport report;
  std::int64_t rounds = 0;
  std::size_t n = 0;
  std::size_t edges[2] = {0, 0};
  std::size_t deltas[2] = {0, 0};
  std::string ledger_json;
  std::string telemetry_json = "null";
  int teardown = -1;  // closes once the simulation and graph are freed
  {
    const int setup = spans.open(full ? "setup" : "rebuild");
    std::optional<graph::DualGraph> fresh;
    if (full) {
      spans.time("graph.generate", [&] { fresh.emplace(make_graph(o)); });
      spans.time("graph.validate", [&] {
        geographic =
            graph::is_r_geographic(*fresh, *fresh->embedding(), fresh->r());
      });
    } else {
      geographic = true;  // validated by the repetition that built it
    }
    const graph::DualGraph* g = full ? &*fresh : &*kept;
    obs::Registry telemetry;
    lb::LbParams params;
    std::unique_ptr<lb::LbSimulation> sim;
    spans.time("lb.construct", [&] {
      lb::LbScales scales;
      scales.ack_scale = 0.01;
      // LBAlg takes known upper bounds on Delta and Delta'.  geo_dense
      // fixes them above every seed's realized maximum (at most 27 and 37
      // over seeds 1-40), so its schedule and run length are the same for
      // every seed.
      const bool geo = o.workload == "geo_dense";
      params = lb::LbParams::calibrated(
          0.1, 1.5, std::max<std::size_t>(g->delta(), geo ? 32 : 0),
          std::max<std::size_t>(g->delta_prime(), geo ? 40 : 0), scales);
      sim = std::make_unique<lb::LbSimulation>(
          *g, std::make_unique<sim::BernoulliScheduler>(0.5), params,
          derive_seed(o.seed, 2));
      sim::EngineConfig config;
      config.with_round_threads(kThreads);
      if (traced) config.with_telemetry(&telemetry);
      sim->configure(config);
    });
    spans.time("traffic.attach", [&] {
      if (o.workload == "geo_dense") {
        std::vector<graph::Vertex> all(g->size());
        std::iota(all.begin(), all.end(), graph::Vertex{0});
        sim->keep_busy(all);
        return;
      }
      // Poisson arrivals calibrated as in BM_EngineRoundSparse: each
      // admitted message occupies its sender for ~t_ack_bound rounds, so
      // this rate holds ~1% of the nodes in the sending state.
      traffic::TrafficSpec tspec;
      tspec.kind = traffic::TrafficSpec::Kind::kPoisson;
      tspec.rate = std::max(0.01 * static_cast<double>(g->size()) /
                                static_cast<double>(params.t_ack_bound()),
                            1e-3);
      sim->add_traffic(
          traffic::build_source(tspec, g->size(), derive_seed(o.seed, 3)));
    });
    spans.close(setup);
    rss_setup = current_rss_mb();

    // Whole ack cycles: timely acknowledgement guarantees that every
    // message admitted in the first round is acked inside the run, so the
    // latency metrics are never empty.  The grid's cycle is short (~460
    // rounds) next to its set-up, so it runs eight to sample the
    // steady-state frontier and give the round percentiles enough samples.
    rounds = params.t_ack_bound() * (o.workload == "geo_dense" ? 1 : 8);
    round_ms.reserve(static_cast<std::size_t>(rounds));
    const double cpu0 = cpu_seconds();
    const int run = spans.open("run");
    for (std::int64_t r = 0; r < rounds; ++r) {
      const int id = spans.open("lb.run_round");
      sim->run_round();
      round_ms.push_back(spans.close(id) * 1e3);
    }
    spans.close(run);
    cpu_run = cpu_seconds() - cpu0;
    rss_run = current_rss_mb();

    const int collect = spans.open("report");
    // The wrapper-level aggregates (traffic ledger, spec tallies) go into a
    // registry of their own after the run, so untraced and traced
    // repetitions produce the same logical digest.
    obs::Registry ledger;
    sim->set_telemetry(&ledger);
    sim->export_telemetry();
    ledger_json = ledger.json(false);
    if (traced) telemetry_json = telemetry.json(true);
    report = sim->report();
    n = g->size();
    edges[0] = reliable_edges(*g);
    edges[1] = g->unreliable_edge_count();
    deltas[0] = g->delta();
    deltas[1] = g->delta_prime();
    spans.close(collect);
    teardown = spans.open("teardown");
    sim.reset();
    if (keep_graph) kept = std::move(fresh);
  }
  spans.close(teardown);
  spans.close(root);
  out << "{\"traced\":" << (traced ? "true" : "false") << ",\"spans\":";
  spans.write(out);
  out << ",\"round_ms\":[";
  for (std::size_t i = 0; i < round_ms.size(); ++i) {
    out << (i ? "," : "") << round_ms[i];
  }
  out << "],\"rounds\":" << rounds << ",\"threads\":" << kThreads
      << ",\"cpu_run_s\":" << cpu_run << ",\"rss_after_setup_mb\":"
      << rss_setup << ",\"rss_after_run_mb\":" << rss_run
      << ",\"geographic\":" << (geographic ? "true" : "false")
      << ",\"timely_ack_ok\":" << (report.timely_ack_ok ? "true" : "false")
      << ",\"validity_ok\":" << (report.validity_ok ? "true" : "false")
      << ",\"graph\":{\"n\":" << n << ",\"edges_reliable\":" << edges[0]
      << ",\"edges_unreliable\":" << edges[1] << ",\"delta\":" << deltas[0]
      << ",\"delta_prime\":" << deltas[1] << ",\"words\":" << (n + 63) / 64
      << "},\"ledger\":" << ledger_json << ",\"telemetry\":" << telemetry_json
      << '}';
}

// ---- campaign workload (campaign_churn) ----

void write_results(std::ostream& out, const scn::CampaignResult& result) {
  for (std::size_t i = 0; i < result.variants.size(); ++i) {
    const scn::VariantResult& v = result.variants[i];
    out << (i ? "," : "") << "{\"name\":\"" << v.spec.name
        << "\",\"trials\":" << v.spec.trials
        << ",\"registry\":" << v.registry.json(true) << '}';
  }
}

void run_campaign_rep(const Options& o, const std::string& text, bool traced,
                      std::ostream& out) {
  SpanLog spans;
  const int root = spans.open("workload");
  // Sets the campaign up kSetups times; the last parse is the one run.
  const auto set_up = [&] {
    scn::CampaignParse parsed;
    for (int i = 0; i < kSetups; ++i) {
      const int setup = spans.open("setup");
      for (int j = 0; j < kParsesPerSetup; ++j) {
        spans.time("scn.parse", [&] {
          parsed = scn::parse_campaign_text(text, o.campaign_path);
        });
        if (!parsed.ok()) {
          std::cerr << parsed.error << '\n';
          std::exit(2);
        }
        for (scn::ScenarioSpec& v : parsed.campaign.variants) {
          v.seed = derive_seed(o.seed, v.seed);
          if (o.smoke) {
            v.trials = 2;
            v.topology.n = 128;
            v.topology.side = 7.0;
            v.algorithm.horizon_phases = 16;
          }
        }
      }
      spans.close(setup);
    }
    return parsed;
  };

  // Each variant is set up and run on its own, as one filtered dgcampaign
  // call would be.  This also times the set-up at two points of the
  // repetition: a pass takes tens of microseconds, and its speed follows
  // the host's load from one second to the next.
  scn::RunOptions options;
  options.threads = kThreads;
  options.round_threads = 1;
  const char* const filters[2] = {"/plain", "/dedup"};
  const char* const span_names[2] = {"scn.variant.plain", "scn.variant.dedup"};
  scn::CampaignResult variants[2];
  double rss_setup = 0;
  double cpu_run = 0;
  for (int k = 0; k < 2; ++k) {
    const scn::CampaignParse parsed = set_up();
    if (k == 0) rss_setup = current_rss_mb();
    options.filter = filters[k];
    const double cpu0 = cpu_seconds();
    const int run = spans.open("run");
    spans.time(span_names[k], [&] {
      variants[k] = scn::run_campaign(parsed.campaign, options);
    });
    spans.close(run);
    cpu_run += cpu_seconds() - cpu0;
  }
  const scn::CampaignResult& plain = variants[0];
  const scn::CampaignResult& dedup = variants[1];
  const double rss_run = current_rss_mb();

  std::ostringstream results;
  results.precision(17);
  const int collect = spans.open("report");
  results << "\"variants\":[";
  write_results(results, plain);
  results << ',';
  write_results(results, dedup);
  results << "],\"counters\":[" << scn::counters_json(plain) << ','
          << scn::counters_json(dedup) << ']';
  spans.close(collect);
  spans.close(root);

  out << "{\"traced\":" << (traced ? "true" : "false") << ",\"spans\":";
  spans.write(out);
  out << ",\"threads\":" << kThreads
      << ",\"parses_per_setup\":" << kParsesPerSetup
      << ",\"cpu_run_s\":" << cpu_run
      << ",\"rss_after_setup_mb\":" << rss_setup
      << ",\"rss_after_run_mb\":" << rss_run << ',' << results.str() << '}';
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_runner: " << problem
            << "\nusage: perfbench_runner --workload "
               "geo_dense|grid_sparse|campaign_churn --seed N --seconds S "
               "--trace 0|1 [--smoke] [--campaign FILE]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--campaign") {
      o.campaign_path = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else {
      usage("unknown flag " + arg);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload != "geo_dense" && o.workload != "grid_sparse" &&
      o.workload != "campaign_churn") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds >= 0)) usage("bad --seconds");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  std::string campaign_text;
  if (o.workload == "campaign_churn") {
    std::ifstream in(o.campaign_path);
    if (!in) usage("cannot read campaign file '" + o.campaign_path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    campaign_text = text.str();
  }

  std::ostringstream reps;
  reps.precision(9);
  int count = 0;
  std::optional<graph::DualGraph> kept;
  const auto rep = [&](bool traced, bool keep_graph) {
    reps << (count++ ? "," : "");
    if (o.workload == "campaign_churn") {
      run_campaign_rep(o, campaign_text, traced, reps);
    } else {
      run_single_rep(o, traced, keep_graph, kept, reps);
    }
  };
  const auto start = Clock::now();
  if (o.trace) {
    rep(false, false);
    rep(true, false);
  } else {
    // Two repetitions set up from scratch; the rest re-run on the second
    // one's graph.
    rep(false, false);
    rep(false, true);
    while (count < kMinReps ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               o.seconds) {
      rep(false, false);
    }
  }

#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  std::cout.precision(9);
  std::cout << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
            << ",\"smoke\":" << (o.smoke ? "true" : "false")
            << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"compiler\":\"" << PERFBENCH_COMPILER
            << "\",\"optimized\":" << (kOptimized ? "true" : "false")
            << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"reps\":["
            << reps.str() << "]}\n";
  return 0;
}
