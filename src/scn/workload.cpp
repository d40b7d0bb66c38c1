#include "scn/workload.h"

#include <algorithm>
#include <memory>

#include "baseline/decay.h"
#include "fault/spec.h"
#include "lb/measure.h"
#include "lb/simulation.h"
#include "phys/extract.h"
#include "phys/sinr.h"
#include "seed/seed_alg.h"
#include "seed/spec.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/splice.h"
#include "stats/probes.h"
#include "traffic/spec.h"
#include "util/assert.h"

namespace dg::scn {

namespace {

std::vector<graph::Vertex> resolve_senders(const AlgorithmSpec& a,
                                           std::size_t n) {
  if (!a.senders_all_but_receiver) return a.senders;
  std::vector<graph::Vertex> out;
  out.reserve(n - 1);
  for (graph::Vertex v = 0; v < static_cast<graph::Vertex>(n); ++v) {
    if (static_cast<std::int64_t>(v) != a.receiver) out.push_back(v);
  }
  return out;
}

graph::Vertex resolve_receiver(const AlgorithmSpec& a,
                               const graph::DualGraph& g,
                               const std::vector<graph::Vertex>& senders) {
  if (a.receiver >= 0) return static_cast<graph::Vertex>(a.receiver);
  // -1: the first G-neighbor of the first sender (fallback: vertex 1) --
  // the E13 convention for measuring progress one reliable hop out.
  const graph::Vertex sender = senders.empty() ? 0 : senders.front();
  const auto neighbors = g.g_neighbors(sender);
  return neighbors.empty() ? 1 : neighbors.front();
}

// ---- lb_progress (the E3/E6 trial body) ----

std::vector<double> run_lb_progress(const ScenarioSpec& spec,
                                    std::uint64_t seed,
                                    obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto params = lb_params_for(spec.algorithm, g);
  const auto senders = resolve_senders(spec.algorithm, g.size());
  const auto receiver = resolve_receiver(spec.algorithm, g, senders);
  sim::Round latency = 0;
  const sim::EngineConfig config = engine_config_for(spec, registry);
  if (spec.channel_spec.is_sinr) {
    latency = lb::progress_latency(
        g, std::make_unique<phys::SinrChannel>(spec.channel_spec.sinr),
        params, senders, receiver, spec.algorithm.horizon_phases, seed,
        config);
  } else {
    latency = lb::progress_latency(g, build_scheduler(spec.scheduler),
                                   params, senders, receiver,
                                   spec.algorithm.horizon_phases, seed,
                                   config);
  }
  return {static_cast<double>(latency),
          static_cast<double>(params.phase_length())};
}

// ---- decay_progress (the E6 Decay trial body) ----

std::vector<double> run_decay_progress(const ScenarioSpec& spec,
                                       std::uint64_t seed,
                                       obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto ids = sim::assign_ids(g.size(), seed);
  baseline::DecayParams params;
  params.log_delta = spec.algorithm.log_delta;
  params.ack_rounds = spec.algorithm.ack_rounds;
  auto sched = build_scheduler(spec.scheduler);
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    procs.push_back(
        std::make_unique<baseline::DecayProcess>(params, ids[v], v, nullptr));
  }
  sim::Engine engine(g, *sched, std::move(procs), seed);
  engine.configure(engine_config_for(spec, registry));
  stats::FirstReceptionProbe probe(g.size());
  engine.add_observer(&probe);
  const auto receiver =
      static_cast<graph::Vertex>(std::max<std::int64_t>(
          0, spec.algorithm.receiver));
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    if (v == receiver) continue;
    dynamic_cast<baseline::DecayProcess&>(engine.process(v)).post_bcast(v);
  }
  engine.run_rounds(spec.algorithm.horizon_rounds);
  return {static_cast<double>(probe.first_reception(receiver)),
          static_cast<double>(spec.algorithm.horizon_rounds)};
}

// ---- seed_agreement (one SeedAlg execution + spec check) ----

std::vector<double> run_seed_agreement(const ScenarioSpec& spec,
                                       std::uint64_t seed,
                                       obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto res = run_seed_check(spec, g, seed, registry);
  return {res.well_formed ? 1.0 : 0.0,
          res.consistent ? 1.0 : 0.0,
          res.owners_local ? 1.0 : 0.0,
          static_cast<double>(res.distinct_owners),
          static_cast<double>(res.max_neighborhood_owners)};
}

// ---- seed_then_progress (the E13 trial body: SeedAlg safety + LBAlg
// progress on one geometric deployment, shared trial seed) ----

std::vector<double> run_seed_then_progress(const ScenarioSpec& spec,
                                           std::uint64_t seed,
                                           obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto res = run_seed_check(spec, g, seed, registry);
  const auto params = lb_params_for(spec.algorithm, g);
  const auto senders = resolve_senders(spec.algorithm, g.size());
  const auto receiver = resolve_receiver(spec.algorithm, g, senders);
  const auto latency = lb::progress_latency(
      g, build_scheduler(spec.scheduler), params, senders, receiver,
      spec.algorithm.horizon_phases, derive_seed(seed, 4),
      engine_config_for(spec, registry));
  return {static_cast<double>(latency),
          static_cast<double>(res.max_neighborhood_owners),
          res.consistent ? 1.0 : 0.0};
}

// ---- abstraction_fidelity (the E14 trial body: dual-graph abstraction
// vs SINR ground truth over one sampled deployment) ----

std::vector<double> run_abstraction_fidelity(const ScenarioSpec& spec,
                                             std::uint64_t seed,
                                             obs::Registry* registry) {
  Rng rng(seed);
  geo::Embedding emb;
  emb.reserve(spec.topology.n);
  for (std::size_t i = 0; i < spec.topology.n; ++i) {
    emb.push_back(geo::Point{rng.uniform(0.0, spec.topology.side),
                             rng.uniform(0.0, spec.topology.side)});
  }
  phys::SinrExtractParams xp;
  xp.sinr = spec.channel_spec.sinr;
  const auto ext = phys::extract_dual_graph(emb, xp, derive_seed(seed, 1));

  const auto senders = resolve_senders(spec.algorithm, ext.graph.size());
  const graph::Vertex sender = senders.empty() ? 0 : senders.front();
  const auto params = lb_params_for(spec.algorithm, ext.graph);
  const std::uint64_t master = derive_seed(seed, 2);

  lb::FloodStats dual;
  {
    lb::LbSimulation sim(ext.graph, build_scheduler(spec.scheduler), params,
                         master);
    sim.configure(engine_config_for(spec, registry));
    dual = lb::run_flood(sim, sender, spec.algorithm.horizon_phases);
    sim.export_telemetry();
  }
  lb::FloodStats sinr;
  {
    // Same processes and parameters, but reception is SINR physics over
    // the RAW deployment coordinates (the extracted graph's embedding is
    // rescaled; the physics must see the real geometry).
    lb::LbSimulation sim(
        ext.graph, std::make_unique<phys::SinrChannel>(xp.sinr, emb), params,
        master);
    sim.configure(engine_config_for(spec, registry));
    sinr = lb::run_flood(sim, sender, spec.algorithm.horizon_phases);
    sim.export_telemetry();
  }
  return {dual.progress_rounds,
          dual.reached_frac,
          dual.receptions,
          dual.ack_latency,
          dual.acked,
          sinr.progress_rounds,
          sinr.reached_frac,
          sinr.receptions,
          sinr.ack_latency,
          sinr.acked,
          static_cast<double>(ext.stats.reliable_edges),
          static_cast<double>(ext.stats.unreliable_edges)};
}

// ---- traffic_latency (the E15 trial body: an open-loop TrafficSource
// over the admission queues, measuring offered vs delivered throughput
// and enqueue->ack / enqueue->first-recv latency) ----

std::vector<double> run_traffic_latency(const ScenarioSpec& spec,
                                        std::uint64_t seed,
                                        obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto params = lb_params_for(spec.algorithm, g);
  const auto sim = make_lb_simulation(spec, g, params, seed);
  sim->configure(engine_config_for(spec, registry));
  sim->traffic().set_queue_capacity(
      static_cast<std::size_t>(spec.algorithm.queue_cap));
  // Stream 5: the source's private coins (0x1d5/ids and the engine streams
  // hang off the master seed; 1..4 are taken by the other workloads).
  sim->add_traffic(
      traffic::build_source(spec.traffic_spec, g.size(), derive_seed(seed, 5)));
  sim->run_phases(spec.algorithm.horizon_phases);
  sim->export_telemetry();

  const traffic::TrafficStats& ts = sim->traffic().stats();
  const double rounds = static_cast<double>(sim->round());
  return {static_cast<double>(ts.offered),
          static_cast<double>(ts.admitted),
          static_cast<double>(ts.dropped),
          static_cast<double>(ts.acked),
          static_cast<double>(ts.aborted),
          ts.mean_wait(),
          ts.mean_ack_latency(),
          ts.mean_recv_latency(),
          ts.mean_backlog(),
          static_cast<double>(ts.depth_max),
          rounds != 0 ? static_cast<double>(ts.offered) / rounds : 0.0,
          rounds != 0 ? static_cast<double>(ts.acked) / rounds : 0.0,
          static_cast<double>(ts.first_recvs)};
}

// ---- lb_churn (the E16 trial body: open-loop traffic under a
// crash/recover schedule, measuring graceful degradation -- fault-window
// progress violations, re-stabilization time, throughput dip -- next to
// the clean-window spec tallies) ----

std::vector<double> run_lb_churn(const ScenarioSpec& spec,
                                 std::uint64_t seed,
                                 obs::Registry* registry) {
  Rng rng(seed);
  const auto g = build_topology(spec.topology, rng);
  const auto params = lb_params_for(spec.algorithm, g);
  const auto sim = make_lb_simulation(spec, g, params, seed);
  const auto plan = fault::build_fault_plan(spec.fault_spec);
  sim->configure(engine_config_for(spec, registry).with_fault_plan(plan.get()));
  sim->traffic().set_queue_capacity(
      static_cast<std::size_t>(spec.algorithm.queue_cap));
  // Same stream layout as traffic_latency (stream 5 = source coins); the
  // fault plan draws from the engine master seed under fault::kFaultStream,
  // so the churn axis perturbs no traffic or protocol randomness.
  sim->add_traffic(
      traffic::build_source(spec.traffic_spec, g.size(), derive_seed(seed, 5)));
  sim->run_phases(spec.algorithm.horizon_phases);
  sim->export_telemetry();

  const traffic::TrafficStats& ts = sim->traffic().stats();
  const lb::LbSpecReport& rep = sim->report();
  const lb::DegradationLedger& led = sim->ledger();
  const double rounds = static_cast<double>(sim->round());
  const double fault_round_frac =
      led.rounds_observed != 0
          ? static_cast<double>(led.fault_rounds) /
                static_cast<double>(led.rounds_observed)
          : 0.0;
  return {static_cast<double>(ts.offered),
          static_cast<double>(ts.admitted),
          static_cast<double>(ts.acked),
          static_cast<double>(ts.aborted),
          static_cast<double>(ts.dropped),
          static_cast<double>(ts.crash_requeues),
          static_cast<double>(ts.readmitted),
          static_cast<double>(led.crashes),
          static_cast<double>(led.recoveries),
          rep.progress.frequency(),
          static_cast<double>(rep.progress.trials()),
          led.progress_violation_rate(),
          static_cast<double>(led.faulty_progress.trials()),
          led.mean_restabilization_rounds(),
          fault_round_frac,
          led.fault_window_ack_rate(),
          rounds != 0 ? static_cast<double>(ts.acked) / rounds : 0.0};
}

}  // namespace

lb::LbParams lb_params_for(const AlgorithmSpec& a,
                           const graph::DualGraph& g) {
  lb::LbScales scales;
  scales.ack_scale = a.ack_scale;
  const double r = a.r > 0 ? a.r : std::max(1.0, g.r());
  auto params = lb::LbParams::calibrated(a.eps1, r, g.delta(),
                                         g.delta_prime(), scales);
  params.phases_per_seed = static_cast<int>(a.phases_per_seed);
  params.use_shared_seeds = a.shared_seeds;
  return params;
}

sim::EngineConfig engine_config_for(const ScenarioSpec& spec,
                                    obs::Registry* registry) {
  sim::EngineConfig config;
  if (spec.round_threads != 0) config.with_round_threads(spec.round_threads);
  if (registry != nullptr) config.with_telemetry(registry);
  for (const std::string& text : spec.stages) {
    sim::SpliceSpec splice;
    std::string err;
    const bool ok = sim::parse_splice_spec(text, splice, err);
    DG_EXPECTS(ok);
    config.with_splice(std::move(splice));
  }
  return config;
}

std::unique_ptr<lb::LbSimulation> make_lb_simulation(
    const ScenarioSpec& spec, const graph::DualGraph& g,
    const lb::LbParams& params, std::uint64_t seed) {
  if (spec.channel_spec.is_sinr) {
    return std::make_unique<lb::LbSimulation>(
        g, std::make_unique<phys::SinrChannel>(spec.channel_spec.sinr),
        params, seed);
  }
  return std::make_unique<lb::LbSimulation>(
      g, build_scheduler(spec.scheduler), params, seed);
}

seed::SeedSpecResult run_seed_check(const ScenarioSpec& spec,
                                    const graph::DualGraph& g,
                                    std::uint64_t seed,
                                    obs::Registry* registry,
                                    std::string* channel_name) {
  const auto sparams =
      seed::SeedAlgParams::make(spec.algorithm.seed_eps, g.delta());
  const auto ids = sim::assign_ids(g.size(), derive_seed(seed, 1));
  std::vector<std::unique_ptr<sim::Process>> procs;
  Rng init(derive_seed(seed, 2));
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    procs.push_back(
        std::make_unique<seed::SeedProcess>(sparams, ids[v], init));
  }
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<sim::LinkScheduler> sched;
  std::unique_ptr<phys::ChannelModel> channel;
  if (spec.channel_spec.is_sinr) {
    channel = std::make_unique<phys::SinrChannel>(spec.channel_spec.sinr);
    engine = std::make_unique<sim::Engine>(g, *channel, std::move(procs),
                                           derive_seed(seed, 3));
  } else {
    sched = build_scheduler(spec.scheduler);
    engine = std::make_unique<sim::Engine>(g, *sched, std::move(procs),
                                           derive_seed(seed, 3));
  }
  if (channel_name != nullptr) *channel_name = engine->channel().name();
  engine->configure(engine_config_for(spec, registry));
  engine->run_rounds(sparams.total_rounds());
  seed::DecisionVector decisions(g.size());
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    decisions[v] =
        dynamic_cast<const seed::SeedProcess&>(engine->process(v)).decision();
  }
  return seed::check_seed_spec(g, ids, decisions);
}

std::vector<std::string> metric_names(const ScenarioSpec& spec) {
  const std::string& t = spec.algorithm.type;
  if (t == "lb_progress") return {"latency", "phase_len"};
  if (t == "decay_progress") return {"latency", "horizon"};
  if (t == "seed_agreement") {
    return {"well_formed", "consistent", "owners_local", "distinct_owners",
            "max_owners"};
  }
  if (t == "seed_then_progress") {
    return {"latency", "max_owners", "consistent"};
  }
  if (t == "traffic_latency") {
    // first_recvs is the event count behind recv_latency's mean, so
    // consumers can re-pool latencies across trials without skew.
    // backlog_mean is the NETWORK-WIDE queued total per round;
    // qdepth_max is the worst single-node queue.
    return {"offered", "admitted", "dropped", "acked", "aborted",
            "wait_mean", "ack_latency", "recv_latency", "backlog_mean",
            "qdepth_max", "offered_rate", "delivered_rate", "first_recvs"};
  }
  if (t == "lb_churn") {
    // Clean-window spec tallies (clean_*) sit next to the degradation
    // ledger (faulty_*, restab, fault_*): the paper's bounds are asserted
    // only over fault-free windows, the rest is measured degradation.
    // *_trials are the event counts behind the neighboring rates, so
    // consumers can re-pool across trials without skew.
    return {"offered", "admitted", "acked", "aborted", "dropped",
            "crash_requeues", "readmitted", "crashes", "recoveries",
            "clean_progress_rate", "clean_progress_trials",
            "faulty_violation_rate", "faulty_progress_trials",
            "restab_mean", "fault_round_frac", "fault_ack_rate",
            "ack_rate"};
  }
  DG_EXPECTS(t == "abstraction_fidelity");
  return {"dual_progress", "dual_reached", "dual_receptions",
          "dual_ack_latency", "dual_acked", "sinr_progress", "sinr_reached",
          "sinr_receptions", "sinr_ack_latency", "sinr_acked",
          "reliable_edges", "unreliable_edges"};
}

std::vector<double> run_trial(const ScenarioSpec& spec,
                              std::uint64_t trial_seed,
                              obs::Registry* registry) {
  const std::string& t = spec.algorithm.type;
  if (t == "lb_progress") return run_lb_progress(spec, trial_seed, registry);
  if (t == "decay_progress") {
    return run_decay_progress(spec, trial_seed, registry);
  }
  if (t == "seed_agreement") {
    return run_seed_agreement(spec, trial_seed, registry);
  }
  if (t == "seed_then_progress") {
    return run_seed_then_progress(spec, trial_seed, registry);
  }
  if (t == "traffic_latency") {
    return run_traffic_latency(spec, trial_seed, registry);
  }
  if (t == "lb_churn") return run_lb_churn(spec, trial_seed, registry);
  DG_EXPECTS(t == "abstraction_fidelity");
  return run_abstraction_fidelity(spec, trial_seed, registry);
}

}  // namespace dg::scn
