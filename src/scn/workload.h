// Workload execution for scenario variants: one trial = one seeded
// execution of the variant's algorithm stack, returning a fixed row of
// seed-deterministic metrics.
//
// Metric rows are pure functions of (spec, trial_seed) -- no wall-clock,
// no thread identity -- which is what makes campaign counter files
// byte-identical across --threads settings and machines.  Each workload
// reproduces the trial body of the hand-written bench it subsumed
// (bench_e3/e6/e13/e14), including the exact derive_seed() stream layout,
// so ported campaigns regenerate the pre-port numbers from the same seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/params.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "scn/scenario.h"
#include "seed/spec.h"
#include "sim/engine_config.h"

namespace dg::scn {

/// Metric names (column order of trial rows) for the variant's workload:
///   lb_progress:          latency, phase_len
///   decay_progress:       latency, horizon
///   seed_agreement:       well_formed, consistent, owners_local,
///                         distinct_owners, max_owners
///   seed_then_progress:   latency, max_owners, consistent
///   traffic_latency:      offered, admitted, dropped, acked, aborted,
///                         wait_mean, ack_latency, recv_latency,
///                         backlog_mean, qdepth_max, offered_rate,
///                         delivered_rate, first_recvs
///   abstraction_fidelity: dual_progress, dual_reached, dual_receptions,
///                         dual_ack_latency, dual_acked, sinr_progress,
///                         sinr_reached, sinr_receptions, sinr_ack_latency,
///                         sinr_acked, reliable_edges, unreliable_edges
///   lb_churn:             offered, admitted, acked, aborted, dropped,
///                         crash_requeues, readmitted, crashes, recoveries,
///                         clean_progress_rate, clean_progress_trials,
///                         faulty_violation_rate, faulty_progress_trials,
///                         restab_mean, fault_round_frac, fault_ack_rate,
///                         ack_rate
std::vector<std::string> metric_names(const ScenarioSpec& spec);

/// Runs one trial of the variant's workload with the given per-trial seed
/// (stats::run_trials derives it as derive_seed(spec.seed, trial_index)).
/// Returns one value per metric_names() entry.  When `registry` is
/// non-null the trial's simulations record obs telemetry into it; the
/// registry's logical domain is a pure function of (spec, trial_seed),
/// byte-identical at every round_threads value.  The registry must be
/// exclusive to this trial -- merge per-trial registries afterwards (in
/// trial order) for a deterministic aggregate.
std::vector<double> run_trial(const ScenarioSpec& spec,
                              std::uint64_t trial_seed,
                              obs::Registry* registry = nullptr);

// ---- the builders the workloads share with dglab ----

/// LBAlg parameters calibrated on `g`; algorithm.r = 0 means
/// max(1.0, g.r()).  Carries phases_per_seed and shared_seeds over.
lb::LbParams lb_params_for(const AlgorithmSpec& a, const graph::DualGraph& g);

/// The variant's EngineConfig: thread cap, telemetry into `registry` when
/// non-null, and its spliced stages.  The stage specs must have passed
/// validate_scenario(), so a parse failure here is a programming error.
sim::EngineConfig engine_config_for(const ScenarioSpec& spec,
                                    obs::Registry* registry);

/// The variant's LB simulation over `g`: SINR reception when its channel
/// is sinr, the dual-graph channel under its scheduler otherwise.  The one
/// place that picks between LbSimulation's channel and scheduler
/// constructors.  The caller applies engine_config_for().
std::unique_ptr<lb::LbSimulation> make_lb_simulation(
    const ScenarioSpec& spec, const graph::DualGraph& g,
    const lb::LbParams& params, std::uint64_t seed);

/// One SeedAlg execution on `g` (ids, process coins and engine on streams
/// 1, 2 and 3 of `seed`) checked against the seed spec.  When
/// `channel_name` is non-null it receives the engine's channel name.
seed::SeedSpecResult run_seed_check(const ScenarioSpec& spec,
                                    const graph::DualGraph& g,
                                    std::uint64_t seed,
                                    obs::Registry* registry,
                                    std::string* channel_name = nullptr);

}  // namespace dg::scn
