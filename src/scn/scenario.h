// Declarative scenario descriptions (the src/scn/ subsystem).
//
// A *campaign file* is a JSON document naming scenarios; each scenario
// names a topology generator, an oblivious link scheduler, a channel model
// (dual_graph or sinr:alpha,beta,noise), an optional traffic model
// (saturate/poisson/burst/hotspot -- the environment automaton, consumed
// by the traffic_latency and lb_churn workloads), an optional fault
// schedule (crash/poisson/region/adversary -- crash/recover churn,
// consumed by the lb_churn workload), an algorithm workload (LBAlg
// progress, Decay baseline, SeedAlg agreement, the combined r-sensitivity
// workload, the SINR abstraction-fidelity comparison, the open-loop
// traffic_latency queueing workload, or the lb_churn graceful-degradation
// workload), a trial count and a base seed.  An
// optional "matrix" block sweeps axes whose
// cross-product expands into concrete scenario *variants* -- the topology
// x scheduler x channel x algorithm x adversary cross-product as data
// instead of bespoke bench binaries.
//
//   {
//     "campaign": "smoke",
//     "scenarios": [
//       {
//         "name": "e3_progress",
//         "topology": {"type": "clique", "k": 4},
//         "scheduler": "bernoulli:0.5",
//         "channel": "dual_graph",
//         "algorithm": {"type": "lb_progress", "eps1": 0.1, "r": 1.5,
//                       "ack_scale": 0.02, "senders": [1], "receiver": 0,
//                       "horizon_phases": 12},
//         "trials": 30,
//         "seed": 227,
//         "matrix": {
//           "delta": [
//             {"tag": "4",  "seed_offset": 4,  "set": {"topology.k": 4}},
//             {"tag": "8",  "seed_offset": 8,  "set": {"topology.k": 8}}
//           ]
//         }
//       }
//     ]
//   }
//
// Matrix semantics: axes cross-multiply in declaration order; each axis
// entry carries a display tag, a seed offset (offsets from all axes ADD to
// the scenario's base seed, so sweep points draw decorrelated trial
// streams -- exactly the `0xe3 + clique` convention of the hand-written
// benches), and a "set" patch of dotted-path assignments applied to the
// scenario object before validation.  Variant names are
// "<scenario>/<tag>/<tag>...".
//
// Validation is strict: unknown keys anywhere, malformed scheduler or
// channel specs, empty sweep axes, duplicate scenario/variant names, and
// workload/topology mismatches are all errors carrying the file position
// and the JSON path of the offending token.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "graph/dual_graph.h"
#include "phys/channel_spec.h"
#include "sim/scheduler.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace dg::scn {

struct TopologySpec {
  /// geometric | grid | clique | star | line | bridged | contention_star
  /// | disjoint_cliques | deployment
  std::string type = "geometric";
  std::size_t n = 64;        ///< geometric / deployment node count
  double side = 4.0;         ///< geometric / deployment square side
  double r = 1.5;            ///< geographic parameter (embedded families)
  std::size_t cols = 6;      ///< grid
  std::size_t rows = 4;      ///< grid
  double spacing = 1.0;      ///< grid / line
  std::size_t k = 16;        ///< clique size / star leaves / line length /
                             ///< contention-star unreliable neighbors /
                             ///< bridged per-cluster size / clique size of
                             ///< disjoint_cliques
  std::size_t cliques = 2;   ///< disjoint_cliques clique count
  double p_grey_reliable = 0.1;    ///< geometric grey-zone class probs
  double p_grey_unreliable = 0.6;
};

struct AlgorithmSpec {
  /// lb_progress | decay_progress | seed_agreement | seed_then_progress
  /// | abstraction_fidelity | traffic_latency | lb_churn
  std::string type = "lb_progress";

  // LBAlg knobs (lb_progress, seed_then_progress, abstraction_fidelity).
  double eps1 = 0.1;
  double r = 0;              ///< 0 = auto: max(1.0, graph r)
  double ack_scale = 0.02;
  std::vector<graph::Vertex> senders{0};
  bool senders_all_but_receiver = false;  ///< "senders": "all_but_receiver"
  std::int64_t receiver = 0;              ///< -1 = first G-neighbor of
                                          ///< senders[0] (fallback vertex 1)
  std::int64_t horizon_phases = 12;
  /// Phases run per SeedAlg execution (the Section 4.2 seed-reuse remark;
  /// lb::LbParams::phases_per_seed), in [1, INT_MAX].
  std::int64_t phases_per_seed = 1;
  /// false = the ablation: body rounds draw from private coins instead of
  /// the agreed seeds (lb::LbParams::use_shared_seeds).
  bool shared_seeds = true;

  // Decay baseline knobs (decay_progress).
  int log_delta = 7;
  std::int64_t horizon_rounds = 4096;
  std::int64_t ack_rounds = 1 << 20;

  // SeedAlg knobs (seed_agreement, seed_then_progress).
  double seed_eps = 0.1;

  // Traffic knobs (traffic_latency): per-node admission queue bound
  // (0 = unbounded; offers beyond it are dropped and counted).
  std::int64_t queue_cap = 0;
};

/// One concrete (post-expansion) scenario variant.
struct ScenarioSpec {
  std::string name;  ///< variant-qualified: "e3_progress/8"
  TopologySpec topology;
  std::string scheduler = "bernoulli:0.5";
  std::string channel = "dual_graph";
  phys::ChannelSpec channel_spec;  ///< parsed form of `channel`
  /// Traffic model (the environment automaton), e.g. "poisson:0.3"; only
  /// the traffic_latency and lb_churn workloads consume it.  Empty = none.
  std::string traffic;
  traffic::TrafficSpec traffic_spec;  ///< parsed form of `traffic`
  /// Fault schedule (crash/recover churn, see fault/spec.h), e.g.
  /// "poisson:0.05:128"; only the lb_churn workload consumes it.  Empty =
  /// none.  Sweepable through the matrix like every other axis.
  std::string faults;
  fault::FaultSpec fault_spec;  ///< parsed form of `faults`
  AlgorithmSpec algorithm;
  std::size_t trials = 1;
  std::uint64_t seed = 1;  ///< base + matrix seed offsets
  /// Engine thread cap for the deterministic sharded round loop (results
  /// are byte-identical at every value).  0 = leave the engine default
  /// (the DG_ROUND_THREADS environment knob); >= 1 pins it for the
  /// variant's trials.
  std::size_t round_threads = 0;
  /// Collect obs telemetry for this variant: each trial fills a per-trial
  /// obs::Registry, merged in trial order into a per-variant registry the
  /// campaign writes as METRICS_<variant>.json.  The logical domain of
  /// that dump is byte-identical at every round_threads value.
  bool obs = false;
  /// Extra stages spliced into the round pipeline, in order (see
  /// sim/splice.h for the grammar: noop | dedup[:window[:slab]] |
  /// tap:slab[:v1,v2,...]).  Parsed and conflict-validated at load time;
  /// applied to every trial simulation of the variant.
  std::vector<std::string> stages;
};

struct Campaign {
  std::string name;
  std::vector<ScenarioSpec> variants;  ///< fully expanded, in file order
};

struct CampaignParse {
  Campaign campaign;
  std::string error;  ///< empty = ok; else "file:line:col: path: message"
  bool ok() const noexcept { return error.empty(); }
};

/// Parses + validates + expands a campaign document.  `filename` is used
/// only to prefix error messages.
CampaignParse parse_campaign_text(const std::string& text,
                                  const std::string& filename);

/// Reads the file and delegates to parse_campaign_text.
CampaignParse parse_campaign_file(const std::string& path);

/// A validate_scenario() failure.  `field` is the failing field's path
/// relative to the scenario ("topology", "algorithm", "scheduler",
/// "channel", "traffic", "faults", "stages[i]", "stages"), or empty for a
/// cross-field rule.  An empty `message` means the spec is valid.
struct ScenarioError {
  std::string field;
  std::string message;
  bool ok() const noexcept { return message.empty(); }
};

/// The one validator for a concrete scenario, shared by the campaign
/// parser and dglab: topology and algorithm ranges; the scheduler,
/// channel, traffic, fault and stage specs (filling channel_spec,
/// traffic_spec and fault_spec); the channel/topology/deployment
/// compatibility rules; and the vertex bounds.  A spec that passes builds
/// its topology, scheduler, channel, traffic source, fault plan and stages
/// without tripping a library precondition.  Which workload may carry
/// traffic, faults or queue_cap is a campaign rule, checked by
/// parse_campaign_text.
ScenarioError validate_scenario(ScenarioSpec& spec);

/// Validates a scheduler spec: bernoulli:p | full-g | full-gprime |
/// flicker:period:duty | burst:epoch,p | anti[:log_delta[:pivot]].
/// Returns "" or a message naming the offending token.
std::string validate_scheduler_spec(const std::string& spec);

/// Builds the (committed-later) scheduler for a validated spec.
/// Contract-checks that the spec is valid.
std::unique_ptr<sim::LinkScheduler> build_scheduler(const std::string& spec);

/// Builds the variant's topology.  `rng` is the trial's master stream and
/// is consumed only by the randomized families (geometric), mirroring the
/// hand-written benches.  Deployment scenarios have no DualGraph; their
/// workload samples the embedding itself (see workload.cpp).
graph::DualGraph build_topology(const TopologySpec& spec, Rng& rng);

}  // namespace dg::scn
