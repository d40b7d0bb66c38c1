// Textual fault specs: one parser serves every surface that accepts a
// fault schedule (dglab --faults, scenario files' "faults" key, campaign
// matrix sweeps), mirroring traffic/spec so the grammar and the error
// messages cannot drift apart.
//
// Grammar (':'-separated, trailing numbers may be omitted for defaults):
//   crash:round:vertex[:repair]     scripted single fault: `vertex` crashes
//                                   at `round`, recovers `repair` rounds
//                                   later (0 = never; default 0)
//   poisson:rate[:mean_repair]      memoryless churn: `rate` expected
//                                   crashes/round network-wide, exponential
//                                   repair with the given mean (defaults
//                                   0.02:64)
//   region:round:center:radius[:repair]
//                                   correlated kill: the `radius`-hop
//                                   G-ball around `center` crashes at
//                                   `round`, recovers together after
//                                   `repair` rounds (0 = never; default 0)
//   adversary:k[:period[:repair]]   targeted churn: every `period` rounds
//                                   crash the k highest-progress up
//                                   vertices, each back after `repair`
//                                   rounds (defaults k:64:64)
// Richer scripts (many events) stay API-only: fault::ScriptFaultPlan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/plan.h"

namespace dg::fault {

struct FaultSpec {
  enum class Kind { kCrash, kPoisson, kRegion, kAdversary };
  Kind kind = Kind::kPoisson;
  std::int64_t round = 1;       ///< crash / region kill round
  std::size_t vertex = 0;       ///< crash vertex / region center
  double rate = 0.02;           ///< poisson expected crashes per round
  double mean_repair = 64.0;    ///< poisson mean repair time (rounds)
  int radius = 1;               ///< region G-hop radius
  std::int64_t repair = 0;      ///< crash/region/adversary repair rounds
  int k = 1;                    ///< adversary crash budget per period
  std::int64_t period = 64;     ///< adversary attack period (rounds)
};

/// The one-line list of valid specs, embedded in every rejection message.
std::string valid_fault_specs();

/// Parses and range-checks a spec.  Returns the empty string and fills
/// `out` on success, else a human-readable error naming the offending
/// token and listing the valid specs.  Vertex bounds (vertex < n) are the
/// caller's check: the node count is not known here.
std::string parse_fault_spec(const std::string& spec, FaultSpec& out);

/// Builds the plan for a validated spec.  The plan is unbound; the engine
/// binds it (graph + master seed) in Engine::configure.
std::unique_ptr<FaultPlan> build_fault_plan(const FaultSpec& spec);

}  // namespace dg::fault
