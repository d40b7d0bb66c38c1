// sim::EngineConfig -- the one configuration surface of the round engine.
//
// The config object names every knob once, applies in a fixed order
// (threads, fault plan, splices, telemetry -- so spliced stages exist
// before the profiler registers per-stage timers), and flows unchanged
// through LbSimulation::configure() to the engine.  Each piece applies
// only if set, so configs compose: a default EngineConfig is a no-op.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/splice.h"

namespace dg::fault {
class FaultPlan;
class FaultListener;
}  // namespace dg::fault

namespace dg::obs {
class Registry;
class TraceSink;
}  // namespace dg::obs

namespace dg::sim {

struct EngineConfig {
  /// 0 = leave the engine's current thread cap untouched.
  std::size_t round_threads = 0;

  /// Fault plan to install (nullptr clears) -- only applied when
  /// has_fault_plan is set, so a default config never clears an
  /// already-installed plan.
  bool has_fault_plan = false;
  fault::FaultPlan* fault_plan = nullptr;
  fault::FaultListener* fault_listener = nullptr;

  /// Telemetry to install (nullptrs clear) -- same has_* convention.
  bool has_telemetry = false;
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace_sink = nullptr;

  /// Extra stages spliced into the round pipeline, in installation order.
  /// Must have passed validate_splice_specs().
  std::vector<SpliceSpec> splices;

  EngineConfig& with_round_threads(std::size_t threads) {
    round_threads = threads;
    return *this;
  }
  EngineConfig& with_fault_plan(fault::FaultPlan* plan,
                                fault::FaultListener* listener = nullptr) {
    has_fault_plan = true;
    fault_plan = plan;
    fault_listener = listener;
    return *this;
  }
  EngineConfig& with_telemetry(obs::Registry* reg,
                               obs::TraceSink* sink = nullptr) {
    has_telemetry = true;
    registry = reg;
    trace_sink = sink;
    return *this;
  }
  EngineConfig& with_splice(SpliceSpec spec) {
    splices.push_back(std::move(spec));
    return *this;
  }
};

}  // namespace dg::sim
