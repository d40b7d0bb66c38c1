// obs::PhaseProfiler -- per-round wall-clock stage timing for the engine.
//
// The engine owns one profiler per installed telemetry registry and
// registers one timing slot per pipeline stage (register_stage), in
// pipeline order, so spliced stages get per-stage timers automatically;
// the engine times each group of stages as a whole and splits its wall
// clock between the stages' slots by their measured shares
// (add_phase_ns).
// end_round() folds the measured nanoseconds into TIMING-domain registry
// counters/histograms and emits one round slice (with nested stage
// slices) into the trace sink.  Everything here is wall clock, so nothing
// it writes lands in the logical (CI-gated) domain.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace dg::obs {

class PhaseProfiler {
 public:
  /// Registers the stage-independent timing metrics in `registry` (which
  /// must outlive the profiler): the engine.round.us histogram and the
  /// engine.round.ns / engine.pool.parallel.ns counters.
  explicit PhaseProfiler(Registry& registry);

  /// Registers "engine.phase.<name>.ns" and returns the slot index to
  /// bracket with.  Counter slots in the registry are keyed by name, so
  /// re-registering after a profiler rebuild keeps accumulating into the
  /// same counters.
  std::size_t register_stage(const std::string& name);

  std::size_t stage_count() const noexcept { return names_.size(); }
  const std::vector<std::string>& stage_names() const noexcept {
    return names_;
  }

  void begin_round(std::int64_t round);
  /// Adds `ns` to the slot's current round: a stage's share of the group
  /// it ran in.
  void add_phase_ns(std::size_t slot, std::uint64_t ns);
  /// Nanoseconds spent inside thread-pool dispatches this round (the
  /// utilization numerator; the round total is the denominator).
  void add_parallel_ns(std::uint64_t ns);
  /// Accumulates the round into the registry and, when `sink` is non-null,
  /// emits the round's stage slices.
  void end_round(TraceSink* sink);

  /// Last finished round's per-slot nanoseconds (tests).
  const std::vector<std::uint64_t>& last_round_ns() const noexcept {
    return last_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Registry* registry_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t*> phase_ns_;
  std::uint64_t* round_ns_ = nullptr;
  std::uint64_t* parallel_ns_ = nullptr;
  Registry::Histogram* round_us_ = nullptr;

  std::int64_t round_ = 0;
  Clock::time_point round_start_{};
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> last_;
  std::uint64_t current_parallel_ns_ = 0;
};

}  // namespace dg::obs
