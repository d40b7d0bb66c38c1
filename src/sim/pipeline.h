// RoundPipeline -- the ordered stage graph one engine executes per round.
//
// The pipeline is a flat slot list: core stages (owned by the engine,
// appended at construction) interleaved with spliced stages (owned here,
// inserted after their anchor stage).  The driver in Engine::run_pipeline
// walks the slots in order; each slot carries its profiler slot index
// (assigned in pipeline order whenever telemetry is (re)installed) and
// whether the on_round_begin observer fan-out fires before it -- the seam
// that keeps the fault stage *before* round-begin observers, exactly where
// apply_faults() ran in the monolithic loop.
//
// The slots are also partitioned into groups, rebuilt whenever a stage is
// appended or spliced (never per round): each maximal run of consecutive
// stages that declare vertex_disjoint_writes() is one group, which the
// driver runs as one block pass, and every other stage is a group of its
// own.  A slot carrying the round-begin seam always starts a group.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/stage.h"

namespace dg::sim {

class RoundPipeline {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  struct Slot {
    RoundStage* stage = nullptr;
    /// Index into the profiler's registered stages; npos while telemetry
    /// is off.
    std::size_t profile_slot = npos;
    /// Fire the on_round_begin observer fan-out before this stage.
    bool round_begin_before = false;
    /// True for spliced (pipeline-owned) stages; insert_after() chains
    /// same-anchor splices in installation order through this flag.
    bool spliced = false;
  };

  /// Slots [first, last); `disjoint` iff every stage in it declares
  /// vertex_disjoint_writes() (a serial group holds exactly one slot).
  struct Group {
    std::size_t first = 0;
    std::size_t last = 0;
    bool disjoint = false;
  };

  /// Appends a core stage (caller-owned, must outlive the pipeline).
  void append(RoundStage* stage, bool round_begin_before = false);

  /// Index of the slot whose stage name is `name`, or npos.
  std::size_t find(const std::string& name) const;

  /// Inserts an owned (spliced) stage after the named anchor stage and any
  /// splices already chained behind it, so same-anchor splices run in
  /// installation order.  The anchor must exist.
  void insert_after(const std::string& anchor,
                    std::unique_ptr<RoundStage> stage);

  std::vector<Slot>& slots() noexcept { return slots_; }
  const std::vector<Slot>& slots() const noexcept { return slots_; }
  std::size_t size() const noexcept { return slots_.size(); }

  const std::vector<Group>& groups() const noexcept { return groups_; }

 private:
  void regroup();

  std::vector<Slot> slots_;
  std::vector<Group> groups_;
  std::vector<std::unique_ptr<RoundStage>> owned_;
};

}  // namespace dg::sim
