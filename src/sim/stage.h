// RoundStage -- the unit of composition in the round pipeline.
//
// A stage declares which named slabs (sim/slab.h) it reads and writes and
// whether its writes are per-vertex-disjoint; the pipeline driver
// (Engine::run_pipeline) uses the declarations to decide dispatch.  Each
// maximal run of consecutive stages with vertex_disjoint_writes() is one
// group: every vertex block runs the group's run_block()s in pipeline
// order -- as one job on the engine's thread pool in sharded rounds,
// inline as one block covering every vertex otherwise -- so a stage's
// block b may read what an earlier stage of its group wrote for block b,
// and only that.  Every other stage is a group of its own and runs its
// body once, inline, over the whole vertex range.  Determinism across
// round_threads is preserved by the hook split below, not by scheduling:
// anything order-sensitive (observer fan-out, wrapper checkpoints) lives
// in the serial hooks.
//
// Hook order per group, per round (all but run_block() serial, on the
// engine's calling thread):
//   prologue()    every stage of the group, in order, before any block
//                 (slab resets go here)
//   run_block()   the body, for one vertex block [begin, end); a
//                 vertex-disjoint stage must touch only per-vertex state
//                 of its block (blocks own whole 64-vertex bitmap words)
//   then, after the whole group's blocks, per stage in order:
//   replay()      fans the observer stream out in ascending vertex order
//   epilogue()    RoundHooks checkpoints fire here
//   after_phase() outside the stage's profiler row: serial logical-metrics
//                 folds go here, untimed (work a stage does inside
//                 run_block(), such as compute's per-block verdict
//                 tally, is timed with the stage)
//
// Profiling: each stage's prologue(), replay() and epilogue() and its
// segment of every block are timed; a group is timed as a whole (less its
// after_phase() folds) and split between its stages' rows by those
// measured shares, a pass's wall clock counting for each stage by its
// share of the blocks.
//
// Core stages are friends of the Engine (defined in sim/engine.cpp);
// spliced stages (sim/splice.h) see only this RoundState view.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/packet.h"
#include "sim/slab.h"
#include "util/bitmap.h"

namespace dg::obs {
class Registry;
class TraceSink;
}  // namespace dg::obs

namespace dg::sim {

/// The per-round state a spliced stage may see: pointers into the engine's
/// slabs plus the round header.  Slab pointers are stable for the engine's
/// lifetime; which ones a stage may dereference is bounded by its declared
/// read/write sets (validated at splice time).
///
/// Frontier-read contract: `heard` entries are fresh only inside the
/// non-zero 64-vertex words of `activity` (the round's frontier); entries
/// outside them are stale and stand for 0.  Every count==1 delivery lies
/// in a frontier word, so a stage reading verdicts visits only those
/// words (Bitmap::for_each_nonzero_run over `activity`).
struct RoundState {
  std::int64_t round = 0;
  bool faults = false;  ///< a fault plan is installed
  std::size_t vertex_count = 0;

  Bitmap* transmitting = nullptr;        ///< Slab::kTransmitBitmap
  std::vector<Packet>* packets = nullptr;       ///< Slab::kPacketSlab
  std::vector<std::uint64_t>* heard = nullptr;  ///< Slab::kHeardWords
  Bitmap* crashed = nullptr;             ///< Slab::kCrashedBitmap
  Bitmap* delivery_mask = nullptr;       ///< Slab::kDeliveryMask
  const Bitmap* activity = nullptr;      ///< Slab::kActivityMask (frontier)
  /// Set true by a mask-writing stage to arm the ReceiveStage mask check
  /// for this round; reset by the driver at round start.
  bool* deliver_masked = nullptr;

  obs::Registry* registry = nullptr;     ///< may be null
  obs::TraceSink* trace = nullptr;       ///< may be null
};

class RoundStage {
 public:
  virtual ~RoundStage() = default;

  /// Stable stage name: the profiler counter suffix and the trace slice
  /// label ("transmit", "compute", ...; spliced stages pick fresh names).
  virtual std::string name() const = 0;

  /// Slabs this stage reads / writes.  Writes must be declared exactly:
  /// the splice validator rejects a spliced stage whose write set overlaps
  /// a core-owned slab or another splice's writes.
  virtual SlabSet reads() const = 0;
  virtual SlabSet writes() const = 0;

  /// True iff every write the stage performs lands in state owned by a
  /// single vertex (or in bitmap words wholly owned by one 64-aligned
  /// block), and it reads what the earlier stages of its group write only
  /// inside its own block.  Grants block-parallel dispatch in sharded
  /// rounds, in one block pass with the rest of its group.
  virtual bool vertex_disjoint_writes() const { return false; }

  /// Whether the stage participates this round (e.g. the fault stage only
  /// runs with a plan installed).  Inactive stages are skipped entirely --
  /// no profiler bracket.
  virtual bool active() const { return true; }

  virtual void prologue(RoundState& rs) { (void)rs; }
  virtual void run_block(RoundState& rs, graph::Vertex begin,
                         graph::Vertex end) = 0;
  virtual void replay(RoundState& rs) { (void)rs; }
  virtual void epilogue(RoundState& rs) { (void)rs; }
  virtual void after_phase(RoundState& rs) { (void)rs; }
};

}  // namespace dg::sim
