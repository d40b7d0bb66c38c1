// The synchronous-round execution engine (Section 2 semantics).
//
// Each round: every process decides transmit-or-receive; the round topology
// is E plus the unreliable edges the (pre-committed, oblivious) scheduler
// includes; a listening node receives a packet iff exactly one of its
// round-topology neighbors transmitted; otherwise it receives the null
// indicator (no collision detection).  Transmitters hear nothing.
//
// The engine is protocol-agnostic: environments and protocol wrappers
// interact with typed Process subclasses *between* calls to run_round(),
// which realizes the paper's inputs -> transmit -> receive -> outputs round
// micro-structure.
//
// Reception physics is delegated to a phys::ChannelModel: the default
// DualGraphChannel realizes the Section 2 single-transmitter rule over the
// scheduled round topology, while SinrChannel replaces it with SINR
// ground-truth physics over an embedding.  The engine itself only owns the
// round structure: transmit decisions, the channel call, delivery of the
// channel's verdicts, and observer fan-out.
//
// Hot-path layout: outgoing packets live in a flat per-vertex slab gated by
// a transmit bitmask (no per-round optional churn), and the channel folds
// heard-count + heard-from into a single packed word per vertex (see
// phys/channel.h for the contract).  None of this changes the observable
// round semantics (tests/determinism_test.cpp pins golden execution
// digests).
// One round dispatch: every round runs the same frontier-driven block loop
// (fault -> transmit -> frontier -> prepare_round -> compute -> receive ->
// output_flush; see sim/stage.h for the stage contract and
// docs/PIPELINE.md for the slab catalog).  The frontier stage marks every
// vertex that could hear anything this round, so compute and receive visit
// only those 64-vertex words, and processes that promise silence
// (Process::silent_steps) are parked instead of stepped.  When
// round_threads > 1, every process is shard_safe() and the vertex count
// yields at least two cache-aligned blocks (multiples of 64 vertices, so
// each block owns whole bitmap words), the vertex-disjoint stages run
// their blocks on a persistent thread pool; otherwise one block covering
// every vertex runs inline on the caller.  Determinism is structural, not
// scheduled: blocks write disjoint per-vertex state, each vertex draws
// only from its own rng stream, the channel's reception writes only its
// own receiver range, and observers are always fanned out serially by
// each stage's replay() in ascending vertex order.  Golden digests and
// campaign counters are therefore byte-identical at any thread count
// (tests/engine_shard_test.cpp sweeps the contract and pins it to goldens
// recorded from the former dense dispatch).
// Fault injection: an installed fault::FaultPlan is consulted serially at
// the top of every round, before any block runs.  Crashed vertices are
// parked forever -- no process calls, no observer events, rng stream
// paused -- so a fault schedule stays byte-identical across round_threads
// too.
// Scenario splices (sim/splice.h) insert extra stages after their anchor
// without engine edits; their write sets are validated against the core
// stages' slab ownership first (see splice_stage()).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.h"
#include "graph/dual_graph.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "phys/channel.h"
#include "sim/adaptive.h"
#include "sim/engine_config.h"
#include "sim/observer.h"
#include "sim/packet.h"
#include "sim/pipeline.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/splice.h"
#include "util/bitmap.h"
#include "util/thread_pool.h"

namespace dg::sim {

/// Assigns distinct ProcessIds to graph vertices (the paper's id() mapping,
/// unknown to the processes).  Ids are pseudorandom 64-bit values so no
/// process can infer topology from id structure.
std::vector<ProcessId> assign_ids(std::size_t n, std::uint64_t seed);

/// Serial checkpoints between the phases of a round, fired on the engine's
/// calling thread every round.  Protocol wrappers that buffer per-vertex
/// callbacks during the (possibly parallel) reception and output phases
/// flush them here, in ascending vertex order, so the callback stream does
/// not depend on the thread count (see lb/simulation.h for the
/// LbSimulation fan-out that motivates this).
class RoundHooks {
 public:
  virtual ~RoundHooks() = default;
  /// After every process's receive() for `round` and after the reception
  /// observers have been fanned out.
  virtual void after_receive_phase(Round round) = 0;
  /// After every process's end_round() for `round`, before on_round_end.
  virtual void after_output_phase(Round round) = 0;
};

struct EngineStages;  ///< the core stage set (defined in sim/engine.cpp)

class Engine {
 public:
  /// The graph and scheduler must outlive the engine.  `processes[v]` is the
  /// process at graph vertex v; the scheduler is committed here (with a
  /// stream derived from master_seed), before any round executes.  Wraps the
  /// scheduler in an engine-owned phys::DualGraphChannel.
  Engine(const graph::DualGraph& g, LinkScheduler& scheduler,
         std::vector<std::unique_ptr<Process>> processes,
         std::uint64_t master_seed);

  /// Same, but with an explicit channel model deciding reception (e.g.
  /// phys::SinrChannel).  The channel must outlive the engine and not be
  /// shared; it is bound here, before any round executes.
  Engine(const graph::DualGraph& g, phys::ChannelModel& channel,
         std::vector<std::unique_ptr<Process>> processes,
         std::uint64_t master_seed);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Applies a configuration, in a fixed order: thread cap, fault plan,
  /// spliced stages, telemetry (splices first so the profiler registers
  /// their per-stage timers).  Each piece applies only if set.  Splices
  /// must have passed validate_splice_specs().
  ///
  /// The thread cap (>= 1) is an upper bound, never a semantics switch:
  /// rounds run as one inline block whenever the vertex count yields fewer
  /// than two blocks or a process is not shard_safe().  A fault plan is
  /// bound to the execution's graph and master seed here, then consulted
  /// serially at the top of every subsequent round; its listener
  /// (optional) receives crash/recover notifications for wrapper-level
  /// bookkeeping -- before Process::on_crash on a crash, after
  /// Process::on_recover on a recovery (see fault/plan.h).  Telemetry: the
  /// registry receives LOGICAL per-round counters (rounds, transmissions,
  /// delivery/collision/silence verdicts, fault events) that are
  /// byte-identical across round_threads -- tallied in a serial pass over
  /// the channel's verdicts -- plus TIMING phase/dispatch metrics that are
  /// wall-clock and never gated; the sink receives per-round stage slices
  /// and crash/recover instants.  Plans, listeners, registries and sinks
  /// must outlive the engine.
  void configure(const EngineConfig& config);

  /// Splices one extra stage into the round pipeline after its anchor
  /// stage, validating its write set against the core stages' slab
  /// ownership and the already-installed splices.  Returns "" on success
  /// or the violation message (the pipeline is unchanged on failure).
  std::string splice_stage(const SpliceSpec& spec);

  /// Splices installed so far, in installation order.
  const std::vector<SpliceSpec>& splices() const noexcept {
    return splices_;
  }

  /// Observers are invoked in registration order; they must outlive the
  /// engine.
  void add_observer(Observer* observer);

  /// Installs an ADAPTIVE adversary (see sim/adaptive.h) that overrides the
  /// oblivious scheduler for unreliable edges.  Deliberately outside the
  /// paper's model -- used only by the E12 impossibility counterfactual.
  /// Requires a scheduler-driven channel (the default DualGraphChannel).
  void set_adaptive_adversary(AdaptiveAdversary* adversary) {
    channel_->set_adaptive_adversary(adversary);
  }

  /// The channel model deciding reception for this execution.
  const phys::ChannelModel& channel() const noexcept { return *channel_; }

  /// Rounds executed so far (0 before the first run_round()).
  Round round() const noexcept { return round_; }

  /// The thread budget new engines start with: the DG_ROUND_THREADS
  /// environment variable ("max" = hardware concurrency, a positive integer
  /// = that many threads, unset/invalid = 1).
  static std::size_t default_round_threads();

  std::size_t round_threads() const noexcept { return round_threads_; }

  /// True while vertex v is crashed by the installed fault plan.
  bool crashed(graph::Vertex v) const { return crashed_.test(v); }
  /// Crashed vertices this round (count() for a population probe).
  const Bitmap& crashed_vertices() const noexcept { return crashed_; }

  /// Installs the serial between-phase checkpoints (nullptr to remove).
  /// The hooks object must outlive the engine.
  void set_round_hooks(RoundHooks* hooks) { hooks_ = hooks; }

  /// Executes one synchronous round (steps 2-4 of the round structure;
  /// step 1, environment inputs, happens before this call via typed process
  /// APIs).
  void run_round();

  void run_rounds(Round count);

  const graph::DualGraph& network() const noexcept { return *graph_; }
  std::size_t process_count() const noexcept { return processes_.size(); }

  Process& process(graph::Vertex v);
  const Process& process(graph::Vertex v) const;

  /// The process-local random stream for vertex v (exposed so protocol
  /// wrappers can make *input-side* random choices attributable to the same
  /// process stream; the engine itself never draws from these between a
  /// process's own steps).
  Rng& process_rng(graph::Vertex v);

 private:
  friend struct EngineStages;  ///< the core stage set, sim/engine.cpp

  void init(std::uint64_t master_seed);  ///< shared constructor tail

  /// Vertices per shard block for the current thread cap: the vertex range
  /// split into ~4 blocks per thread (dynamic claiming evens out skewed
  /// blocks), rounded up to a multiple of 64 so every block owns whole
  /// bitmap words and exclusive heard_ cache lines.
  std::size_t shard_block_size() const;

  /// The one round driver: walks the pipeline slots in order, bracketing
  /// each active stage with its profiler slot; a vertex-disjoint stage
  /// runs its blocks of `block_size` vertices on the pool when there are
  /// two or more, every other body runs inline over all vertices.
  void run_pipeline(std::size_t block_size);

  void apply_telemetry(obs::Registry* registry, obs::TraceSink* sink);

  /// (Re)creates the profiler against registry_ and assigns every pipeline
  /// slot its timing slot, in pipeline order.  Registry counters are keyed
  /// by name, so a rebuild keeps accumulating into the same counters.
  void rebuild_profiler();

  /// Serial fault checkpoint at the top of every round: asks the plan for
  /// this round's events and applies them (crashed_ bitmap, parking,
  /// process and listener callbacks) before any block runs.
  void apply_faults(Round t);

  /// Serial logical-metrics pass over the round's frozen verdicts
  /// (transmitting_, heard_ through the frontier, crashed_) -- the reason
  /// logical registry dumps are byte-identical across round_threads.  Only
  /// runs when a registry is installed.
  void record_logical_round();

  const graph::DualGraph* graph_;
  std::unique_ptr<phys::ChannelModel> owned_channel_;  ///< scheduler ctor only
  phys::ChannelModel* channel_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> rngs_;
  // Per-event fan-out lists (filtered by Observer::interest() at
  // registration, in registration order), so uninterested observers cost
  // nothing per event.
  std::vector<Observer*> obs_round_begin_;
  std::vector<Observer*> obs_transmit_;
  std::vector<Observer*> obs_receive_;
  std::vector<Observer*> obs_silence_;
  std::vector<Observer*> obs_round_end_;
  std::vector<Observer*> obs_fault_;
  Round round_ = 0;

  // Telemetry (see configure()).  Logical counter slots are cached
  // registry references so the per-round pass never pays a map lookup.
  obs::Registry* registry_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  std::uint64_t* m_rounds_ = nullptr;
  std::uint64_t* m_tx_ = nullptr;
  std::uint64_t* m_delivered_ = nullptr;
  std::uint64_t* m_collisions_ = nullptr;
  std::uint64_t* m_silent_ = nullptr;
  std::uint64_t* m_crashes_ = nullptr;
  std::uint64_t* m_recoveries_ = nullptr;
  std::uint64_t* m_dispatch_serial_ = nullptr;
  std::uint64_t* m_dispatch_sharded_ = nullptr;
  std::uint64_t* m_active_blocks_ = nullptr;  ///< counts frontier words
  obs::Registry::Histogram* m_tx_per_round_ = nullptr;

  std::size_t round_threads_ = 1;
  bool all_shard_safe_ = false;  ///< every process consented, at init()
  RoundHooks* hooks_ = nullptr;
  std::unique_ptr<util::ThreadPool> pool_;  ///< created on first sharded round

  std::uint64_t master_seed_ = 0;  ///< kept for late fault-plan binding
  fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultListener* fault_listener_ = nullptr;
  Bitmap crashed_;  ///< bit v = v is down; written only by the fault stage
  std::vector<fault::FaultEvent> fault_events_;  ///< per-round scratch

  // Scratch reused every round, sized once at construction.
  std::vector<Packet> outgoing_slab_;   ///< packet of v iff v transmits
  Bitmap transmitting_;                 ///< bit v = v transmits this round
  /// Packed reception state written by the channel: high 32 bits = last
  /// heard-from vertex, low 32 bits = number of decodable senders.
  std::vector<std::uint64_t> heard_;
  /// bit u = u took an unmasked delivery this round; written by the
  /// receive stage for frontier words only (its replay reads no others).
  Bitmap delivered_;
  /// Slab::kDeliveryMask -- bit u = suppress delivery to u this round.
  /// Only consulted when deliver_masked_ (armed per round by a
  /// mask-writing spliced stage, reset by the driver).
  Bitmap delivery_mask_;
  bool deliver_masked_ = false;

  // ---- the frontier and process parking (see docs/PIPELINE.md) ----
  // The frontier stage computes frontier_ (Slab::kActivityMask) each round:
  // every vertex whose heard_ word could be non-zero.  Compute zeroes and
  // fills only frontier words (entries outside them are stale and never
  // read); transmit/receive/output skip words whose every vertex is parked
  // on a silent promise.  Bookkeeping invariants: last_stepped_[v] = the
  // round through which v's cursor has advanced (batched silent_steps()
  // jumps included); silent_until_[v] >= t means v is parked at round t
  // (crashed vertices park forever and are restored by the fault stage on
  // recovery); word_silent_until_[w] is a conservative (<= actual) minimum
  // over word w's vertices.
  Bitmap frontier_;                          ///< Slab::kActivityMask
  std::vector<std::size_t> active_words_;    ///< non-zero frontier words
  std::vector<Round> last_stepped_;
  std::vector<Round> silent_until_;
  std::vector<Round> word_silent_until_;

  // The stage pipeline: core stages (owned via stages_) plus splices
  // (owned by the pipeline), walked in order by run_pipeline().
  std::unique_ptr<EngineStages> stages_;
  RoundPipeline pipeline_;
  std::vector<SpliceSpec> splices_;  ///< installed, for conflict checks
};

}  // namespace dg::sim
