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
// vertex that could hear anything this round, so compute visits only
// those 64-vertex words, and processes that promise silence
// (Process::silent_steps) are parked instead of stepped: transmit,
// receive and output_flush walk only the set bits of an awake mask, and a
// delivery to a process whose promise is deaf (Process::deaf) does not
// wake it.  Each maximal run of consecutive vertex-disjoint stages is one
// group: its blocks run every stage of the group in pipeline order, so a
// round makes two block passes (transmit; compute + receive +
// output_flush) unless a serial splice splits a group.  When round_threads > 1, every process is shard_safe(),
// the vertex count yields at least two cache-aligned blocks (multiples of
// 64 vertices, so each block owns whole bitmap words) and the previous
// round's work exceeded kShardMinWords, each group's blocks run as one job
// on a persistent thread pool; otherwise one block covering every vertex
// runs inline on the caller.  Determinism is structural, not
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

#include <atomic>
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
///
/// receive and output_flush run in one block pass, so both checkpoints
/// fire after every process's end_round() of the round: a wrapper still
/// forwards all of the round's receive-phase callbacks before its
/// output-phase ones, but must not read process state in
/// after_receive_phase expecting end_round() not to have run yet.
class RoundHooks {
 public:
  virtual ~RoundHooks() = default;
  /// After every process's receive() and end_round() for `round` and after
  /// the reception observers have been fanned out.
  virtual void after_receive_phase(Round round) = 0;
  /// After after_receive_phase, before on_round_end.
  virtual void after_output_phase(Round round) = 0;
};

struct EngineStages;    ///< the core stage set (defined in sim/engine.cpp)
struct EngineTestPeer;  ///< test-only access (defined under tests/)

class Engine {
 public:
  /// The shard guard: a round runs on the pool only when the previous
  /// round's work -- 64-vertex words with an unparked vertex plus frontier
  /// words -- exceeds this.  Below it, two pool hand-offs cost more than
  /// the blocks save (measured with BM_EngineRound and
  /// BM_EngineRoundSparse; see README.md).
  static constexpr std::size_t kShardMinWords = 128;

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
  /// the pool never exceeds the hardware threads, and rounds run as one
  /// inline block whenever the pool would have fewer than two threads,
  /// the vertex count yields fewer than two blocks,
  /// a process is not shard_safe(), or the previous round's work was at
  /// most kShardMinWords.  A fault plan is
  /// bound to the execution's graph and master seed here, then consulted
  /// serially at the top of every subsequent round; its listener
  /// (optional) receives crash/recover notifications for wrapper-level
  /// bookkeeping -- before Process::on_crash on a crash, after
  /// Process::on_recover on a recovery (see fault/plan.h).  Telemetry: the
  /// registry receives LOGICAL per-round counters (rounds, transmissions,
  /// delivery/collision/silence verdicts, fault events) that are
  /// byte-identical across round_threads -- each compute block tallies
  /// its channel verdicts, and a serial after_phase fold adds the block
  /// totals to the registry -- plus TIMING phase/dispatch metrics that are
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
  friend struct EngineTestPeer;

  void init(std::uint64_t master_seed);  ///< shared constructor tail

  /// Threads a sharded round runs on: the cap, bounded by pool_cap_.
  /// Rounds shard only when this is at least two.
  std::size_t pool_threads() const;

  /// Vertices per shard block for pool_threads(): the vertex range split
  /// into ~4 blocks per thread (dynamic claiming evens out skewed blocks),
  /// rounded up to a multiple of 64 so every block owns whole bitmap words
  /// and exclusive heard_ cache lines.
  std::size_t shard_block_size() const;

  /// The one round driver: walks the pipeline's groups in order.  A
  /// vertex-disjoint group runs in blocks of `block_size` vertices (one
  /// pool job when there are two or more); a serial stage runs as one
  /// block covering every vertex.
  void run_pipeline(std::size_t block_size);

  /// One group of run_pipeline: every active stage's prologue, then the
  /// `blocks` blocks, each running the stages' bodies in order, then each
  /// stage's replay, epilogue and after_phase.
  void run_group(const RoundPipeline::Group& group, RoundState& rs,
                 std::size_t block_size, std::size_t blocks);

  void apply_telemetry(obs::Registry* registry, obs::TraceSink* sink);

  /// (Re)creates the profiler against registry_ and assigns every pipeline
  /// slot its timing slot, in pipeline order.  Registry counters are keyed
  /// by name, so a rebuild keeps accumulating into the same counters.
  void rebuild_profiler();

  /// Serial fault checkpoint at the top of every round: asks the plan for
  /// this round's events and applies them (crashed_ bitmap, parking,
  /// process and listener callbacks) before any block runs.
  void apply_faults(Round t);

  /// One compute block's share of the logical verdict counters: its
  /// transmitters and its listeners' delivery / collision / silence
  /// verdicts (transmitting_, heard_ through the frontier, crashed_),
  /// added to tally_.  Only runs when a registry is installed.
  void tally_verdicts(const RoundState& rs, graph::Vertex begin,
                      graph::Vertex end);

  /// Serial fold of the round's block tallies into the logical counters.
  /// Integer sums do not depend on which thread added which block, so
  /// logical registry dumps are byte-identical across round_threads.
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
  std::uint64_t* m_pool_jobs_ = nullptr;
  std::uint64_t* m_active_blocks_ = nullptr;  ///< counts frontier words
  std::uint64_t* m_unparked_words_ = nullptr;  ///< counts stepped words
  std::uint64_t* m_stepped_vertices_ = nullptr;
  obs::Registry::Histogram* m_tx_per_round_ = nullptr;
  /// This round's verdict totals, summed over the compute blocks.
  struct VerdictTally {
    std::atomic<std::uint64_t> tx{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> collisions{0};
    std::atomic<std::uint64_t> silent{0};
  };
  VerdictTally tally_;

  std::size_t round_threads_ = 1;
  /// The pool's size limit: the hardware threads, so a one-thread host
  /// runs every round inline.
  std::size_t pool_cap_ = util::ThreadPool::hardware_threads();
  bool all_shard_safe_ = false;  ///< every process consented, at init()
  RoundHooks* hooks_ = nullptr;
  std::unique_ptr<util::ThreadPool> pool_;  ///< created on first sharded round
  /// The shard guard's input: last round's unparked words (tallied by
  /// output_flush) plus its frontier words.  Starts at every word, since
  /// nobody is parked before the first round.
  std::size_t shard_work_ = 0;
  std::size_t shard_min_words_ = kShardMinWords;
  std::atomic<std::size_t> unparked_words_{0};  ///< this round's tally
  std::atomic<std::size_t> stepped_vertices_{0};  ///< this round's tally
  /// Per-block, per-stage nanoseconds of a profiled group pass, then one
  /// more row: each stage's serial hooks.
  std::vector<std::uint64_t> segment_ns_;

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
  // read).  The per-vertex stages walk only the set bits of awake_.
  // Bookkeeping invariants, at the top of round t:
  //  * last_stepped_[v] = the round through which v's cursor has advanced
  //    (batched silent_steps() jumps included);
  //  * awake_ bit v clear = v is parked: crashed (silent_until_[v] is
  //    kParkedForever until the fault stage recovers it) or on a silent
  //    promise through round silent_until_[v]; silent_until_ is read only
  //    for parked vertices;
  //  * deaf_ bit v = v's current promise is deaf (Process::deaf()), read
  //    only while v is parked;
  //  * word_wake_[w] <= silent_until_[v] for every parked v in word w, so
  //    transmit re-admits expired promises (and recomputes the minimum)
  //    only in words where word_wake_[w] < t.
  // Blocks own whole words, so every write to these stays in its block.
  Bitmap frontier_;                          ///< Slab::kActivityMask
  std::vector<std::size_t> active_words_;    ///< non-zero frontier words
  std::vector<Round> last_stepped_;
  std::vector<Round> silent_until_;
  Bitmap awake_;                             ///< bit v = v steps this round
  Bitmap deaf_;
  std::vector<Round> word_wake_;

  // The stage pipeline: core stages (owned via stages_) plus splices
  // (owned by the pipeline), walked in order by run_pipeline().
  std::unique_ptr<EngineStages> stages_;
  RoundPipeline pipeline_;
  std::vector<SpliceSpec> splices_;  ///< installed, for conflict checks
};

}  // namespace dg::sim
