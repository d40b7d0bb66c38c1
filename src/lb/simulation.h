// LbSimulation: convenience wrapper wiring a dual graph, an oblivious link
// scheduler, one LbProcess per vertex, the LB spec checker, and a traffic
// environment into a runnable system.
//
// The environment model follows Section 4.1: a deterministic automaton that
// consumes ack outputs and produces bcast inputs, subject to the contract
// (unique messages; no new bcast at u before u's previous ack).  The
// environment side is the pluggable traffic subsystem (src/traffic/): any
// number of TrafficSources feed a per-node admission queue (the
// traffic::Injector) that posts bcast inputs whenever the service is idle
// and records end-to-end latency/throughput statistics.  The historical
// APIs remain as thin shims: keep_busy() attaches a SaturateSource, and
// post_bcast()/set_environment() still drive inputs directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/plan.h"
#include "graph/dual_graph.h"
#include "lb/lb_alg.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "lb/params.h"
#include "lb/spec.h"
#include "phys/channel.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "traffic/injector.h"
#include "util/assert.h"

namespace dg::lb {

class LbSimulation {
 public:
  /// The graph must outlive the simulation; the scheduler is owned.
  /// Reception follows the Section 2 dual-graph rule under the scheduler.
  LbSimulation(const graph::DualGraph& g,
               std::unique_ptr<sim::LinkScheduler> scheduler,
               const LbParams& params, std::uint64_t master_seed);

  /// Same stack, but reception is decided by an explicit channel model
  /// (e.g. phys::SinrChannel ground truth); the channel is owned.
  LbSimulation(const graph::DualGraph& g,
               std::unique_ptr<phys::ChannelModel> channel,
               const LbParams& params, std::uint64_t master_seed);

  ~LbSimulation();  // out of line: Fanout is incomplete here

  // ---- environment-side controls ----

  /// Posts a bcast(m) input at vertex v, delivered at the start of the next
  /// round.  Contract-checked (asserts if v is busy).  Returns the message.
  /// Bypasses the traffic admission queue -- direct environment access.
  sim::MessageId post_bcast(graph::Vertex v, std::uint64_t content);

  /// Posts an abort input at vertex v (abstract MAC extension): cancels the
  /// outstanding broadcast, if any, effective from the next round.  Returns
  /// the aborted message id, if one existed.  Messages still queued in the
  /// traffic injector are unaffected (the next one is admitted once the
  /// abort frees the service).
  std::optional<sim::MessageId> post_abort(graph::Vertex v);

  /// The one-outstanding-message busy bit at v, read from the busy slab
  /// (one byte per vertex, stored by v's LbProcess at each transition).
  bool busy(graph::Vertex v) const {
    DG_EXPECTS(v < busy_.size());
    return busy_[v] != 0;
  }

  /// Attaches a traffic source; sources step each round in attach order.
  void add_traffic(std::unique_ptr<traffic::TrafficSource> source) {
    traffic_->add_source(std::move(source));
  }

  /// The admission layer: queue state, per-message records, TrafficStats.
  traffic::Injector& traffic() noexcept { return *traffic_; }
  const traffic::Injector& traffic() const noexcept { return *traffic_; }

  /// Registers vertices the environment keeps saturated: whenever one is
  /// idle between rounds, a fresh bcast is posted automatically.  Shim for
  /// add_traffic(SaturateSource); behavior (contents, rounds) is
  /// bit-identical to the historical hard-wired loop.
  void keep_busy(const std::vector<graph::Vertex>& vertices);

  /// Arbitrary deterministic environment hook, invoked before every round
  /// with the round about to execute (after the traffic sources step).
  void set_environment(
      std::function<void(LbSimulation&, sim::Round next_round)> env) {
    environment_ = std::move(env);
  }

  // ---- execution ----

  void run_round();
  void run_rounds(std::int64_t count);
  /// Runs `count` whole LBAlg phases (each params().phase_length() rounds).
  void run_phases(std::int64_t count);

  /// Applies a sim::EngineConfig to the engine, wrapper-aware: a fault
  /// plan is wired through the wrapper's own FaultBridge listener (the
  /// config must not carry one), which bridges the engine's fault events
  /// to the whole stack -- a crash aborts the vertex's in-flight broadcast
  /// through the usual abort accounting (spec checker + traffic
  /// crash-requeue), then reports the crash to the checker's degradation
  /// ledger; a recovery notifies the injector (admission resumes) and the
  /// checker (re-stabilization timer); ack outputs additionally feed
  /// FaultPlan::note_progress, so the k-crash adversary can target the
  /// highest-progress vertices.  Telemetry also arms export_telemetry().
  /// Each piece applies only if set, so a default EngineConfig is a
  /// no-op.  The thread cap is an upper bound: recv/ack callbacks are
  /// buffered per vertex and flushed in ascending vertex order at the
  /// engine's serial checkpoints, so checker reports, traffic ledgers and
  /// extra listeners are byte-identical at any thread count.  Constructed
  /// simulations start at sim::Engine::default_round_threads() (the
  /// DG_ROUND_THREADS environment knob).
  void configure(const sim::EngineConfig& config);

  // ---- access ----

  sim::Round round() const noexcept { return engine_->round(); }
  const LbParams& params() const noexcept { return *params_; }
  const graph::DualGraph& network() const noexcept { return *graph_; }
  const std::vector<sim::ProcessId>& ids() const noexcept { return ids_; }

  LbProcess& process(graph::Vertex v) {
    DG_EXPECTS(v < processes_.size());
    return *processes_[v];
  }
  const LbSpecChecker& checker() const noexcept { return *checker_; }
  const LbSpecReport& report() const noexcept { return checker_->report(); }
  const DegradationLedger& ledger() const noexcept {
    return checker_->ledger();
  }
  sim::Engine& engine() noexcept { return *engine_; }

  /// Extra listener for service outputs (e.g. the abstract MAC adapter);
  /// may be set once, before running.
  void set_extra_listener(LbListener* listener) { extra_ = listener; }

  /// Extra engine observer (bench instrumentation).
  void add_observer(sim::Observer* observer) {
    engine_->add_observer(observer);
  }

  // ---- telemetry (src/obs/) ----

  /// Installs telemetry before the run (both must outlive the simulation;
  /// nullptr to remove): configure() with only telemetry set.  The engine
  /// records per-round logical counters, phase timing and fault instants;
  /// export_telemetry() adds the wrapper-level aggregates.
  void set_telemetry(obs::Registry* registry,
                     obs::TraceSink* trace = nullptr);

  /// Exports the wrapper-level telemetry accumulated by the run: traffic
  /// ledger counters, spec-checker tallies and the degradation ledger into
  /// the registry (all logical), and one lifecycle span per traffic
  /// message into the sink.  Call exactly ONCE, after the run -- calling
  /// it twice would double-count the aggregates.
  void export_telemetry();

 private:
  class Fanout;       // forwards process outputs to checker + listeners
  class TrafficPort;  // adapts this simulation to traffic::LbPort
  class FaultBridge;  // routes engine fault events to checker + traffic

  /// Shared constructor body: exactly one of scheduler/channel is set.
  LbSimulation(const graph::DualGraph& g,
               std::unique_ptr<sim::LinkScheduler> scheduler,
               std::unique_ptr<phys::ChannelModel> channel,
               const LbParams& params, std::uint64_t master_seed);

  /// Declared first, so destroyed last: once every other member has
  /// freed its memory, hands the allocator's free pages back to the OS.
  struct HeapRelease {
    ~HeapRelease();
  } heap_release_;
  const graph::DualGraph* graph_;
  std::shared_ptr<const LbParams> params_;  ///< shared with every process
  std::unique_ptr<sim::LinkScheduler> scheduler_;
  std::unique_ptr<phys::ChannelModel> channel_;
  std::vector<sim::ProcessId> ids_;
  /// Busy slab: byte v mirrors process(v).busy().  Each LbProcess writes
  /// only its own byte (the engine may run end_round block-parallel), and
  /// the traffic injector reads the slab through TrafficPort::busy_flags().
  std::vector<std::uint8_t> busy_;
  /// Typed view of the engine's processes, all created as LbProcess by
  /// the constructor (the engine owns them and never replaces one).
  std::vector<LbProcess*> processes_;
  std::unique_ptr<Fanout> fanout_;
  std::unique_ptr<LbSpecChecker> checker_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<TrafficPort> traffic_port_;
  std::unique_ptr<traffic::Injector> traffic_;
  std::unique_ptr<FaultBridge> fault_bridge_;
  fault::FaultPlan* fault_plan_ = nullptr;
  std::function<void(LbSimulation&, sim::Round)> environment_;
  LbListener* extra_ = nullptr;
  obs::Registry* obs_registry_ = nullptr;
  obs::TraceSink* obs_trace_ = nullptr;
};

}  // namespace dg::lb
