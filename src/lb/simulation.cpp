#include "lb/simulation.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/assert.h"
#include "util/bitmap.h"
#include "util/rng.h"

namespace dg::lb {

/// Forwards LbProcess outputs to the spec checker, the traffic injector
/// (latency/throughput ledger), and an optional extra listener (e.g. the
/// abstract MAC adapter).
///
/// The forwarding targets are not concurrent-safe, and the engine may run
/// the reception and output phases block-parallel, so the Fanout buffers:
/// each vertex parks its (at most one) recv and ack of the round in a
/// per-vertex slot and marks it in a bitmap -- disjoint writes, since
/// blocks own whole bitmap words, so no synchronization -- and the
/// engine's serial RoundHooks checkpoints flush the marked slots in
/// ascending vertex order.  The flushed call sequence is therefore the
/// same at every thread count, and costs only the marked slots plus a
/// word scan.
class LbSimulation::Fanout final : public LbListener, public sim::RoundHooks {
 public:
  Fanout(LbSimulation& owner, std::size_t n)
      : owner_(&owner), recv_(n), ack_(n), recv_marked_(n), ack_marked_(n) {}

  bool concurrent_safe() const override { return true; }

  void on_ack(graph::Vertex vertex, const sim::MessageId& m,
              sim::Round round) override {
    ack_[vertex] = AckSlot{m, round};
    ack_marked_.set(vertex);
  }

  void on_recv(graph::Vertex vertex, const sim::MessageId& m,
               std::uint64_t content, sim::Round round) override {
    recv_[vertex] = RecvSlot{m, content, round};
    recv_marked_.set(vertex);
  }

  // sim::RoundHooks (fired serially by the engine every round):
  void after_receive_phase(sim::Round round) override {
    (void)round;
    recv_marked_.for_each_set([&](std::size_t v) {
      const RecvSlot& slot = recv_[v];
      forward_recv(static_cast<graph::Vertex>(v), slot.m, slot.content,
                   slot.round);
    });
    recv_marked_.clear();
  }

  void after_output_phase(sim::Round round) override {
    (void)round;
    ack_marked_.for_each_set([&](std::size_t v) {
      const AckSlot& slot = ack_[v];
      forward_ack(static_cast<graph::Vertex>(v), slot.m, slot.round);
    });
    ack_marked_.clear();
  }

 private:
  struct RecvSlot {
    sim::MessageId m;
    std::uint64_t content = 0;
    sim::Round round = 0;
  };
  struct AckSlot {
    sim::MessageId m;
    sim::Round round = 0;
  };

  void forward_ack(graph::Vertex vertex, const sim::MessageId& m,
                   sim::Round round) {
    owner_->checker_->on_ack(vertex, m, round);
    owner_->traffic_->on_ack(m, round);
    // Completed-broadcast progress feed for adaptive fault plans (the
    // k-crash adversary targets the highest-progress vertices).  Runs on
    // the serial flush, so plans see the identical ascending-vertex order
    // at any thread count.
    if (owner_->fault_plan_ != nullptr) {
      owner_->fault_plan_->note_progress(vertex);
    }
    if (owner_->extra_ != nullptr) owner_->extra_->on_ack(vertex, m, round);
  }

  void forward_recv(graph::Vertex vertex, const sim::MessageId& m,
                    std::uint64_t content, sim::Round round) {
    owner_->checker_->on_recv(vertex, m, content, round);
    owner_->traffic_->on_recv(m, round);
    if (owner_->extra_ != nullptr) {
      owner_->extra_->on_recv(vertex, m, content, round);
    }
  }

  LbSimulation* owner_;
  std::vector<RecvSlot> recv_;
  std::vector<AckSlot> ack_;
  Bitmap recv_marked_;  ///< bit v = recv_[v] holds this round's recv
  Bitmap ack_marked_;   ///< bit v = ack_[v] holds this round's ack
};

/// Routes the engine's fault events into the rest of the stack, preserving
/// the fault/plan.h ordering contract: on a crash this listener fires
/// *before* LbProcess::on_crash, so the in-flight broadcast is still
/// intact and can be aborted through the normal accounting path (spec
/// checker on_abort + traffic crash-requeue); on a recovery it fires
/// *after* LbProcess::on_recover, so admission resumes against a
/// re-initialized process.
class LbSimulation::FaultBridge final : public fault::FaultListener {
 public:
  explicit FaultBridge(LbSimulation& owner) : owner_(&owner) {}

  void on_crash(sim::Round round, graph::Vertex v) override {
    const auto aborted = owner_->process(v).abort();
    if (aborted.has_value()) {
      owner_->checker_->on_abort(v, *aborted, round);
    }
    // The injector both accounts the crash-abort (if the in-flight message
    // was one of its admissions) and re-queues it for after recovery.
    owner_->traffic_->on_crash(v, round);
    owner_->checker_->on_crash(v, round);
  }

  void on_recover(sim::Round round, graph::Vertex v) override {
    owner_->traffic_->on_recover(v, round);
    owner_->checker_->on_recover(v, round);
  }

 private:
  LbSimulation* owner_;
};

/// The injector's view of this simulation: the busy slab and a
/// contract-checked bcast post (which also notifies the spec checker).
class LbSimulation::TrafficPort final : public traffic::LbPort {
 public:
  explicit TrafficPort(LbSimulation& owner) : owner_(&owner) {}

  std::span<const std::uint8_t> busy_flags() const override {
    return owner_->busy_;
  }
  sim::MessageId admit(graph::Vertex v, std::uint64_t content) override {
    return owner_->post_bcast(v, content);
  }

 private:
  LbSimulation* owner_;
};

LbSimulation::LbSimulation(const graph::DualGraph& g,
                           std::unique_ptr<sim::LinkScheduler> scheduler,
                           const LbParams& params, std::uint64_t master_seed)
    : LbSimulation(g, std::move(scheduler), nullptr, params, master_seed) {}

LbSimulation::LbSimulation(const graph::DualGraph& g,
                           std::unique_ptr<phys::ChannelModel> channel,
                           const LbParams& params, std::uint64_t master_seed)
    : LbSimulation(g, nullptr, std::move(channel), params, master_seed) {}

LbSimulation::LbSimulation(const graph::DualGraph& g,
                           std::unique_ptr<sim::LinkScheduler> scheduler,
                           std::unique_ptr<phys::ChannelModel> channel,
                           const LbParams& params, std::uint64_t master_seed)
    : graph_(&g),
      params_(std::make_shared<const LbParams>(params)),
      scheduler_(std::move(scheduler)),
      channel_(std::move(channel)),
      ids_(sim::assign_ids(g.size(), derive_seed(master_seed, 0x1d5ULL))),
      busy_(g.size(), 0),
      fanout_(std::make_unique<Fanout>(*this, g.size())),
      checker_(std::make_unique<LbSpecChecker>(g, ids_, params)),
      traffic_port_(std::make_unique<TrafficPort>(*this)),
      traffic_(std::make_unique<traffic::Injector>(g.size(),
                                                  *traffic_port_)) {
  DG_EXPECTS((scheduler_ != nullptr) != (channel_ != nullptr));
  std::vector<std::unique_ptr<sim::Process>> processes;
  processes.reserve(g.size());
  processes_.reserve(g.size());
  for (graph::Vertex v = 0; v < static_cast<graph::Vertex>(g.size()); ++v) {
    auto p = std::make_unique<LbProcess>(
        params_, ids_[v], v, fanout_.get(), &busy_[v],
        static_cast<std::uint32_t>(g.gprime_neighbors(v).size()));
    processes_.push_back(p.get());
    processes.push_back(std::move(p));
  }
  engine_ = channel_ != nullptr
                ? std::make_unique<sim::Engine>(g, *channel_,
                                                std::move(processes),
                                                master_seed)
                : std::make_unique<sim::Engine>(g, *scheduler_,
                                                std::move(processes),
                                                master_seed);
  // A physical channel's ground truth may deliver beyond the declared G';
  // grade validity accordingly (see LbSpecChecker docs).
  if (channel_ != nullptr) {
    checker_->set_require_gprime_adjacency(channel_->respects_dual_graph());
  }
  engine_->add_observer(checker_.get());
  engine_->set_round_hooks(fanout_.get());
}

void LbSimulation::configure(const sim::EngineConfig& config) {
  sim::EngineConfig forwarded = config;
  if (config.has_fault_plan) {
    // The wrapper owns the listener side (its FaultBridge routes engine
    // fault events through the abort/checker/traffic accounting); a
    // caller-supplied listener would silently bypass all of that.
    DG_EXPECTS(config.fault_listener == nullptr);
    fault_plan_ = config.fault_plan;
    if (fault_plan_ != nullptr && fault_bridge_ == nullptr) {
      fault_bridge_ = std::make_unique<FaultBridge>(*this);
    }
    forwarded.fault_listener =
        fault_plan_ != nullptr ? fault_bridge_.get() : nullptr;
  }
  if (config.has_telemetry) {
    obs_registry_ = config.registry;
    obs_trace_ = config.registry != nullptr ? config.trace_sink : nullptr;
    forwarded.trace_sink = obs_trace_;
  }
  engine_->configure(forwarded);
}

LbSimulation::~LbSimulation() = default;

// A 16k-vertex simulation frees tens of MB, most of it in small chunks.
// glibc keeps freed pages resident inside its heap, and whatever the
// process allocates between two simulations (a buffer that doubled, say)
// is carved out of them, so the next simulation no longer fits and the
// heap grows: a process that runs simulations back to back ratchets its
// RSS up by the layout's waste, one step per such allocation.  Returning
// the free pages at teardown keeps the RSS at one simulation's footprint.
LbSimulation::HeapRelease::~HeapRelease() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

sim::MessageId LbSimulation::post_bcast(graph::Vertex v,
                                        std::uint64_t content) {
  const sim::MessageId m = process(v).post_bcast(content);
  checker_->on_bcast(v, m, engine_->round() + 1);
  return m;
}

std::optional<sim::MessageId> LbSimulation::post_abort(graph::Vertex v) {
  const auto aborted = process(v).abort();
  if (aborted.has_value()) {
    checker_->on_abort(v, *aborted, engine_->round() + 1);
    traffic_->on_abort(*aborted, engine_->round() + 1);
  }
  return aborted;
}

void LbSimulation::keep_busy(const std::vector<graph::Vertex>& vertices) {
  add_traffic(std::make_unique<traffic::SaturateSource>(vertices));
}

void LbSimulation::set_telemetry(obs::Registry* registry,
                                 obs::TraceSink* trace) {
  configure(sim::EngineConfig{}.with_telemetry(registry, trace));
}

void LbSimulation::export_telemetry() {
  if (obs_registry_ == nullptr) return;
  using obs::Domain;
  obs::Registry& reg = *obs_registry_;

  // Traffic ledger: logical to the last byte -- the injector's counters
  // are pure functions of the execution.
  const traffic::TrafficStats& ts = traffic_->stats();
  reg.counter("traffic.offered", Domain::kLogical) += ts.offered;
  reg.counter("traffic.enqueued", Domain::kLogical) += ts.enqueued;
  reg.counter("traffic.dropped", Domain::kLogical) += ts.dropped;
  reg.counter("traffic.admitted", Domain::kLogical) += ts.admitted;
  reg.counter("traffic.acked", Domain::kLogical) += ts.acked;
  reg.counter("traffic.aborted", Domain::kLogical) += ts.aborted;
  reg.counter("traffic.first_recvs", Domain::kLogical) += ts.first_recvs;
  reg.counter("traffic.crash_requeues", Domain::kLogical) +=
      ts.crash_requeues;
  reg.counter("traffic.readmitted", Domain::kLogical) += ts.readmitted;
  reg.counter("traffic.wait_rounds", Domain::kLogical) += ts.wait_sum;
  reg.counter("traffic.ack_latency_rounds", Domain::kLogical) +=
      ts.ack_latency_sum;
  reg.counter("traffic.recv_latency_rounds", Domain::kLogical) +=
      ts.recv_latency_sum;

  // Spec checker + degradation ledger (the paper's Section 4 bounds).
  const LbSpecReport& rep = checker_->report();
  reg.counter("lb.bcasts", Domain::kLogical) += rep.bcast_count;
  reg.counter("lb.acks", Domain::kLogical) += rep.ack_count;
  reg.counter("lb.recvs", Domain::kLogical) += rep.recv_count;
  reg.counter("lb.violations", Domain::kLogical) += rep.violations;
  reg.counter("lb.progress.trials", Domain::kLogical) +=
      rep.progress.trials();
  reg.counter("lb.progress.successes", Domain::kLogical) +=
      rep.progress.successes();
  reg.counter("lb.reliability.trials", Domain::kLogical) +=
      rep.reliability.trials();
  reg.counter("lb.reliability.successes", Domain::kLogical) +=
      rep.reliability.successes();
  const DegradationLedger& led = checker_->ledger();
  reg.counter("lb.fault.crashes", Domain::kLogical) += led.crashes;
  reg.counter("lb.fault.recoveries", Domain::kLogical) += led.recoveries;
  reg.counter("lb.fault.rounds", Domain::kLogical) += led.fault_rounds;
  reg.counter("lb.fault.restab_count", Domain::kLogical) +=
      led.restab_count;
  reg.counter("lb.fault.restab_rounds", Domain::kLogical) +=
      led.restab_rounds_sum;

  // Ack-latency histogram over the traffic ledger, in enqueue order (a
  // deterministic iteration; the sum of recorded values equals
  // traffic.ack_latency_rounds).
  obs::Registry::Histogram& ack_hist = reg.histogram(
      "traffic.ack_latency", Domain::kLogical,
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
  for (const traffic::MessageRecord& m : traffic_->messages()) {
    if (m.acked()) {
      ack_hist.record(static_cast<double>(m.ack_round - m.enqueue_round));
    }
    if (obs_trace_ != nullptr) {
      obs_trace_->message_span(
          m.vertex, m.content, static_cast<std::int64_t>(m.enqueue_round),
          static_cast<std::int64_t>(m.admit_round),
          static_cast<std::int64_t>(m.first_recv_round),
          static_cast<std::int64_t>(m.ack_round),
          static_cast<std::int64_t>(m.abort_round));
    }
  }
}

void LbSimulation::run_round() {
  // Environment input step: traffic sources offer + the admission queues
  // drain, then the custom hook (both deterministic given the execution so
  // far).
  traffic_->step(engine_->round() + 1);
  if (environment_) environment_(*this, engine_->round() + 1);
  engine_->run_round();
}

void LbSimulation::run_rounds(std::int64_t count) {
  DG_EXPECTS(count >= 0);
  for (std::int64_t i = 0; i < count; ++i) run_round();
}

void LbSimulation::run_phases(std::int64_t count) {
  run_rounds(count * params_->phase_length());
}

}  // namespace dg::lb
