// Injector: the admission layer between TrafficSources and the LB service.
//
// LbProcess admits at most one outstanding message per node (the Section
// 4.1 environment contract), but open-loop sources generate arrivals
// whenever they like.  The injector bridges the two with a per-node FIFO
// queue: sources offer() arrivals each round; the injector admits the head
// of a node's queue whenever the service is idle there, and records the
// full life cycle of every message -- enqueue, admission, first remote
// recv, ack or abort -- in a TrafficStats ledger.
//
// Everything here is deterministic given the sources' seeds: counters and
// latency sums are pure functions of the execution, so campaign counter
// files carrying them stay byte-identical across thread counts (the CI
// gating property).
//
// Layering: the injector drives the service through the narrow LbPort
// interface, so traffic/ depends only on sim/ + graph/ -- lb/simulation.h
// owns an Injector and adapts itself to LbPort, not the other way around.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/packet.h"
#include "traffic/index_fifo.h"
#include "traffic/source.h"

namespace dg::traffic {

/// What the injector needs from the broadcast service.
class LbPort {
 public:
  virtual ~LbPort() = default;
  /// The service's one-outstanding busy bits: one byte per vertex, nonzero
  /// while v has a message outstanding.  Byte v is written only by v's own
  /// LbProcess, at its busy transitions.  The span views live memory for
  /// the port's lifetime, so an admit() shows in it at once.
  virtual std::span<const std::uint8_t> busy_flags() const = 0;
  /// Posts bcast(m) at v (contract: only when !busy(v)); returns m's id.
  virtual sim::MessageId admit(graph::Vertex v, std::uint64_t content) = 0;
};

/// One enqueued message's life cycle (rounds are 0 where the event has not
/// happened).  enqueue -> admit is queueing delay; enqueue -> ack is the
/// end-to-end latency the E15 experiments chart; enqueue -> first_recv is
/// time to first remote delivery.
struct MessageRecord {
  graph::Vertex vertex = 0;
  std::uint64_t content = 0;
  sim::MessageId id;  ///< assigned at admission (zero while queued)
  sim::Round enqueue_round = 0;
  sim::Round admit_round = 0;
  sim::Round first_recv_round = 0;
  sim::Round ack_round = 0;
  sim::Round abort_round = 0;
  /// Re-queued by a crash of its node while admitted-but-unacked; a later
  /// admission of this record counts as a re-admission.
  bool requeued = false;

  bool admitted() const noexcept { return admit_round != 0; }
  bool acked() const noexcept { return ack_round != 0; }
  bool aborted() const noexcept { return abort_round != 0; }
};

/// Aggregate counters (all deterministic; latency sums pair with their
/// event counts so means never lose information).
struct TrafficStats {
  std::uint64_t offered = 0;   ///< offer() calls, including dropped
  std::uint64_t enqueued = 0;  ///< offers accepted into a queue
  std::uint64_t dropped = 0;   ///< offers rejected at queue capacity
  std::uint64_t admitted = 0;  ///< bcast inputs posted
  std::uint64_t acked = 0;
  std::uint64_t aborted = 0;
  std::uint64_t first_recvs = 0;  ///< messages with >= 1 recv output

  // Fault accounting (crash/recover schedules, see fault/plan.h).  A crash
  // aborts the node's in-flight admitted-but-unacked message; the injector
  // puts it back at the HEAD of the queue -- the source's intent outlives
  // the node -- and re-admits it after recovery.
  std::uint64_t crash_requeues = 0;  ///< in-flight messages re-queued by a crash
  std::uint64_t readmitted = 0;      ///< re-admissions of crash-requeued messages

  std::uint64_t wait_sum = 0;         ///< enqueue->admit, over admitted
  std::uint64_t ack_latency_sum = 0;  ///< enqueue->ack, over acked
  std::uint64_t recv_latency_sum = 0;  ///< enqueue->first recv

  // Two different scopes on purpose: backlog is the NETWORK-WIDE queued
  // total (the "how far behind is the system" series), depth_max the
  // worst SINGLE-NODE queue (the "how big must a buffer be" bound).
  std::uint64_t depth_samples = 0;  ///< rounds observed
  std::uint64_t depth_sum = 0;      ///< network-wide queued total, per round
  std::uint64_t depth_max = 0;      ///< max single-node queue depth

  double mean_wait() const noexcept {
    return admitted ? static_cast<double>(wait_sum) /
                          static_cast<double>(admitted)
                    : 0.0;
  }
  double mean_ack_latency() const noexcept {
    return acked ? static_cast<double>(ack_latency_sum) /
                       static_cast<double>(acked)
                 : 0.0;
  }
  double mean_recv_latency() const noexcept {
    return first_recvs ? static_cast<double>(recv_latency_sum) /
                             static_cast<double>(first_recvs)
                       : 0.0;
  }
  /// Mean network-wide backlog (queued messages summed over all nodes)
  /// per observed round.  NOT per-node: it can exceed depth_max.
  double mean_backlog() const noexcept {
    return depth_samples ? static_cast<double>(depth_sum) /
                               static_cast<double>(depth_samples)
                         : 0.0;
  }
};

class Injector {
 public:
  /// `port` must outlive the injector.
  Injector(std::size_t nodes, LbPort& port);

  // ---- configuration ----

  void add_source(std::unique_ptr<TrafficSource> source);

  /// Per-node queue bound; offers beyond it are dropped (and counted).
  /// 0 = unbounded (default).
  void set_queue_capacity(std::size_t capacity) { capacity_ = capacity; }

  // ---- per-round driving (called by LbSimulation) ----

  /// The environment input step for `round` (the round about to execute):
  /// every source steps in attach order, then each node with an idle
  /// service admits its queue head, then queue depths are sampled.
  void step(sim::Round round);

  // ---- service output notifications (wired through LbSimulation) ----

  void on_ack(const sim::MessageId& m, sim::Round round);
  void on_recv(const sim::MessageId& m, sim::Round round);
  void on_abort(const sim::MessageId& m, sim::Round round);

  // ---- fault notifications (wired through LbSimulation's FaultListener) --

  /// Vertex v crashed at `round`.  Any admitted-but-unacked message of v's
  /// is accounted as aborted and re-queued at the head of v's queue (the
  /// queue is the source's intent, which outlives the node; the re-queue
  /// bypasses the capacity bound -- the message was already accepted once).
  /// While down, v admits nothing; offers keep queueing as usual.
  void on_crash(graph::Vertex v, sim::Round round);
  /// Vertex v recovered: admission resumes at the next step().
  void on_recover(graph::Vertex v, sim::Round round);

  // ---- results ----

  const TrafficStats& stats() const noexcept { return stats_; }
  /// Every non-dropped message ever offered, in enqueue order.
  const std::vector<MessageRecord>& messages() const noexcept {
    return records_;
  }
  std::size_t queue_depth(graph::Vertex v) const {
    return queues_[v].size();
  }
  bool down(graph::Vertex v) const { return down_[v]; }

 private:
  class Port;  // Admission implementation handed to sources

  void enqueue(graph::Vertex v, std::uint64_t content, bool auto_content,
               sim::Round round);

  LbPort* port_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::size_t capacity_ = 0;

  std::vector<IndexFifo> queues_;  ///< record indices, FIFO
  /// Vertices whose queue is non-empty (each exactly once, in
  /// empty->non-empty transition order).  The admission and depth-sample
  /// steps iterate this instead of all n queues, so a round costs
  /// O(#sources + #queued vertices) -- the keep_busy shim stays off the
  /// engine's O(n) budget on big topologies.
  std::vector<graph::Vertex> active_;
  std::vector<std::uint64_t> arrival_counter_;   ///< auto-content per node
  std::vector<bool> down_;  ///< crashed vertices admit nothing
  /// Record index + 1 of the admitted-but-unacked message per vertex
  /// (0 = none); lets a crash find the in-flight message without a scan.
  std::vector<std::size_t> inflight_;
  std::vector<MessageRecord> records_;
  /// Admitted id -> record index (acks/recvs/aborts arrive by MessageId).
  std::unordered_map<sim::MessageId, std::size_t, sim::MessageIdHash>
      index_of_;
  TrafficStats stats_;
};

}  // namespace dg::traffic
