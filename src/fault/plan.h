// Deterministic fault injection: crash/recover/churn schedules.
//
// The paper's guarantees are stated over *unreliable links* but a static
// population; this layer tests the claim that matters for dynamic
// deployments (cf. the multi-message-broadcast line over unreliable links,
// PAPERS.md) by crashing and recovering whole vertices against the running
// engine.  A FaultPlan is consulted once per round, *serially*, at the top
// of Engine::run_round() -- before the transmit phase, in both the serial
// and the sharded round loop -- so the crashed set is frozen before any
// block-parallel work starts and executions stay byte-identical at every
// round_threads value.
//
// Semantics of a crashed vertex: it neither transmits nor receives (its
// process's transmit()/receive()/end_round() are simply not called, and no
// observer events are emitted for it), its rng stream pauses, and the
// engine fires Process::on_crash / FaultListener::on_crash exactly once at
// the crash round.  Recovery fires Process::on_recover (the process
// re-initializes its protocol state, keeping only identity-level facts) and
// FaultListener::on_recover.  Join/leave are the degenerate schedules:
// leave = crash with no recovery, join = start crashed, recover once.
//
// All plan randomness derives from the engine's master seed under the
// dedicated stream tag 0xFA17, so fault schedules perturb no protocol,
// scheduler or traffic coins -- attaching a plan changes *only* the rounds
// it touches.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/process.h"
#include "util/bitmap.h"
#include "util/rng.h"

namespace dg::fault {

/// Stream tag partitioning fault randomness away from every other consumer
/// of the master seed (processes 0x9..., traffic 0x7fc, ids 0x1d5).
inline constexpr std::uint64_t kFaultStream = 0xFA17ULL;

enum class FaultKind : std::uint8_t {
  kCrash,    ///< vertex goes down at this round (before transmitting)
  kRecover,  ///< vertex comes back up at this round (may transmit again)
};

struct FaultEvent {
  sim::Round round = 0;
  graph::Vertex vertex = 0;
  FaultKind kind = FaultKind::kCrash;
};

/// Protocol-wrapper hook for fault bookkeeping (LbSimulation aborts the
/// crashed vertex's in-flight broadcast and tells the traffic injector to
/// park its queue).  For a crash the listener fires *before*
/// Process::on_crash, so it can still read the pre-crash process state; for
/// a recovery it fires *after* Process::on_recover, so it talks to a
/// re-initialized process.
class FaultListener {
 public:
  virtual ~FaultListener() = default;
  virtual void on_crash(sim::Round round, graph::Vertex v) = 0;
  virtual void on_recover(sim::Round round, graph::Vertex v) = 0;
};

/// A deterministic per-round fault schedule.  bind() is called once by
/// Engine::configure with the execution's graph and master seed;
/// plan_round() is then called serially at the top of every round with the
/// currently-crashed set and appends this round's events.  Events for
/// already-crashed (crash) / already-up (recover) vertices are ignored by
/// the engine, so plans may emit idempotently.
class FaultPlan {
 public:
  virtual ~FaultPlan() = default;

  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  virtual void bind(const graph::DualGraph& g, std::uint64_t master_seed) = 0;
  virtual void plan_round(sim::Round round, const Bitmap& crashed,
                          std::vector<FaultEvent>& out) = 0;

  /// Progress feed for adversarial plans: the wrapper reports protocol
  /// progress (LbSimulation forwards every ack) so a plan can target the
  /// highest-progress vertices.  Default: ignored.
  virtual void note_progress(graph::Vertex v) { (void)v; }

  virtual const char* name() const noexcept = 0;
};

/// Fixed script: the event list, verbatim.  Events must be sorted by round
/// (ties in list order).  The programmatic plan behind tests and the
/// `crash:` spec form.
class ScriptFaultPlan final : public FaultPlan {
 public:
  explicit ScriptFaultPlan(std::vector<FaultEvent> events);

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  void plan_round(sim::Round round, const Bitmap& crashed,
                  std::vector<FaultEvent>& out) override;
  const char* name() const noexcept override { return "script"; }

 private:
  std::vector<FaultEvent> events_;  ///< sorted by round
  std::size_t next_ = 0;            ///< first event not yet emitted
};

/// Scheduled recoveries: a min-heap on (round, vertex).  A round pops what
/// falls due, so a plan's recovery work scales with its recoveries instead
/// of scanning all n vertices.
class RecoveryCalendar {
 public:
  void clear() noexcept { heap_.clear(); }
  void schedule(sim::Round round, graph::Vertex v);
  /// Round of the earliest scheduled recovery, if any.
  std::optional<sim::Round> next() const;
  /// Removes every entry due by `round` and appends its kRecover event,
  /// stamped `round`, in (due round, vertex) order: ascending by vertex
  /// when called every round.  Each such vertex must still be down in
  /// `crashed`.
  void pop_due(sim::Round round, const Bitmap& crashed,
               std::vector<FaultEvent>& out);

 private:
  std::vector<std::pair<sim::Round, graph::Vertex>> heap_;
};

/// Memoryless churn: each up vertex crashes with probability rate/n per
/// round (so `rate` is the expected network-wide crash arrivals per round,
/// mirroring the poisson traffic spec), and each crash draws an
/// exponential repair time with the given mean, floored to whole rounds
/// (at least 1).
///
/// The plan runs one Bernoulli(rate/n) trial per (round, vertex) pair,
/// round by round and ascending by vertex within a round; a success on a
/// vertex that is already down is void, so each up vertex still crashes
/// independently with probability rate/n.  Rather than a coin per trial it
/// draws the geometric gap to the next success, and it keeps recoveries in
/// a RecoveryCalendar.  A round therefore costs O(1 + rate + events *
/// log(down vertices)), whatever n is.
///
/// Event order: within a round, events ascend by vertex, crashes and
/// recoveries interleaved.  A vertex that recovers in a round is not a
/// crash candidate in that round, and a crash is never repaired in the
/// round it happens.
class PoissonFaultPlan final : public FaultPlan {
 public:
  PoissonFaultPlan(double rate, double mean_repair);

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  void plan_round(sim::Round round, const Bitmap& crashed,
                  std::vector<FaultEvent>& out) override;
  const char* name() const noexcept override { return "poisson"; }

  /// Round of the earliest scheduled recovery, if any.
  std::optional<sim::Round> next_recovery() const { return calendar_.next(); }

 private:
  /// Failed trials before the next success: Geometric(rate/n) on the
  /// 0xFA17 stream.
  std::uint64_t draw_gap();

  double rate_;
  double mean_repair_;
  double per_vertex_prob_ = 0.0;
  double log_keep_ = 0.0;  ///< log(1 - rate/n)
  Rng rng_{0};
  std::uint64_t gap_ = 0;  ///< trials left before the next success
  RecoveryCalendar calendar_;
  std::vector<FaultEvent> due_, crashes_;  ///< per-round scratch
};

/// Correlated region kill: at `round`, every vertex within `radius` G-hops
/// of `center` crashes at once; all of them recover together `repair`
/// rounds later (repair 0 = never -- a permanent leave).
class RegionFaultPlan final : public FaultPlan {
 public:
  RegionFaultPlan(sim::Round round, graph::Vertex center, int radius,
                  sim::Round repair);

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  void plan_round(sim::Round round, const Bitmap& crashed,
                  std::vector<FaultEvent>& out) override;
  const char* name() const noexcept override { return "region"; }

 private:
  sim::Round kill_round_;
  graph::Vertex center_;
  int radius_;
  sim::Round repair_;
  std::vector<graph::Vertex> region_;  ///< BFS ball, ascending
};

/// k-crash adversary: every `period` rounds it crashes the k up vertices
/// with the most protocol progress (acks fed via note_progress; ties break
/// toward the lower vertex), each recovering `repair` rounds later.  The
/// target scan is O(n) on attack rounds only; recoveries come off a
/// RecoveryCalendar.
/// Seed-deterministic like the adaptive jammer -- and, like it, strictly
/// stronger than the paper's oblivious model: it reacts to the execution.
class AdversaryFaultPlan final : public FaultPlan {
 public:
  AdversaryFaultPlan(int k, sim::Round period, sim::Round repair);

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  void plan_round(sim::Round round, const Bitmap& crashed,
                  std::vector<FaultEvent>& out) override;
  void note_progress(graph::Vertex v) override;
  const char* name() const noexcept override { return "adversary"; }

 private:
  int k_;
  sim::Round period_;
  sim::Round repair_;
  std::vector<std::uint64_t> progress_;
  RecoveryCalendar calendar_;
};

}  // namespace dg::fault
