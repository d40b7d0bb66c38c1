// The process abstraction of Section 2.
//
// A process is a probabilistic automaton driven in synchronous rounds.  The
// paper's round micro-structure is: (1) environment inputs, (2) transmit
// decisions, (3) reception, (4) outputs.  The engine realizes (2) and (3)
// through this interface; (1) and (4) are realized by protocol-specific
// wrappers that talk to typed process subclasses between engine rounds.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/packet.h"
#include "util/rng.h"

namespace dg::sim {

/// Round numbers are 1-based, as in the paper ("rounds 1, 2, ...").
using Round = std::int64_t;

/// Per-round context handed to a process.  Grants access to the round number
/// and the process's own local randomness -- and nothing else (processes
/// must stay local: no n, no topology, no other processes).
class RoundContext {
 public:
  RoundContext(Round round, Rng& rng) : round_(round), rng_(&rng) {}

  Round round() const noexcept { return round_; }
  Rng& rng() noexcept { return *rng_; }

 private:
  Round round_;
  Rng* rng_;
};

class Process {
 public:
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const noexcept { return id_; }

  /// Step (2): decide to transmit (return a packet) or to receive
  /// (return nullopt).  Called exactly once per round.
  virtual std::optional<Packet> transmit(RoundContext& ctx) = 0;

  /// Step (3): reception outcome.  Called exactly once per round for
  /// *listening* processes only; `packet` is nullopt for the silence /
  /// collision indicator (the paper's "null" -- no collision detection, so
  /// silence and collision are indistinguishable).
  virtual void receive(const std::optional<Packet>& packet,
                       RoundContext& ctx) = 0;

  /// End of the round, after reception everywhere.  Protocol outputs (ack,
  /// recv, decide) are emitted from here via protocol-specific callbacks.
  virtual void end_round(RoundContext& ctx) { (void)ctx; }

  /// Fault seam (a fault plan installed via Engine::configure).  While
  /// crashed, the process gets no transmit()/receive()/end_round() calls
  /// at all; on_crash fires once at the crash round (after the wrapper's
  /// FaultListener has read any pre-crash state it needs) and on_recover
  /// once at the recovery round, where the process must re-initialize its
  /// protocol state -- keeping only identity-level facts (its id, message
  /// sequence numbers) so a recovered node rejoins as itself, not as a
  /// duplicate.  Both are invoked serially at the round boundary, never
  /// from worker threads.
  virtual void on_crash(Round round) { (void)round; }
  virtual void on_recover(Round round) { (void)round; }

  /// Parking consent (mirrors shard_safe()).  The engine calls this in two
  /// ways:
  ///
  ///  * `silent_steps(0)` -- a pure promise query.  The return value j >= 0
  ///    is the number of FUTURE rounds this process promises to be silent
  ///    for, PROVIDED it keeps receiving only null receptions: during those
  ///    rounds it would not transmit, emit no outputs, draw no randomness,
  ///    and treat receive(nullopt)/end_round() as no-ops.  Returning 0
  ///    (the default) opts out -- the engine steps the process every round.
  ///
  ///  * `silent_steps(k)` with k > 0 -- a batched catch-up.  The engine
  ///    reports that k consecutive promised-silent rounds have completed
  ///    without being stepped; the process must advance its round-position
  ///    cursor by k (a closed-form jump, no per-round work) so its state is
  ///    exactly what k individual silent rounds would have produced.  The
  ///    return value is a fresh promise for the rounds after the jump.
  ///
  /// A promise is conditional: if anything arrives (an unmasked count==1
  /// delivery, unless the promise is deaf -- see deaf()) or a fault event
  /// fires, the engine catches the process up and resumes per-round
  /// stepping, so the observable execution is byte-identical to stepping
  /// every round.  Invoked under the same concurrency discipline as
  /// transmit()/receive(): from the owning block, which runs on a worker
  /// thread only in sharded rounds (sharding already requires
  /// shard_safe() consent from every process).
  virtual std::int64_t silent_steps(std::int64_t k) {
    (void)k;
    return 0;
  }

  /// Deaf promise.  Asked right after silent_steps(0) returned j > 0, about
  /// that promise: true declares its j rounds deaf, i.e. receive() of ANY
  /// packet inside them is as much a no-op as receive(nullopt) -- no state
  /// change, no output, no randomness.  The engine then leaves a delivery
  /// inside the window undelivered and the process parked; observers and
  /// the verdict counters still see the delivery.  A process whose next
  /// reception could change what it does (e.g. a listener that adopts the
  /// first value it hears) must return false, the default.
  virtual bool deaf() const { return false; }

  /// True when transmit()/receive()/end_round() touch only this process's
  /// own state (plus its RoundContext rng), so the engine may run different
  /// vertices' steps concurrently within a phase.  Processes whose callbacks
  /// fan out into shared protocol state (spec checkers, traffic ledgers)
  /// must return false unless that fan-out is concurrency-safe -- the
  /// engine runs every round as one inline block when any process
  /// declines, so the conservative default costs correctness nothing.
  virtual bool shard_safe() const { return false; }

 protected:
  explicit Process(ProcessId id) : id_(id) {}

 private:
  ProcessId id_;
};

}  // namespace dg::sim
