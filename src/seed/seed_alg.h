// SeedAlg (paper Section 3.2): aggressive local leader election yielding
// loosely-agreed seeds.
//
// The algorithm runs log(Delta) phases of c4 * log^2(1/eps1) rounds.  An
// active process elects itself leader at the start of phase h with
// probability 2^-(log Delta - h + 1) (so 1/Delta, 2/Delta, ..., 1/2 across
// phases).  A leader immediately decides on its own seed and spends the
// remaining rounds of its phase broadcasting (id, seed) with probability
// 1/log(1/eps1) per round, then goes inactive.  An active non-leader listens
// for the phase; the first (j, s) it hears becomes its decision.  A process
// still active after the last phase decides on its own seed by default.
//
// `SeedAlgRunner` is a round-driven state machine so LBAlg can embed one per
// phase preamble (Section 4.2); `SeedProcess` wraps a runner as a standalone
// sim::Process for the seed-agreement tests and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "sim/packet.h"
#include "sim/process.h"
#include "util/rng.h"

namespace dg::seed {

/// Parameters of SeedAlg(eps1).  The paper's c4 is a "sufficiently large"
/// constant (>= 2 * 4^(c_r * c3)); the struct keeps the exact formula shape
/// with a tunable c4 whose practical default is calibrated empirically
/// (docs/PAPER_MAP.md, substitutions table).
struct SeedAlgParams {
  double eps1 = 0.25;          ///< error parameter, 0 < eps1 <= 1/4
  int num_phases = 1;          ///< log2(Delta), Delta rounded up to a power of 2
  int phase_length = 1;        ///< c4 * ceil(log2(1/eps1))^2 rounds
  double broadcast_prob = 0.5; ///< leaders transmit w.p. 1/log2(1/eps1)

  /// Builds parameters from the error bound and the known degree bound
  /// Delta (Section 2: processes know Delta).
  static SeedAlgParams make(double eps1, std::size_t delta, double c4 = 2.0);

  int total_rounds() const noexcept { return num_phases * phase_length; }
};

/// Participant status (Section 3.2).  Exposed for the analysis tooling that
/// replays the Appendix B region/goodness arguments; the protocol itself
/// never leaks it.
enum class SeedStatus { active, leader, inactive };

/// The decide output (j, s) of the Seed specification.
struct SeedDecision {
  sim::ProcessId owner = 0;       ///< j: the id whose seed was committed
  std::uint64_t seed_value = 0;   ///< s: the committed seed
  bool by_default = false;        ///< decided at the end of all phases
  bool as_leader = false;         ///< decided by electing itself leader
};

/// Round-driven SeedAlg state machine for one participant.
///
/// Drive it with exactly total_rounds() steps; each step is
/// step_transmit() followed by step_receive() iff step_transmit() returned
/// nullopt (the engine only delivers to listeners).
class SeedAlgRunner {
 public:
  /// Draws the initial seed uniformly from the seed domain using the
  /// process's local randomness.
  SeedAlgRunner(const SeedAlgParams& params, sim::ProcessId self, Rng& rng);

  /// Transmit decision for the next round.  Advances the round cursor.
  std::optional<sim::SeedPayload> step_transmit(Rng& rng);

  /// Reception outcome for the round begun by the last step_transmit()
  /// (call only when that returned nullopt).
  void step_receive(const std::optional<sim::Packet>& packet);

  bool done() const noexcept { return step_ >= params_.total_rounds(); }
  int steps_taken() const noexcept { return step_; }

  /// Number of coming rounds this runner is sure to spend quiet, provided
  /// it hears only nulls: no transmission, no coin, no state change beyond
  /// the round cursor.  A leader draws a broadcast coin every round (0).
  /// An inactive runner is quiet for the rest of the preamble.  An active
  /// runner is quiet up to, but not including, its next phase-start coin
  /// round, and never through the final round, whose reception takes the
  /// default decision.
  int quiet_rounds() const noexcept;

  /// Advances the round cursor past k quiet rounds, exactly as k
  /// step_transmit() / step_receive(nullopt) pairs would.  k must not
  /// exceed quiet_rounds().
  void skip(int k);

  /// The decision, once made (leaders decide at phase start; listeners on
  /// first reception; everyone by the end of the last phase).
  const std::optional<SeedDecision>& decision() const noexcept {
    return decision_;
  }

  std::uint64_t initial_seed() const noexcept { return initial_seed_; }
  SeedStatus status() const noexcept { return status_; }
  const SeedAlgParams& params() const noexcept { return params_; }

 private:
  using Status = SeedStatus;

  void maybe_finish();

  SeedAlgParams params_;
  sim::ProcessId self_;
  std::uint64_t initial_seed_;
  Status status_ = Status::active;
  int step_ = 0;            // rounds already begun
  int phase_index_ = 0;     // == step_ / phase_length, kept incrementally
  int round_in_phase_ = 0;  // == step_ % phase_length, kept incrementally
  std::optional<SeedDecision> decision_;
};

/// Standalone seed-agreement process: drives one SeedAlgRunner and then
/// idles (listening) forever.  Decisions are exposed for the spec checker.
class SeedProcess final : public sim::Process {
 public:
  SeedProcess(const SeedAlgParams& params, sim::ProcessId id, Rng& rng);

  std::optional<sim::Packet> transmit(sim::RoundContext& ctx) override;
  void receive(const std::optional<sim::Packet>& packet,
               sim::RoundContext& ctx) override;

  /// Sparse-round consent, the same quiet rule as LbProcess's preamble:
  /// while the runner is running, its SeedAlgRunner::quiet_rounds() window,
  /// and a catch-up skips the runner's cursor.  Once the runner is done the
  /// process idles forever (transmit() always nullopt, no coins, receptions
  /// ignored), so it promises an effectively unbounded silent horizon; the
  /// done state is absorbing and carries no cursor.
  std::int64_t silent_steps(std::int64_t k) override {
    if (!runner_.done()) {
      if (k > 0) runner_.skip(static_cast<int>(k));
      if (!runner_.done()) return runner_.quiet_rounds();
    }
    return std::numeric_limits<std::int64_t>::max() / 2;
  }

  /// Deaf promises (sim/process.h): an inactive runner ignores what it
  /// hears, and so does a done one (it has decided).  An active listener
  /// is never deaf: the first seed it hears decides it.
  bool deaf() const override {
    if (runner_.done()) return runner_.decision().has_value();
    return runner_.status() == SeedStatus::inactive;
  }

  /// All state lives in the per-vertex runner; no outbound callbacks.
  bool shard_safe() const override { return true; }

  const std::optional<SeedDecision>& decision() const noexcept {
    return runner_.decision();
  }
  /// Round at which the decide output occurred (0 if none yet).
  sim::Round decision_round() const noexcept { return decision_round_; }

  const SeedAlgRunner& runner() const noexcept { return runner_; }

 private:
  SeedAlgRunner runner_;
  bool listening_this_round_ = false;
  sim::Round decision_round_ = 0;
};

}  // namespace dg::seed
