// Unit tests for SeedAlg: parameter formulas, the runner state machine
// (leader election window, adoption, default decision), and the standalone
// SeedProcess.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "seed/seed_alg.h"
#include "sim/packet.h"
#include "util/rng.h"

namespace dg::seed {
namespace {

sim::Packet seed_packet(sim::ProcessId owner, std::uint64_t value) {
  return sim::Packet{owner, sim::SeedPayload{owner, value}};
}

// ---- parameters ----

TEST(SeedAlgParams, PhaseCountIsLogDelta) {
  EXPECT_EQ(SeedAlgParams::make(0.25, 8).num_phases, 3);
  EXPECT_EQ(SeedAlgParams::make(0.25, 16).num_phases, 4);
  EXPECT_EQ(SeedAlgParams::make(0.25, 17).num_phases, 5);  // rounded up
  EXPECT_EQ(SeedAlgParams::make(0.25, 1).num_phases, 1);   // clamped
}

TEST(SeedAlgParams, PhaseLengthIsC4LogSquared) {
  const auto p = SeedAlgParams::make(0.25, 8, /*c4=*/3.0);
  // log2(1/0.25) = 2 -> phase length = 3 * 4 = 12.
  EXPECT_EQ(p.phase_length, 12);
  EXPECT_EQ(p.total_rounds(), 36);
}

TEST(SeedAlgParams, BroadcastProbabilityIsInverseLog) {
  const auto p = SeedAlgParams::make(1.0 / 16.0, 8);
  EXPECT_DOUBLE_EQ(p.broadcast_prob, 0.25);  // 1/log2(16)
  EXPECT_LE(SeedAlgParams::make(0.25, 8).broadcast_prob, 0.5);
}

TEST(SeedAlgParams, RejectsOutOfRangeEps) {
  EXPECT_DEATH(SeedAlgParams::make(0.3, 8), "precondition");   // > 1/4
  EXPECT_DEATH(SeedAlgParams::make(0.0, 8), "precondition");
}

TEST(SeedAlgParams, ShrinkingEpsGrowsPhaseLength) {
  const auto loose = SeedAlgParams::make(0.25, 16);
  const auto tight = SeedAlgParams::make(0.01, 16);
  EXPECT_GT(tight.phase_length, loose.phase_length);
  EXPECT_EQ(tight.num_phases, loose.num_phases);  // depends only on Delta
}

// ---- runner state machine ----

TEST(SeedAlgRunner, NeverTransmitsInLeaderElectionRound) {
  // Leaders broadcast only in the *remaining* rounds of their phase, so no
  // transmission can ever happen in round 0 of any phase.
  const auto params = SeedAlgParams::make(0.25, 16);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    SeedAlgRunner runner(params, /*self=*/1, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      auto out = runner.step_transmit(rng);
      if (step % params.phase_length == 0) {
        EXPECT_FALSE(out.has_value()) << "step " << step;
      }
      if (!out.has_value()) runner.step_receive(std::nullopt);
    }
  }
}

TEST(SeedAlgRunner, IsolatedNodeDecidesItself) {
  // With nothing ever received, the node either elects itself leader or
  // defaults -- both commit its own id and initial seed.
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    SeedAlgRunner runner(params, /*self=*/99, rng);
    while (!runner.done()) {
      if (!runner.step_transmit(rng).has_value()) {
        runner.step_receive(std::nullopt);
      }
    }
    ASSERT_TRUE(runner.decision().has_value());
    EXPECT_EQ(runner.decision()->owner, 99u);
    EXPECT_EQ(runner.decision()->seed_value, runner.initial_seed());
    EXPECT_TRUE(runner.decision()->as_leader || runner.decision()->by_default);
  }
}

TEST(SeedAlgRunner, AdoptsHeardSeedAndGoesInactive) {
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(11);
  SeedAlgRunner runner(params, /*self=*/1, rng);
  // Step into round 2 of phase 1 (no self election at 1/Delta w.h.p. is not
  // guaranteed, so retry trials until the runner is still active).
  auto out = runner.step_transmit(rng);
  if (out.has_value() || runner.decision().has_value()) {
    GTEST_SKIP() << "node elected itself in this trial";
  }
  runner.step_receive(seed_packet(42, 0xbeef));
  ASSERT_TRUE(runner.decision().has_value());
  EXPECT_EQ(runner.decision()->owner, 42u);
  EXPECT_EQ(runner.decision()->seed_value, 0xbeefu);
  EXPECT_FALSE(runner.decision()->as_leader);
  EXPECT_FALSE(runner.decision()->by_default);
  EXPECT_EQ(runner.status(), SeedStatus::inactive);
}

TEST(SeedAlgRunner, FirstHeardSeedWins) {
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(13);
  SeedAlgRunner runner(params, 1, rng);
  if (runner.step_transmit(rng).has_value() ||
      runner.decision().has_value()) {
    GTEST_SKIP() << "node elected itself in this trial";
  }
  runner.step_receive(seed_packet(50, 1));
  if (!runner.done()) {
    runner.step_transmit(rng);
    runner.step_receive(seed_packet(60, 2));  // ignored: already decided
  }
  EXPECT_EQ(runner.decision()->owner, 50u);
}

TEST(SeedAlgRunner, HearingInLastRoundBeatsDefault) {
  // A seed heard in the very last round must be adopted, not defaulted.
  const auto params = SeedAlgParams::make(0.25, 1);  // 1 phase
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    SeedAlgRunner runner(params, 1, rng);
    bool self_elected = false;
    for (int step = 0; step < params.total_rounds(); ++step) {
      const auto out = runner.step_transmit(rng);
      if (runner.decision().has_value() &&
          runner.decision()->owner == 1u) {
        self_elected = true;
        break;
      }
      const bool last = step == params.total_rounds() - 1;
      if (!out.has_value()) {
        runner.step_receive(last ? std::optional<sim::Packet>(
                                       seed_packet(7, 0xfee))
                                 : std::nullopt);
      }
    }
    if (self_elected) continue;
    ASSERT_TRUE(runner.decision().has_value());
    EXPECT_EQ(runner.decision()->owner, 7u);
    EXPECT_FALSE(runner.decision()->by_default);
  }
}

TEST(SeedAlgRunner, LeaderElectionProbabilityRampsUp) {
  // Measure per-phase election frequency on isolated runners: phase h has
  // probability 2^-(num_phases - h + 1), so the last phase is 1/2.
  const auto params = SeedAlgParams::make(0.25, 16);  // 4 phases
  const int trials = 4000;
  std::vector<int> elected_in_phase(params.num_phases + 1, 0);
  Rng rng(17);
  for (int t = 0; t < trials; ++t) {
    SeedAlgRunner runner(params, 1, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      const bool had = runner.decision().has_value();
      if (!runner.step_transmit(rng).has_value()) {
        runner.step_receive(std::nullopt);
      }
      if (!had && runner.decision().has_value() &&
          runner.decision()->as_leader) {
        elected_in_phase[step / params.phase_length + 1]++;
        break;
      }
    }
  }
  // Phase 1: p = 1/16; phase 2 conditional p = 1/8, ...
  EXPECT_NEAR(elected_in_phase[1] / double(trials), 1.0 / 16, 0.02);
  const double p2_conditional =
      elected_in_phase[2] / double(trials - elected_in_phase[1]);
  EXPECT_NEAR(p2_conditional, 1.0 / 8, 0.02);
}

TEST(SeedAlgRunner, StepsBeyondTotalAbort) {
  const auto params = SeedAlgParams::make(0.25, 2);
  Rng rng(3);
  SeedAlgRunner runner(params, 1, rng);
  for (int step = 0; step < params.total_rounds(); ++step) {
    if (!runner.step_transmit(rng).has_value()) {
      runner.step_receive(std::nullopt);
    }
  }
  EXPECT_TRUE(runner.done());
  EXPECT_DEATH(runner.step_transmit(rng), "precondition");
}

TEST(SeedAlgRunner, LeaderBroadcastsItsOwnSeed) {
  const auto params = SeedAlgParams::make(0.25, 4);
  Rng rng(23);
  for (int trial = 0; trial < 400; ++trial) {
    SeedAlgRunner runner(params, 77, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      const auto out = runner.step_transmit(rng);
      if (out.has_value()) {
        EXPECT_EQ(out->owner, 77u);
        EXPECT_EQ(out->seed_value, runner.initial_seed());
        // Transmitting requires leader status; on the final round of the
        // phase the runner already advanced to inactive for the next round.
        const bool phase_last =
            step % params.phase_length == params.phase_length - 1;
        EXPECT_EQ(runner.status(),
                  phase_last ? SeedStatus::inactive : SeedStatus::leader);
      } else {
        runner.step_receive(std::nullopt);
      }
    }
  }
}

// ---- quiet windows (SeedAlgRunner::quiet_rounds / skip) ----

SeedAlgParams raw_params(int num_phases, int phase_length) {
  SeedAlgParams p;
  p.num_phases = num_phases;
  p.phase_length = phase_length;
  p.broadcast_prob = 0.5;
  return p;
}

/// One round of a runner: transmit, and receive `heard` iff it listened.
void step_round(SeedAlgRunner& runner, Rng& rng,
                const std::optional<sim::Packet>& heard) {
  if (!runner.step_transmit(rng).has_value()) runner.step_receive(heard);
}

TEST(SeedAlgRunner, SkippingQuietWindowsMatchesStepping) {
  // Differential: runner A is stepped every round; runner B, on an
  // identical stream, skips every window it promises, the way the engine
  // parks a vertex -- except that a seed delivery inside a window wakes it
  // at that round (skip up to it, then a real step).  Both hear the same
  // receptions and must end in the same state.  Every window's edges are
  // checked as it is promised.
  const SeedAlgParams param_sets[] = {
      raw_params(1, 1),  raw_params(1, 6), raw_params(4, 1),
      raw_params(3, 2),  raw_params(2, 7), SeedAlgParams::make(0.25, 16),
      SeedAlgParams::make(0.1, 8, 1.0)};
  std::int64_t windows = 0, skipped = 0;
  for (const SeedAlgParams& params : param_sets) {
    const int total = params.total_rounds();
    const int len = params.phase_length;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      // A seed is delivered at one round in three trials out of four
      // (seeds 0 mod 4 hear only nulls).
      const int deliver_at =
          seed % 4 == 0 ? -1 : static_cast<int>((seed * 7919) % total);
      const auto heard = [&](int round) {
        return round == deliver_at
                   ? std::optional<sim::Packet>(seed_packet(9, 0xabc))
                   : std::nullopt;
      };
      Rng rng_a(seed), rng_b(seed);
      SeedAlgRunner a(params, 1, rng_a), b(params, 1, rng_b);
      for (int round = 0; round < total; ++round) {
        step_round(a, rng_a, heard(round));
      }
      while (!b.done()) {
        step_round(b, rng_b, heard(b.steps_taken()));
        const int next = b.steps_taken();  // first round of the window
        const int q = b.quiet_rounds();
        ASSERT_GE(q, 0);
        ASSERT_LE(q, total - next);
        if (b.status() == SeedStatus::leader) {
          EXPECT_EQ(q, 0);
        }
        if (b.status() == SeedStatus::active && q > 0) {
          for (int r = next; r < next + q; ++r) {
            EXPECT_NE(r % len, 0) << "window covers a phase-start round";
          }
          EXPECT_LT(next + q - 1, total - 1)
              << "window covers the final preamble round";
        }
        int k = q;
        if (deliver_at >= next && deliver_at < next + q) {
          k = deliver_at - next;  // woken by the delivery
        }
        b.skip(k);
        windows += q > 0;
        skipped += k;
      }
      ASSERT_EQ(a.steps_taken(), b.steps_taken());
      EXPECT_EQ(a.status(), b.status());
      ASSERT_EQ(a.decision().has_value(), b.decision().has_value());
      EXPECT_EQ(a.decision()->owner, b.decision()->owner);
      EXPECT_EQ(a.decision()->seed_value, b.decision()->seed_value);
      EXPECT_EQ(a.decision()->by_default, b.decision()->by_default);
      EXPECT_EQ(a.decision()->as_leader, b.decision()->as_leader);
      EXPECT_EQ(rng_a.bits(), rng_b.bits()) << "rng streams diverged";
    }
  }
  EXPECT_GT(windows, 1000);
  EXPECT_GT(skipped, windows);
}

TEST(SeedAlgRunner, QuietWindowsByStatus) {
  // 3 phases of 4 rounds.  An inactive runner is quiet through the end of
  // the preamble; an active one up to its next phase start, and never
  // through the final round.
  const auto params = raw_params(3, 4);
  Rng rng(41);
  SeedAlgRunner runner(params, 1, rng);
  EXPECT_EQ(runner.quiet_rounds(), 0);  // round 0 draws the election coin
  step_round(runner, rng, std::nullopt);
  if (runner.status() != SeedStatus::active) {
    GTEST_SKIP() << "node elected itself in this trial";
  }
  EXPECT_EQ(runner.quiet_rounds(), 3);  // rounds 1..3 of phase 1
  runner.skip(2);
  EXPECT_EQ(runner.steps_taken(), 3);
  EXPECT_EQ(runner.quiet_rounds(), 1);
  step_round(runner, rng, seed_packet(5, 6));  // hears a seed in round 3
  ASSERT_EQ(runner.status(), SeedStatus::inactive);
  EXPECT_EQ(runner.quiet_rounds(), params.total_rounds() - 4);
  runner.skip(runner.quiet_rounds());
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.decision()->owner, 5u);
}

TEST(SeedProcess, DeafWindowsIgnoreEverySeed) {
  // Two copies of a SeedProcess, stepped by hand every round on the same
  // receptions except inside a deaf promise (sim::Process::deaf): there
  // one copy hears null and the other a random seed.  Transmits,
  // decisions, decision rounds and promises must agree throughout, and
  // past the end of the runner.  Outside deaf windows both hear the same
  // sparse random seeds, so listeners decide by ear as well as by default.
  const SeedAlgParams param_sets[] = {raw_params(3, 4), raw_params(2, 7),
                                      SeedAlgParams::make(0.25, 16)};
  std::int64_t deaf_rounds = 0, by_ear = 0;
  for (const SeedAlgParams& params : param_sets) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng init_a(seed), init_b(seed), env(seed, 1);
      SeedProcess a(params, 1, init_a), b(params, 1, init_b);
      Rng rng_a(seed, 2), rng_b(seed, 2);
      sim::Round deaf_until = 0;
      for (sim::Round t = 1; t <= params.total_rounds() + 5; ++t) {
        sim::RoundContext ctx_a(t, rng_a), ctx_b(t, rng_b);
        const auto sent_a = a.transmit(ctx_a);
        const auto sent_b = b.transmit(ctx_b);
        ASSERT_EQ(sent_a.has_value(), sent_b.has_value()) << "round " << t;
        if (!sent_a.has_value()) {
          std::optional<sim::Packet> heard;
          if (env.chance(0.08)) heard = seed_packet(7, env.bits());
          if (t <= deaf_until) {
            ++deaf_rounds;
            a.receive(std::nullopt, ctx_a);
            b.receive(seed_packet(8 + env.below(4), env.bits()), ctx_b);
          } else {
            a.receive(heard, ctx_a);
            b.receive(heard, ctx_b);
          }
        }
        const std::int64_t promise = a.silent_steps(0);
        ASSERT_EQ(promise, b.silent_steps(0)) << "round " << t;
        ASSERT_EQ(a.deaf(), b.deaf()) << "round " << t;
        if (promise > 0 && a.deaf()) {
          deaf_until = std::max(deaf_until, t + promise);
        }
        ASSERT_EQ(a.decision().has_value(), b.decision().has_value());
        if (a.decision().has_value()) {
          ASSERT_EQ(a.decision()->owner, b.decision()->owner) << t;
          ASSERT_EQ(a.decision()->seed_value, b.decision()->seed_value);
        }
        ASSERT_EQ(a.decision_round(), b.decision_round());
      }
      ASSERT_TRUE(a.decision().has_value());
      by_ear += a.decision()->owner == 7;
      EXPECT_EQ(rng_a.bits(), rng_b.bits()) << "rng streams diverged";
    }
  }
  EXPECT_GT(deaf_rounds, 1000);
  EXPECT_GT(by_ear, 50);
}

TEST(SeedAlgRunner, InitialSeedsAreIndependentDraws) {
  Rng rng(29);
  const auto params = SeedAlgParams::make(0.25, 4);
  SeedAlgRunner a(params, 1, rng), b(params, 2, rng);
  EXPECT_NE(a.initial_seed(), b.initial_seed());  // w.o.p.
}

}  // namespace
}  // namespace dg::seed
