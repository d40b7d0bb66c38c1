#include "seed/seed_alg.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/intmath.h"

namespace dg::seed {

SeedAlgParams SeedAlgParams::make(double eps1, std::size_t delta, double c4) {
  DG_EXPECTS(eps1 > 0.0 && eps1 <= 0.25);
  DG_EXPECTS(delta >= 1);
  DG_EXPECTS(c4 > 0.0);
  SeedAlgParams p;
  p.eps1 = eps1;
  // The paper assumes Delta is a power of 2 and runs log2(Delta) phases.
  const std::uint64_t delta_pow2 = pow2_ceil(delta);
  p.num_phases = std::max(1, ceil_log2(delta_pow2));
  const double log_eps = log2_clamped(1.0 / eps1, /*floor_at=*/2.0);
  p.phase_length = ceil_to_int(c4 * log_eps * log_eps);
  p.broadcast_prob = 1.0 / log_eps;
  DG_ENSURES(p.broadcast_prob <= 0.5 + 1e-12);
  return p;
}

SeedAlgRunner::SeedAlgRunner(const SeedAlgParams& params, sim::ProcessId self,
                             Rng& rng)
    : params_(params), self_(self), initial_seed_(rng.bits()) {}

std::optional<sim::SeedPayload> SeedAlgRunner::step_transmit(Rng& rng) {
  DG_EXPECTS(!done());
  const int phase_index = phase_index_;  // 0-based
  const int round_in_phase = round_in_phase_;
  ++step_;
  if (++round_in_phase_ == params_.phase_length) {
    round_in_phase_ = 0;
    ++phase_index_;
  }

  if (round_in_phase == 0 && status_ == Status::active) {
    // Leader election at the start of phase h = phase_index + 1 with
    // probability 2^-(num_phases - h + 1): 1/Delta, 2/Delta, ..., 1/2.
    const double p =
        std::ldexp(1.0, -(params_.num_phases - (phase_index + 1) + 1));
    if (rng.chance(p)) {
      status_ = Status::leader;
      decision_ = SeedDecision{self_, initial_seed_, /*by_default=*/false,
                               /*as_leader=*/true};
    }
  }

  std::optional<sim::SeedPayload> out;
  if (status_ == Status::leader) {
    // Leaders broadcast (i, s) during the remaining rounds of their phase.
    if (round_in_phase > 0 && rng.chance(params_.broadcast_prob)) {
      out = sim::SeedPayload{self_, initial_seed_};
    }
    if (round_in_phase == params_.phase_length - 1) {
      status_ = Status::inactive;  // takes effect after this round
    }
  }

  return out;
}

void SeedAlgRunner::step_receive(const std::optional<sim::Packet>& packet) {
  if (status_ == Status::active && packet.has_value() && packet->is_seed()) {
    const sim::SeedPayload& payload = packet->seed();
    decision_ = SeedDecision{payload.owner, payload.seed_value,
                             /*by_default=*/false, /*as_leader=*/false};
    status_ = Status::inactive;
  }
  // The default decision can only be taken once the final round's reception
  // has been processed: a node can still adopt a seed heard in the very
  // last round.
  maybe_finish();
}

int SeedAlgRunner::quiet_rounds() const noexcept {
  const int left = params_.total_rounds() - step_;
  switch (status_) {
    case Status::leader:
      return 0;
    case Status::inactive:
      return left;
    case Status::active:
      if (round_in_phase_ == 0) return 0;  // the next round draws a coin
      return std::min(params_.phase_length - round_in_phase_, left - 1);
  }
  return 0;
}

void SeedAlgRunner::skip(int k) {
  DG_EXPECTS(k >= 0 && k <= quiet_rounds());
  step_ += k;
  const int in_phase = round_in_phase_ + k;
  phase_index_ += in_phase / params_.phase_length;
  round_in_phase_ = in_phase % params_.phase_length;
}

void SeedAlgRunner::maybe_finish() {
  if (step_ >= params_.total_rounds() && status_ == Status::active &&
      !decision_.has_value()) {
    // Completed every phase without electing or hearing anyone: decide on
    // the initial seed by default.
    decision_ = SeedDecision{self_, initial_seed_, /*by_default=*/true,
                             /*as_leader=*/false};
    status_ = Status::inactive;
  }
}

SeedProcess::SeedProcess(const SeedAlgParams& params, sim::ProcessId id,
                         Rng& rng)
    : sim::Process(id), runner_(params, id, rng) {}

std::optional<sim::Packet> SeedProcess::transmit(sim::RoundContext& ctx) {
  if (runner_.done()) {
    listening_this_round_ = true;
    return std::nullopt;
  }
  const bool had_decision = runner_.decision().has_value();
  auto payload = runner_.step_transmit(ctx.rng());
  if (!had_decision && runner_.decision().has_value()) {
    decision_round_ = ctx.round();
  }
  listening_this_round_ = !payload.has_value();
  if (!payload.has_value()) return std::nullopt;
  return sim::Packet{id(), *payload};
}

void SeedProcess::receive(const std::optional<sim::Packet>& packet,
                          sim::RoundContext& ctx) {
  DG_ASSERT(listening_this_round_);
  if (runner_.done() && runner_.decision().has_value()) return;
  const bool had_decision = runner_.decision().has_value();
  runner_.step_receive(packet);
  if (!had_decision && runner_.decision().has_value()) {
    decision_round_ = ctx.round();
  }
}

}  // namespace dg::seed
