#include "lb/lb_alg.h"

#include <cmath>
#include <utility>

#include "util/assert.h"

namespace dg::lb {

LbProcess::LbProcess(std::shared_ptr<const LbParams> params,
                     sim::ProcessId id, graph::Vertex vertex,
                     LbListener* listener, std::uint8_t* busy_flag,
                     std::uint32_t origin_hint)
    : sim::Process(id),
      params_(std::move(params)),
      vertex_(vertex),
      origin_hint_(origin_hint),
      listener_(listener),
      busy_flag_(busy_flag),
      group_len_(params_->group_length()) {
  DG_EXPECTS(params_->phases_per_seed >= 1);
  publish_busy();
}

LbProcess::LbProcess(const LbParams& params, sim::ProcessId id,
                     graph::Vertex vertex, LbListener* listener,
                     std::uint8_t* busy_flag)
    : LbProcess(std::make_shared<const LbParams>(params), id, vertex,
                listener, busy_flag) {}

sim::MessageId LbProcess::post_bcast(std::uint64_t content) {
  // Environment contract (Section 4.1): one outstanding bcast at a time.
  DG_EXPECTS(!busy());
  const sim::MessageId m{id(), ++next_seq_};
  pending_ = ActiveMessage{m, content, params_->t_ack_phases};
  publish_busy();
  return m;
}

std::optional<sim::MessageId> LbProcess::abort() {
  std::optional<sim::MessageId> aborted;
  if (current_.has_value()) {
    aborted = current_->id;
    current_.reset();
  } else if (pending_.has_value()) {
    aborted = pending_->id;
    pending_.reset();
  }
  publish_busy();
  return aborted;
}

void LbProcess::on_crash(sim::Round round) {
  (void)round;
  // The wrapper's FaultListener aborts any in-flight broadcast before this
  // fires (see fault/plan.h ordering); whatever is left is protocol state a
  // dead node cannot keep.
  pending_.reset();
  current_.reset();
  publish_busy();
  preamble_.reset();
  phase_seed_.reset();
  seed_bits_.reset();
}

void LbProcess::on_recover(sim::Round round) {
  // Re-synchronize the round cursor to the network-wide group layout (all
  // live nodes are at position (t-1) mod group_len; transmit() will advance
  // onto this round's position), then stay passive until the next group
  // start: the node missed this group's SeedAlg preamble, so it has no
  // group seed to participate with.
  const std::int64_t p = (round - 1) % group_len_;  // this round's position
  pos_in_group_ = p - 1;
  seg_round_ = p - 1 < params_->t_s
                   ? -1
                   : (p - 1 - params_->t_s) % params_->t_prog;
  phase_boundary_now_ = false;
  segment_end_now_ = false;
  resync_ = true;
}

std::int64_t LbProcess::silent_steps(std::int64_t k) {
  if (k > 0) {
    // Batched catch-up: k promised-silent rounds completed unstepped.  The
    // closed form lands the cursor exactly where k calls of
    // advance_round_position() would have; the promises below never span
    // a group start, a segment boundary or the first body round, so no
    // begin_group / promotion / seed-commit work can fall inside the jump.
    // A jump that starts in a preamble stays in it and moves the SeedAlg
    // runner's cursor along.
    if (seg_round_ < 0 && !resync_) {
      DG_ASSERT(preamble_.has_value());
      preamble_->skip(static_cast<int>(k));
    }
    pos_in_group_ = (pos_in_group_ + k) % group_len_;
    seg_round_ = pos_in_group_ < params_->t_s
                     ? -1
                     : (pos_in_group_ - params_->t_s) % params_->t_prog;
    phase_boundary_now_ = pos_in_group_ == 0 ||
                          (pos_in_group_ > params_->t_s && seg_round_ == 0);
    segment_end_now_ = seg_round_ == params_->t_prog - 1;
  }

  // A recovered node idles -- no transmissions, receptions dropped, no
  // coins -- until the next group start hands it a fresh preamble.
  if (resync_) return group_len_ - 1 - pos_in_group_;

  // Preamble rounds are as quiet as the SeedAlg runner (Section 3.2): a
  // decided node -- inactive, whether it led or heard a seed -- sends
  // nothing, draws nothing and ignores what it hears for the rest of the
  // preamble; an active listener draws a coin only at phase starts; a
  // leader draws every round.  The runner's window never covers the final
  // preamble round (where an undecided node defaults), and it ends with
  // the preamble, so the group seed is committed by a real transmit() in
  // the first body round.
  if (seg_round_ < 0) {
    DG_ASSERT(preamble_.has_value());
    return preamble_->quiet_rounds();
  }

  // Receiving-state body rounds are silent: transmit() returns nullopt
  // without drawing coins, receive() ignores null, and the segment-end ack
  // countdown only runs for senders.  The window ends just before the next
  // segment boundary so a pending bcast posted mid-window is promoted --
  // and the next seed committed -- by a real transmit() call, exactly as
  // on the dense path.  Sending-state rounds consume randomness every
  // round, so they never park.
  if (current_.has_value() || !phase_seed_.has_value()) return 0;
  return params_->t_prog - 1 - seg_round_;
}

void LbProcess::begin_group(sim::RoundContext& ctx) {
  // Every node runs SeedAlg at the start of every group, in either state.
  preamble_.emplace(params_->seed, id(), ctx.rng());
  phase_seed_.reset();
  seed_bits_.reset();
}

std::optional<sim::Packet> LbProcess::transmit(sim::RoundContext& ctx) {
  advance_round_position();

  // A freshly recovered node idles until the next group start (it holds no
  // group seed); a pending bcast input waits with it.
  if (resync_) {
    if (pos_in_group_ != 0) return std::nullopt;
    resync_ = false;
  }

  if (pos_in_group_ == 0) begin_group(ctx);

  // Promote a pending message at a phase boundary (a bcast received
  // mid-phase waits until here; the paper's "beginning of the next phase").
  if (phase_boundary_now_ && !current_.has_value() && pending_.has_value()) {
    current_ = pending_;
    pending_.reset();
  }

  if (in_preamble_now()) {
    // The decision may still arrive via receive() in the final preamble
    // round, so the group seed is committed lazily on entering the body.
    DG_ASSERT(preamble_.has_value());
    auto payload = preamble_->step_transmit(ctx.rng());
    if (payload.has_value()) return sim::Packet{id(), *payload};
    return std::nullopt;
  }

  // Commit the group seed on entering the body (the preamble has fully
  // run).
  if (!phase_seed_.has_value()) {
    DG_ASSERT(preamble_.has_value() && preamble_->done());
    DG_ASSERT(preamble_->decision().has_value());
    phase_seed_ = preamble_->decision();
    seed_bits_.emplace(phase_seed_->seed_value);
  }

  if (!current_.has_value()) return std::nullopt;  // receiving state
  return body_transmit(ctx, body_index_now());
}

std::optional<sim::Packet> LbProcess::body_transmit(sim::RoundContext& ctx,
                                                    std::int64_t body_round) {
  DG_ASSERT(seed_bits_.has_value());
  DG_ASSERT(body_round >= 0 &&
            body_round < params_->phases_per_seed * params_->t_prog);

  // All holders of this seed read the same bit window for this body round,
  // so the whole group makes identical participant / b choices.  Windows
  // are indexed by the body round across the whole group: bits are never
  // reused between segments (the Section 4.2 remark: one agreement, seeds
  // "of sufficient length to satisfy the demands of multiple phases").
  const std::int64_t stride = params_->participant_bits + params_->b_bits;
  seed_bits_->seek(static_cast<std::uint64_t>(body_round * stride));

  bool participant;
  std::uint64_t b_value;
  if (params_->use_shared_seeds) {
    participant = seed_bits_->take_all_zero(params_->participant_bits);
    b_value = seed_bits_->take(params_->b_bits);
  } else {
    // E10 ablation: same marginal distributions, private coins -- no
    // coordination across neighbors.
    participant = ctx.rng().chance(std::ldexp(1.0, -params_->participant_bits));
    b_value = params_->b_bits == 0
                  ? 0
                  : ctx.rng().below(std::uint64_t{1} << params_->b_bits);
  }

  if (!participant) return std::nullopt;  // non-participants receive

  // b in [log Delta] = {1, ..., log_delta}; b = 1 means probability 1/2.
  const int b = static_cast<int>(
                    b_value % static_cast<std::uint64_t>(params_->log_delta)) +
                1;

  // Local (independent) randomness: broadcast iff b private coins are all 0,
  // i.e. with probability 2^-b.
  if (!ctx.rng().chance(std::ldexp(1.0, -b))) return std::nullopt;

  return sim::Packet{id(),
                     sim::DataPayload{current_->id, current_->content}};
}

void LbProcess::receive(const std::optional<sim::Packet>& packet,
                        sim::RoundContext& ctx) {
  if (resync_) return;  // rejoining: no preamble state to feed yet
  if (in_preamble_now()) {
    DG_ASSERT(preamble_.has_value());
    preamble_->step_receive(packet);
    return;
  }
  if (packet.has_value() && packet->is_data()) {
    handle_data(packet->data(), ctx.round());
  }
}

void LbProcess::handle_data(const sim::DataPayload& data, sim::Round round) {
  if (!seen_.admit(data.id, origin_hint_)) return;  // received before
  ++recv_count_;
  if (listener_ != nullptr) {
    listener_->on_recv(vertex_, data.id, data.content, round);
  }
}

void LbProcess::end_round(sim::RoundContext& ctx) {
  if (!segment_end_now_) return;
  if (!current_.has_value()) return;
  const sim::Round t = ctx.round();
  if (--current_->phases_left > 0) return;
  // End of the last round of the last sending phase: ack and return to the
  // receiving state.
  ++ack_count_;
  if (listener_ != nullptr) {
    listener_->on_ack(vertex_, current_->id, t);
  }
  current_.reset();
  publish_busy();
}

}  // namespace dg::lb
