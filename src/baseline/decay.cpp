#include "baseline/decay.h"

#include <cmath>

#include "util/assert.h"

namespace dg::baseline {

double decay_probability(sim::Round t, int log_delta) {
  DG_EXPECTS(t >= 1);
  DG_EXPECTS(log_delta >= 1);
  const auto slot = static_cast<int>((t - 1) % log_delta);
  return std::ldexp(1.0, -(slot + 1));
}

DecayProcess::DecayProcess(const DecayParams& params, sim::ProcessId id,
                           graph::Vertex vertex, lb::LbListener* listener)
    : sim::Process(id),
      params_(params),
      vertex_(vertex),
      listener_(listener) {
  DG_EXPECTS(params.log_delta >= 1);
  DG_EXPECTS(params.ack_rounds >= 1);
}

sim::MessageId DecayProcess::post_bcast(std::uint64_t content) {
  DG_EXPECTS(!busy());
  const sim::MessageId m{id(), ++next_seq_};
  current_ = ActiveMessage{m, content, params_.ack_rounds};
  return m;
}

std::optional<sim::Packet> DecayProcess::transmit(sim::RoundContext& ctx) {
  if (!current_.has_value()) return std::nullopt;
  if (!ctx.rng().chance(decay_probability(ctx.round(), params_.log_delta))) {
    return std::nullopt;
  }
  return sim::Packet{id(),
                     sim::DataPayload{current_->id, current_->content}};
}

void DecayProcess::receive(const std::optional<sim::Packet>& packet,
                           sim::RoundContext& ctx) {
  if (!packet.has_value() || !packet->is_data()) return;
  const sim::DataPayload& data = packet->data();
  if (!seen_.admit(data.id)) return;
  if (listener_ != nullptr) {
    listener_->on_recv(vertex_, data.id, data.content, ctx.round());
  }
}

void DecayProcess::end_round(sim::RoundContext& ctx) {
  if (!current_.has_value()) return;
  if (--current_->rounds_left > 0) return;
  if (listener_ != nullptr) {
    listener_->on_ack(vertex_, current_->id, ctx.round());
  }
  current_.reset();
}

}  // namespace dg::baseline
