#include "baseline/tdma.h"

#include <algorithm>

#include "util/assert.h"

namespace dg::baseline {

std::vector<int> distance2_coloring(const graph::DualGraph& g) {
  const auto n = static_cast<graph::Vertex>(g.size());
  std::vector<int> color(n, -1);
  std::vector<char> forbidden;
  for (graph::Vertex v = 0; v < n; ++v) {
    forbidden.assign(g.size() + 1, 0);
    const auto mark = [&](graph::Vertex w) {
      if (color[w] >= 0) forbidden[static_cast<std::size_t>(color[w])] = 1;
    };
    for (graph::Vertex w : g.gprime_neighbors(v)) {
      mark(w);
      for (graph::Vertex x : g.gprime_neighbors(w)) {
        if (x != v) mark(x);
      }
    }
    int c = 0;
    while (forbidden[static_cast<std::size_t>(c)] != 0) ++c;
    color[v] = c;
  }
  return color;
}

TdmaProcess::TdmaProcess(int slot, int num_slots, std::int64_t cycles,
                         sim::ProcessId id, graph::Vertex vertex,
                         lb::LbListener* listener)
    : sim::Process(id),
      slot_(slot),
      num_slots_(num_slots),
      cycles_(cycles),
      vertex_(vertex),
      listener_(listener) {
  DG_EXPECTS(num_slots >= 1);
  DG_EXPECTS(slot >= 0 && slot < num_slots);
  DG_EXPECTS(cycles >= 1);
}

sim::MessageId TdmaProcess::post_bcast(std::uint64_t content) {
  DG_EXPECTS(!busy());
  const sim::MessageId m{id(), ++next_seq_};
  current_ = ActiveMessage{m, content, cycles_ * num_slots_};
  return m;
}

std::optional<sim::Packet> TdmaProcess::transmit(sim::RoundContext& ctx) {
  if (!current_.has_value()) return std::nullopt;
  if ((ctx.round() - 1) % num_slots_ != slot_) return std::nullopt;
  return sim::Packet{id(),
                     sim::DataPayload{current_->id, current_->content}};
}

void TdmaProcess::receive(const std::optional<sim::Packet>& packet,
                          sim::RoundContext& ctx) {
  if (!packet.has_value() || !packet->is_data()) return;
  const sim::DataPayload& data = packet->data();
  if (!seen_.admit(data.id)) return;
  if (listener_ != nullptr) {
    listener_->on_recv(vertex_, data.id, data.content, ctx.round());
  }
}

void TdmaProcess::end_round(sim::RoundContext& ctx) {
  if (!current_.has_value()) return;
  if (--current_->rounds_left > 0) return;
  if (listener_ != nullptr) {
    listener_->on_ack(vertex_, current_->id, ctx.round());
  }
  current_.reset();
}

}  // namespace dg::baseline
