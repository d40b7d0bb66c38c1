// The classical Decay local broadcast baseline (Bar-Yehuda, Goldreich,
// Itai [2]).
//
// Senders cycle through a *fixed, deterministic* schedule of geometrically
// decreasing broadcast probabilities 1/2, 1/4, ..., 1/Delta: in round t an
// active sender transmits with probability decay_probability(t, log Delta).
// In reliable radio networks one of these probabilities matches the local
// contention and progress takes O(log Delta) rounds.  The paper's Discussion
// section explains why this breaks in the dual graph model: the schedule is
// known in advance, so an oblivious link scheduler can inflate contention
// exactly in the high-probability rounds and deflate it in the low ones
// (sim::AntiScheduleAdversary does literally that).  Experiment E6 pits the
// two against each other.
//
// The process exports the same bcast/ack/recv service shape as LbProcess so
// benches can compare head to head; acknowledgements fire after a fixed
// round budget (there is no adaptive acknowledgement mechanism in Decay).
#pragma once

#include <cstdint>
#include <optional>

#include "graph/dual_graph.h"
#include "lb/lb_alg.h"
#include "sim/packet.h"
#include "sim/process.h"

namespace dg::baseline {

/// The fixed schedule: probability 2^-(((t-1) mod log_delta) + 1) in round
/// t.  Exposed standalone so AntiScheduleAdversary can be keyed to it.
double decay_probability(sim::Round t, int log_delta);

struct DecayParams {
  int log_delta = 1;            ///< schedule period = log2(Delta)
  std::int64_t ack_rounds = 1;  ///< rounds an input is broadcast before ack
};

class DecayProcess final : public sim::Process {
 public:
  DecayProcess(const DecayParams& params, sim::ProcessId id,
               graph::Vertex vertex, lb::LbListener* listener);

  /// bcast input (same contract as LbProcess::post_bcast).
  sim::MessageId post_bcast(std::uint64_t content);
  bool busy() const noexcept { return current_.has_value(); }

  std::optional<sim::Packet> transmit(sim::RoundContext& ctx) override;
  void receive(const std::optional<sim::Packet>& packet,
               sim::RoundContext& ctx) override;
  void end_round(sim::RoundContext& ctx) override;

  /// State is per-vertex; only the listener fan-out crosses vertices.
  bool shard_safe() const override {
    return listener_ == nullptr || listener_->concurrent_safe();
  }

 private:
  struct ActiveMessage {
    sim::MessageId id;
    std::uint64_t content = 0;
    std::int64_t rounds_left = 0;
  };

  DecayParams params_;
  graph::Vertex vertex_;
  lb::LbListener* listener_;
  std::optional<ActiveMessage> current_;
  std::uint32_t next_seq_ = 0;
  sim::HighWaterFilter seen_;
};

}  // namespace dg::baseline
