// Globally-coordinated TDMA baseline.
//
// A distance-2 coloring of G' is computed centrally (something no truly
// local algorithm could do: it requires the whole topology) and each node
// transmits only in the slots of its color.  Because no two vertices within
// two G'-hops share a color, no receiver ever sees two simultaneous
// transmitters, no matter which unreliable edges the scheduler includes:
// transmissions are collision-free by construction.  One full cycle of
// C colors therefore delivers to all reliable neighbors deterministically.
//
// This is the round-robin-style comparator (Clementi et al. [4] showed
// round robin is optimal for fault-tolerant broadcast): an upper reference
// point with perfect global knowledge, against which the truly-local LBAlg
// is compared in E6/E8.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dual_graph.h"
#include "lb/lb_alg.h"
#include "sim/packet.h"
#include "sim/process.h"

namespace dg::baseline {

/// Greedy distance-2 coloring of G'.  Returns one color per vertex;
/// guarantees no two vertices at G'-distance <= 2 share a color.
std::vector<int> distance2_coloring(const graph::DualGraph& g);

class TdmaProcess final : public sim::Process {
 public:
  /// `slot` is this node's color; `num_slots` the cycle length (max color
  /// + 1 across the network).  Ack fires after `cycles` full cycles.
  TdmaProcess(int slot, int num_slots, std::int64_t cycles, sim::ProcessId id,
              graph::Vertex vertex, lb::LbListener* listener);

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

  int slot_;
  int num_slots_;
  std::int64_t cycles_;
  graph::Vertex vertex_;
  lb::LbListener* listener_;
  std::optional<ActiveMessage> current_;
  std::uint32_t next_seq_ = 0;
  sim::HighWaterFilter seen_;
};

}  // namespace dg::baseline
