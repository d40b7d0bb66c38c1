// LBAlg (paper Section 4.2): the ongoing local broadcast service.
//
// Rounds are partitioned into phases of T_s + T_prog rounds.  Every phase
// starts with a SeedAlg(eps2) preamble (all nodes participate, regardless of
// state); the committed seed s^(j)_u supplies the shared random bits for the
// phase body.  A node is in the receiving or the sending state.  Receivers
// listen.  A sender, in each body round:
//   1. consumes d = ceil(log2(r^2 log(1/eps2))) seed bits; it is a
//      *participant* iff all are 0 (probability a / (r^2 log(1/eps2)));
//   2. a non-participant receives;
//   3. a participant consumes ceil(log2(log2 Delta)) further seed bits
//      giving b in [log Delta], then flips b *locally random* coins and
//      broadcasts iff all are 0 (probability 2^-b).
// A bcast(m) input switches the node to the sending state at the next phase
// boundary for T_ack full phases; the ack(m) output fires at the end of the
// last round of the last of those phases.  Any newly received message m'
// triggers a recv(m') output, in either state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "graph/dual_graph.h"
#include "lb/params.h"
#include "seed/seed_alg.h"
#include "sim/packet.h"
#include "sim/process.h"
#include "util/bits.h"

namespace dg::lb {

/// Receives the service's outputs (the bcast/ack/recv interface of the LB
/// problem).  `vertex` is a label for the benefit of checkers and
/// environments; the process logic itself never reads it.
class LbListener {
 public:
  virtual ~LbListener() = default;
  virtual void on_ack(graph::Vertex vertex, const sim::MessageId& m,
                      sim::Round round) = 0;
  virtual void on_recv(graph::Vertex vertex, const sim::MessageId& m,
                       std::uint64_t content, sim::Round round) = 0;

  /// Whether on_ack/on_recv tolerate concurrent calls from the engine's
  /// sharded round loop (distinct vertices only; at most one call of each
  /// kind per vertex per round).  Listeners that buffer per vertex and
  /// flush at the serial RoundHooks checkpoints return true (see
  /// lb/simulation.cpp's Fanout); the conservative default keeps processes
  /// with an unknown listener on the serial path.
  virtual bool concurrent_safe() const { return false; }
};

class LbProcess final : public sim::Process {
 public:
  /// `vertex` labels outputs; `listener` may be null (outputs dropped).
  /// The processes of one network share one `params` (LbSimulation hands
  /// each its own pointer); the `const LbParams&` form takes a copy.
  /// `busy_flag`, if set, is this process's byte in an owner's busy slab
  /// (see LbSimulation): the process stores busy() there at every busy
  /// transition, so environment steps poll one byte instead of the
  /// process.  It must outlive the process; no other writer may touch it.
  /// `origin_hint`, if non-zero, is the vertex's G'-degree: an allocation
  /// hint for the receive dedup (sim::HighWaterFilter::admit) that the
  /// protocol logic never reads.
  LbProcess(std::shared_ptr<const LbParams> params, sim::ProcessId id,
            graph::Vertex vertex, LbListener* listener,
            std::uint8_t* busy_flag = nullptr, std::uint32_t origin_hint = 0);
  LbProcess(const LbParams& params, sim::ProcessId id, graph::Vertex vertex,
            LbListener* listener, std::uint8_t* busy_flag = nullptr);

  // ---- environment-facing API (round step 1: inputs) ----

  /// bcast(m) input.  The environment contract (Section 4.1) forbids a new
  /// bcast before the previous ack; enforced by contract check.
  /// Returns the id of the enqueued message.
  sim::MessageId post_bcast(std::uint64_t content);

  /// abort(m) input (abstract MAC layer extension [14, 16]): cancels the
  /// outstanding broadcast, if any.  No ack will be emitted for it and the
  /// node stops transmitting it from this round on.  Returns the id of the
  /// aborted message, if one was outstanding.
  std::optional<sim::MessageId> abort();

  /// True while a message is pending or actively broadcast (no new bcast
  /// input is admissible).
  bool busy() const noexcept {
    return pending_.has_value() || current_.has_value();
  }

  /// True while in the sending state (a phase is consuming T_ack budget).
  bool sending() const noexcept { return current_.has_value(); }

  // ---- sim::Process interface ----

  std::optional<sim::Packet> transmit(sim::RoundContext& ctx) override;
  void receive(const std::optional<sim::Packet>& packet,
               sim::RoundContext& ctx) override;
  void end_round(sim::RoundContext& ctx) override;

  /// Sparse-round consent (sim/process.h).  Three closed-form silent
  /// windows: preamble rounds the SeedAlg runner is sure to spend quiet
  /// (SeedAlgRunner::quiet_rounds(): a decided node through the rest of
  /// the preamble, an active listener up to its next phase-start coin),
  /// receiving-state body rounds (up to the round before the next segment
  /// boundary, where a pending bcast could be promoted) and the passive
  /// post-recovery stretch (up to the round before the next group start).
  /// Leader and sending-state rounds draw randomness every round and never
  /// park.
  std::int64_t silent_steps(std::int64_t k) override;

  /// Deaf promises (sim/process.h): the post-recovery stretch, where
  /// receive() returns at once, and a preamble window of a decided node,
  /// whose runner ignores whatever it hears.  An active listener's window
  /// is not deaf -- the first seed it hears decides it -- and neither is a
  /// receiving-state body window, where a data packet is a recv output.
  bool deaf() const override {
    if (resync_) return true;
    return seg_round_ < 0 && preamble_.has_value() &&
           preamble_->status() == seed::SeedStatus::inactive;
  }

  /// Fault seam.  A crash drops all protocol state (the wrapper aborts the
  /// in-flight broadcast *before* this fires, so the abort path accounts
  /// for it); recovery re-synchronizes the round cursor to the network-wide
  /// group layout but keeps the node passive -- transmitting nothing,
  /// consuming no receptions -- until the next group start hands it a fresh
  /// SeedAlg preamble, since it cannot hold a group seed it never agreed
  /// on.  Identity-level facts survive both: the id, the message sequence
  /// counter (recovered nodes must not reuse MessageIds) and the per-origin
  /// high-water marks of received messages (no duplicate recv outputs for
  /// pre-crash receptions).
  void on_crash(sim::Round round) override;
  void on_recover(sim::Round round) override;

  /// All per-round state is per-vertex; the only cross-vertex effect is the
  /// listener fan-out, so sharding is safe exactly when the listener
  /// consents.
  bool shard_safe() const override {
    return listener_ == nullptr || listener_->concurrent_safe();
  }

  // ---- introspection (checkers / benches; not visible to the protocol) --

  /// The seed committed for the current phase (empty during preambles).
  const std::optional<seed::SeedDecision>& phase_seed() const noexcept {
    return phase_seed_;
  }
  /// The current group's SeedAlg status (empty before the first round
  /// and after a crash).
  std::optional<seed::SeedStatus> preamble_status() const noexcept {
    if (!preamble_.has_value()) return std::nullopt;
    return preamble_->status();
  }
  std::uint64_t messages_received() const noexcept { return recv_count_; }
  std::uint64_t acks_emitted() const noexcept { return ack_count_; }

 private:
  struct ActiveMessage {
    sim::MessageId id;
    std::uint64_t content = 0;
    std::int64_t phases_left = 0;
  };

  // Round layout.  A *group* is one SeedAlg preamble (T_s rounds) followed
  // by phases_per_seed body *segments* of T_prog rounds each (the paper's
  // baseline is one segment per group).  State transitions (promotion of a
  // pending message, ack countdown) happen at segment boundaries.
  //
  // The position within the group is tracked *incrementally*: transmit() is
  // called exactly once per round (the sim::Process contract) and advances
  // the cursor; receive() and end_round() run later in the same round and
  // reuse the cached predicates.  This keeps the per-round hot path free of
  // the `(t - 1) % group_length` divisions the closed forms would need.
  void advance_round_position() noexcept {
    ++pos_in_group_;
    if (pos_in_group_ == group_len_) pos_in_group_ = 0;
    if (pos_in_group_ < params_->t_s) {
      seg_round_ = -1;  // preamble
    } else if (pos_in_group_ == params_->t_s) {
      seg_round_ = 0;
    } else {
      ++seg_round_;
      if (seg_round_ == params_->t_prog) seg_round_ = 0;
    }
    // Phase boundaries where a pending message may enter the sending state:
    // the group start (= the paper's phase start for k = 1) and the starts
    // of the second and later body segments of a group (k > 1 only).
    phase_boundary_now_ =
        pos_in_group_ == 0 || (pos_in_group_ > params_->t_s && seg_round_ == 0);
    segment_end_now_ = seg_round_ == params_->t_prog - 1;
  }
  bool in_preamble_now() const noexcept { return seg_round_ < 0; }
  /// 0-based body round within the group (valid in body rounds).
  std::int64_t body_index_now() const noexcept {
    return pos_in_group_ - params_->t_s;
  }

  /// Stores busy() into the bound busy-slab byte (if any).  Called after
  /// every change of pending_/current_ that can flip busy(); the
  /// pending -> current promotion keeps busy() set and needs no store.
  void publish_busy() noexcept {
    if (busy_flag_ != nullptr) *busy_flag_ = busy() ? 1 : 0;
  }

  void begin_group(sim::RoundContext& ctx);
  std::optional<sim::Packet> body_transmit(sim::RoundContext& ctx,
                                           std::int64_t body_round);
  void handle_data(const sim::DataPayload& data, sim::Round round);

  std::shared_ptr<const LbParams> params_;  ///< shared by the network
  graph::Vertex vertex_;
  std::uint32_t origin_hint_;  ///< seen_'s capacity hint
  LbListener* listener_;
  std::uint8_t* busy_flag_;  ///< owner's busy-slab byte; null if standalone

  // Incremental round-position cursor (see advance_round_position()).
  std::int64_t group_len_ = 1;
  std::int64_t pos_in_group_ = -1;  ///< group position of the current round
  std::int64_t seg_round_ = -1;     ///< round within body segment; -1 in preamble
  bool phase_boundary_now_ = false;
  bool segment_end_now_ = false;

  std::optional<ActiveMessage> pending_;  // awaiting next phase boundary
  std::optional<ActiveMessage> current_;  // being broadcast
  std::uint32_t next_seq_ = 0;
  bool resync_ = false;  ///< recovered; passive until the next group start

  std::optional<seed::SeedAlgRunner> preamble_;
  std::optional<seed::SeedDecision> phase_seed_;
  std::optional<SeedBits> seed_bits_;

  sim::HighWaterFilter seen_;  ///< receive dedup: highest seq per origin
  std::uint64_t recv_count_ = 0;
  std::uint64_t ack_count_ = 0;
};

}  // namespace dg::lb
