// Wire-level packet formats.
//
// Two payload kinds cover the whole stack: seed-agreement packets (owner id
// + seed value; Section 3.2's "(i, s)" pairs) and data packets (a local
// broadcast message).  The collision semantics of Section 2 operate on whole
// packets regardless of kind.
#pragma once

#include <algorithm>
#include <cstdint>
#include <variant>
#include <vector>

namespace dg::sim {

/// Process identifier (the paper's id space I).  Processes know their own id
/// but not the global id() mapping.
using ProcessId = std::uint64_t;

/// Identifies one local-broadcast message.  The paper's message sets M_u are
/// pairwise disjoint; we realize this by keying messages on (origin, seq):
/// M_u = {(u, 1), (u, 2), ...}.
struct MessageId {
  ProcessId origin = 0;
  std::uint32_t seq = 0;

  friend bool operator==(const MessageId&, const MessageId&) = default;
};

struct MessageIdHash {
  std::size_t operator()(const MessageId& m) const noexcept {
    std::uint64_t x = m.origin ^ (0x9e3779b97f4a7c15ULL * (m.seq + 1));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(x ^ (x >> 27));
  }
};

/// Receive-side duplicate filter: the highest sequence number received per
/// origin, in a flat vector sorted by origin.  Exact for every process in
/// this repo: an origin only ever transmits its own current message, and
/// its sequence numbers rise monotonically (across crash and recovery
/// too), so any id at or below its origin's mark was received before.
/// Costs one entry per distinct origin heard -- bounded by the G'-degree --
/// instead of one per message ever received.
class HighWaterFilter {
 public:
  /// Records `m`; true iff it is new.  `capacity_hint` is an allocation
  /// hint only, never part of the answer: the caller's bound on the
  /// distinct origins it can hear (its G'-degree).  The filter grows one
  /// origin at a time through its first two (most receivers of a sparse
  /// run hear no more), then reserves the hint on the third, instead of
  /// regrowing at every doubling as further origins arrive.
  bool admit(const MessageId& m, std::size_t capacity_hint = 0) {
    auto it = std::lower_bound(
        marks_.begin(), marks_.end(), m.origin,
        [](const MessageId& mark, ProcessId o) { return mark.origin < o; });
    if (it == marks_.end() || it->origin != m.origin) {
      if (marks_.size() == 2) {
        const auto at = it - marks_.begin();
        marks_.reserve(capacity_hint);
        it = marks_.begin() + at;
      }
      marks_.insert(it, m);
      return true;
    }
    if (m.seq <= it->seq) return false;
    it->seq = m.seq;
    return true;
  }

 private:
  std::vector<MessageId> marks_;  ///< one per origin, ascending by origin
};

/// Seed-agreement payload: "(j, s)" from Section 3.2.
struct SeedPayload {
  ProcessId owner = 0;
  std::uint64_t seed_value = 0;
};

/// Local-broadcast payload.  `content` is opaque application data carried
/// for the benefit of layers above the MAC (e.g. multi-message broadcast
/// relays the same content under fresh MessageIds).
struct DataPayload {
  MessageId id;
  std::uint64_t content = 0;
};

struct Packet {
  ProcessId sender = 0;
  std::variant<SeedPayload, DataPayload> body;

  bool is_seed() const noexcept {
    return std::holds_alternative<SeedPayload>(body);
  }
  bool is_data() const noexcept {
    return std::holds_alternative<DataPayload>(body);
  }
  const SeedPayload& seed() const { return std::get<SeedPayload>(body); }
  const DataPayload& data() const { return std::get<DataPayload>(body); }
};

}  // namespace dg::sim
