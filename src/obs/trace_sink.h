// obs::TraceSink -- span/event collector emitting Chrome trace-event JSON
// (the format Perfetto and chrome://tracing load natively).
//
// Time axis: the trace runs on VIRTUAL time -- round t owns the tick
// [t*1000, (t+1)*1000) microseconds -- so logical events (message
// lifecycles, crash/recover instants) and wall-clock measurements (the
// engine phase profile) share one coherent timeline.  Phase slices
// subdivide their round's tick proportionally to the measured wall-clock
// nanoseconds; everything else sits at its round's tick boundary.
//
// Tracks (pid/tid):
//   pid 1 "engine"   tid 0: one "round N" slice per profiled round with
//                           the stage slices nested inside it
//   pid 2 "messages" tid = vertex: one outer "msg <content>" slice per
//                           traffic message with "queued"/"inflight"
//                           children and a "first_recv" instant
//   pid 3 "faults"   tid = vertex: "crash"/"recover" instants
//   pid 4 "wire"     tid = vertex: the wire tail -- the last N
//                           "tx"/"rx"/"collision" events, each carrying
//                           its write_text() line as {"text": ...}
//   pid 5 "stages"   tid = vertex: spliced-stage instants (e.g. the
//                           trace-tap stage's per-vertex probes)
//
// Wire tail: registered as an engine observer, the sink keeps the last
// `wire_capacity` transmissions, receptions and collisions (plain silence
// is dropped) in a fixed-size ring of plain structs; write_text() renders
// it one line per event and write_json() as the pid 4 instants.  A sink
// built with capacity 0 declares no observer interest and records no wire
// events.
//
// Filters: a round range and a vertex set.  Engine, message, fault and
// stage events are filtered at record time so million-node runs stay
// bounded; the wire ring is filtered when the JSON is written, so
// write_text() and write_json() read the same ring.  Phase slices honor
// only the round range; vertex-scoped events honor both.
//
// Output ordering: write_json() sorts events by timestamp (stable, so a
// parent slice inserted before its children stays before them at equal
// ts, and wire instants follow the other events of their tick), which
// makes per-track timestamps monotone in file order -- the property
// tools/validate_trace.py checks in CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/observer.h"

namespace dg::obs {

class TraceSink final : public sim::Observer {
 public:
  /// Microseconds of virtual time per round.
  static constexpr std::int64_t kRoundTickUs = 1000;
  /// Largest wire tail a sink keeps (32 bytes an event: 2 MiB).
  static constexpr std::size_t kMaxWireCapacity = std::size_t{1} << 16;

  struct Filter {
    std::int64_t round_lo = 0;  ///< inclusive
    std::int64_t round_hi = std::numeric_limits<std::int64_t>::max();
    /// Vertices to keep for vertex-scoped events; empty = all.
    std::vector<std::uint32_t> vertices;
  };

  TraceSink();
  /// Keeps the last `wire_capacity` wire events (0 = none), at most
  /// kMaxWireCapacity.
  explicit TraceSink(Filter filter, std::size_t wire_capacity = 0);

  // ---- sim::Observer: the wire tail ----
  // Interest is sampled at add_observer(); it is empty at capacity 0.
  unsigned interest() const override;
  void on_transmit(sim::Round round, graph::Vertex v,
                   const sim::Packet& p) override;
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex from,
                  const sim::Packet& p) override;
  void on_silence(sim::Round round, graph::Vertex u, bool collision) override;

  /// The unfiltered wire tail, oldest first, one line per event
  /// ("round 17: v3 -> v5 data content=42"), after a "... (K earlier
  /// events dropped)" line when the ring overflowed.
  void write_text(std::ostream& os) const;

  /// One profiled round: parallel vectors of stage names and wall-clock
  /// nanoseconds (0 = the stage did not run this round), in pipeline
  /// order.  Emits the round slice plus nested stage slices.
  void round_phases(std::int64_t round,
                    const std::vector<std::string>& names,
                    const std::vector<std::uint64_t>& ns);

  /// One traffic message lifecycle (rounds are 0 where the event never
  /// happened, matching traffic::MessageRecord).  Emits the outer message
  /// slice, queued/inflight children, and the first_recv instant.
  void message_span(std::uint32_t vertex, std::uint64_t content,
                    std::int64_t enqueue, std::int64_t admit,
                    std::int64_t first_recv, std::int64_t ack,
                    std::int64_t abort_round);

  void crash(std::int64_t round, std::uint32_t vertex);
  void recover(std::int64_t round, std::uint32_t vertex);

  /// Free-form instant on (pid, tid=vertex) at the round tick; used by
  /// spliced stages.  Subject to both filters.
  void instant(std::int64_t round, std::uint32_t vertex,
               const std::string& name, int pid,
               const std::string& args_json = "");

  /// Events write_json() emits (metadata excluded).
  std::size_t event_count() const;

  /// The complete trace document: {"displayTimeUnit", "traceEvents": [..]}.
  void write_json(std::ostream& os) const;
  std::string json() const;

 private:
  struct Event {
    std::string name;
    char ph = 'X';  ///< 'X' complete slice, 'i' instant
    std::int64_t ts = 0;
    std::int64_t dur = 0;  ///< slices only
    int pid = 1;
    std::uint64_t tid = 0;
    std::string args_json;  ///< pre-rendered {"k": v} body, may be empty
  };

  enum class WireKind : std::uint8_t { transmit, receive, collision };

  /// One wire event of the tail.
  struct WireEvent {
    sim::Round round = 0;
    graph::Vertex vertex = 0;  ///< transmitter / receiver / listener
    graph::Vertex peer = 0;    ///< sender, for receive events
    std::uint64_t detail = 0;  ///< content (data) / owner (seed)
    WireKind kind = WireKind::transmit;
    bool is_data = false;      ///< data vs seed payload
  };

  /// The write_text() line of one wire event.
  static std::string describe(const WireEvent& event);

  bool round_in_range(std::int64_t round) const noexcept;
  bool vertex_selected(std::uint32_t vertex) const;
  void push(Event event);
  void push_wire(const WireEvent& event);
  /// The i-th oldest event of the wire tail, i < wire_.size().
  const WireEvent& wire_at(std::size_t i) const;
  std::size_t wire_dropped() const noexcept {
    return wire_recorded_ - wire_.size();
  }
  /// The ring's events that pass the filters, as pid 4 instants.
  std::vector<Event> wire_instants() const;

  Filter filter_;
  std::vector<bool> used_pids_ = std::vector<bool>(8, false);
  std::vector<Event> events_;
  std::size_t wire_capacity_;
  std::vector<WireEvent> wire_;     ///< ring, grows to wire_capacity_
  std::size_t wire_recorded_ = 0;   ///< events ever pushed
};

}  // namespace dg::obs
