#include "obs/trace_sink.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "scn/json.h"
#include "util/assert.h"

namespace dg::obs {

namespace {

constexpr int kEnginePid = 1;
constexpr int kMessagesPid = 2;
constexpr int kFaultsPid = 3;
constexpr int kWirePid = 4;
constexpr int kStagesPid = 5;

/// Content (data) or owner (seed) of a wire packet.
std::uint64_t packet_detail(const sim::Packet& p) {
  return p.is_data() ? p.data().content : p.seed().owner;
}

const char* pid_name(int pid) {
  switch (pid) {
    case kEnginePid: return "engine";
    case kMessagesPid: return "messages";
    case kFaultsPid: return "faults";
    case kWirePid: return "wire";
    case kStagesPid: return "stages";
    default: return "track";
  }
}

}  // namespace

TraceSink::TraceSink() : TraceSink(Filter{}) {}

TraceSink::TraceSink(Filter filter, std::size_t wire_capacity)
    : filter_(std::move(filter)), wire_capacity_(wire_capacity) {
  DG_EXPECTS(filter_.round_lo <= filter_.round_hi);
  DG_EXPECTS(wire_capacity <= kMaxWireCapacity);
  std::sort(filter_.vertices.begin(), filter_.vertices.end());
}

unsigned TraceSink::interest() const {
  return wire_capacity_ > 0 ? (kTransmit | kReceive | kSilence) : 0u;
}

void TraceSink::push_wire(const WireEvent& event) {
  if (wire_.size() < wire_capacity_) {
    wire_.push_back(event);
  } else {
    wire_[wire_recorded_ % wire_capacity_] = event;
  }
  ++wire_recorded_;
}

void TraceSink::on_transmit(sim::Round round, graph::Vertex v,
                            const sim::Packet& p) {
  push_wire({round, v, 0, packet_detail(p), WireKind::transmit, p.is_data()});
}

void TraceSink::on_receive(sim::Round round, graph::Vertex u,
                           graph::Vertex from, const sim::Packet& p) {
  push_wire({round, u, from, packet_detail(p), WireKind::receive,
             p.is_data()});
}

void TraceSink::on_silence(sim::Round round, graph::Vertex u,
                           bool collision) {
  if (!collision) return;  // plain silence is noise; collisions matter
  push_wire({round, u, 0, 0, WireKind::collision, false});
}

const TraceSink::WireEvent& TraceSink::wire_at(std::size_t i) const {
  // Until the ring wraps wire_recorded_ == wire_.size(); after, the oldest
  // event sits at the next write slot.  Both are wire_recorded_ % size.
  return wire_[(wire_recorded_ + i) % wire_.size()];
}

std::string TraceSink::describe(const WireEvent& event) {
  std::ostringstream os;
  os << "round " << event.round << ": ";
  const char* payload = event.is_data ? "data content=" : "seed owner=";
  switch (event.kind) {
    case WireKind::transmit:
      os << "v" << event.vertex << " tx " << payload << event.detail;
      break;
    case WireKind::receive:
      os << "v" << event.peer << " -> v" << event.vertex << " " << payload
         << event.detail;
      break;
    case WireKind::collision:
      os << "v" << event.vertex << " collision";
      break;
  }
  return os.str();
}

void TraceSink::write_text(std::ostream& os) const {
  if (wire_dropped() > 0) {
    os << "... (" << wire_dropped() << " earlier events dropped)\n";
  }
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    os << describe(wire_at(i)) << '\n';
  }
}

std::vector<TraceSink::Event> TraceSink::wire_instants() const {
  static constexpr const char* kWireNames[] = {"tx", "rx", "collision"};
  std::vector<Event> out;
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    const WireEvent& w = wire_at(i);
    if (!round_in_range(w.round) || !vertex_selected(w.vertex)) continue;
    Event e;
    e.name = kWireNames[static_cast<std::size_t>(w.kind)];
    e.ph = 'i';
    e.ts = w.round * kRoundTickUs;
    e.pid = kWirePid;
    e.tid = w.vertex;
    e.args_json = "{\"text\": \"" + scn::json::escape(describe(w)) + "\"}";
    out.push_back(std::move(e));
  }
  return out;
}

bool TraceSink::round_in_range(std::int64_t round) const noexcept {
  return round >= filter_.round_lo && round <= filter_.round_hi;
}

bool TraceSink::vertex_selected(std::uint32_t vertex) const {
  if (filter_.vertices.empty()) return true;
  return std::binary_search(filter_.vertices.begin(), filter_.vertices.end(),
                            vertex);
}

void TraceSink::push(Event event) {
  const std::size_t pid = static_cast<std::size_t>(event.pid);
  if (pid < used_pids_.size()) used_pids_[pid] = true;
  events_.push_back(std::move(event));
}

void TraceSink::round_phases(std::int64_t round,
                             const std::vector<std::string>& names,
                             const std::vector<std::uint64_t>& ns) {
  DG_EXPECTS(names.size() == ns.size());
  if (!round_in_range(round)) return;
  const std::int64_t tick = round * kRoundTickUs;
  const std::uint64_t total =
      std::accumulate(ns.begin(), ns.end(), std::uint64_t{0});
  {
    Event e;
    e.name = "round " + std::to_string(round);
    e.ts = tick;
    e.dur = kRoundTickUs;
    e.pid = kEnginePid;
    e.args_json = "{\"total_ns\": " + std::to_string(total) + "}";
    push(std::move(e));
  }
  if (total == 0) return;
  // Stage slices split the tick proportionally to measured nanoseconds
  // (floor, min 1us so sub-promille stages stay visible), clamped so the
  // children never escape the parent slice.
  std::int64_t pos = tick;
  for (std::size_t p = 0; p < ns.size(); ++p) {
    if (ns[p] == 0) continue;
    std::int64_t dur = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(ns[p] * static_cast<std::uint64_t>(
                                                 kRoundTickUs) / total));
    dur = std::min(dur, tick + kRoundTickUs - pos);
    if (dur <= 0) break;
    Event e;
    e.name = names[p];
    e.ts = pos;
    e.dur = dur;
    e.pid = kEnginePid;
    e.args_json = "{\"ns\": " + std::to_string(ns[p]) + "}";
    push(std::move(e));
    pos += dur;
  }
}

void TraceSink::message_span(std::uint32_t vertex, std::uint64_t content,
                             std::int64_t enqueue, std::int64_t admit,
                             std::int64_t first_recv, std::int64_t ack,
                             std::int64_t abort_round) {
  if (!vertex_selected(vertex)) return;
  // The span closes at its terminal event; unterminated messages close one
  // tick after their last recorded event so the slice stays well-formed.
  const std::int64_t last =
      std::max({enqueue, admit, first_recv, ack, abort_round});
  const std::int64_t end =
      ack != 0 ? ack : (abort_round != 0 ? abort_round : last + 1);
  if (enqueue > filter_.round_hi || end < filter_.round_lo) return;

  const char* status =
      ack != 0 ? "acked" : (abort_round != 0 ? "aborted" : "open");
  {
    Event e;
    e.name = "msg " + std::to_string(content);
    e.ts = enqueue * kRoundTickUs;
    e.dur = std::max<std::int64_t>(1, (end - enqueue) * kRoundTickUs);
    e.pid = kMessagesPid;
    e.tid = vertex;
    std::ostringstream args;
    args << "{\"enqueue\": " << enqueue << ", \"admit\": " << admit
         << ", \"first_recv\": " << first_recv << ", \"ack\": " << ack
         << ", \"abort\": " << abort_round << ", \"status\": \"" << status
         << "\"}";
    e.args_json = args.str();
    push(std::move(e));
  }
  if (admit != 0) {
    Event e;
    e.name = "queued";
    e.ts = enqueue * kRoundTickUs;
    e.dur = std::max<std::int64_t>(1, (admit - enqueue) * kRoundTickUs);
    e.pid = kMessagesPid;
    e.tid = vertex;
    push(std::move(e));
    Event f;
    f.name = "inflight";
    f.ts = admit * kRoundTickUs;
    f.dur = std::max<std::int64_t>(1, (end - admit) * kRoundTickUs);
    f.pid = kMessagesPid;
    f.tid = vertex;
    push(std::move(f));
  }
  if (first_recv != 0) {
    Event e;
    e.name = "first_recv";
    e.ph = 'i';
    e.ts = first_recv * kRoundTickUs;
    e.pid = kMessagesPid;
    e.tid = vertex;
    push(std::move(e));
  }
}

void TraceSink::crash(std::int64_t round, std::uint32_t vertex) {
  instant(round, vertex, "crash", kFaultsPid);
}

void TraceSink::recover(std::int64_t round, std::uint32_t vertex) {
  instant(round, vertex, "recover", kFaultsPid);
}

void TraceSink::instant(std::int64_t round, std::uint32_t vertex,
                        const std::string& name, int pid,
                        const std::string& args_json) {
  if (!round_in_range(round) || !vertex_selected(vertex)) return;
  Event e;
  e.name = name;
  e.ph = 'i';
  e.ts = round * kRoundTickUs;
  e.pid = pid;
  e.tid = vertex;
  e.args_json = args_json;
  push(std::move(e));
}

std::size_t TraceSink::event_count() const {
  return events_.size() + wire_instants().size();
}

void TraceSink::write_json(std::ostream& os) const {
  // The wire tail goes after the recorded events, so at equal ts its
  // instants follow them.
  const std::vector<Event> wire = wire_instants();
  std::vector<bool> used_pids = used_pids_;
  if (!wire.empty()) used_pids[kWirePid] = true;
  std::vector<const Event*> order;
  order.reserve(events_.size() + wire.size());
  for (const Event& e : events_) order.push_back(&e);
  for (const Event& e : wire) order.push_back(&e);
  // Stable sort by timestamp: per-track monotone file order, parents
  // before children at equal ts (insertion order breaks ties).
  std::stable_sort(
      order.begin(), order.end(),
      [](const Event* a, const Event* b) { return a->ts < b->ts; });
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  for (std::size_t pid = 0; pid < used_pids.size(); ++pid) {
    if (!used_pids[pid]) continue;
    os << (first ? "\n" : ",\n") << "{\"name\": \"process_name\", \"ph\": "
       << "\"M\", \"pid\": " << pid << ", \"tid\": 0, \"ts\": 0, \"args\": "
       << "{\"name\": \"" << pid_name(static_cast<int>(pid)) << "\"}}";
    first = false;
  }
  for (const Event* ep : order) {
    const Event& e = *ep;
    os << (first ? "\n" : ",\n") << "{\"name\": \""
       << scn::json::escape(e.name) << "\", \"ph\": \"" << e.ph
       << "\", \"ts\": " << e.ts;
    if (e.ph == 'X') os << ", \"dur\": " << e.dur;
    if (e.ph == 'i') os << ", \"s\": \"t\"";
    os << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid;
    if (!e.args_json.empty()) os << ", \"args\": " << e.args_json;
    os << "}";
    first = false;
  }
  os << "\n]}\n";
}

std::string TraceSink::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace dg::obs
