// Unit tests for the obs telemetry subsystem: registry bucketing/merge
// semantics (the campaign roll-up relies on merge ORDER being observable
// through gauges), JSON well-formedness of both emitters (checked with the
// scn strict parser, not string fishing), trace span nesting inside the
// virtual round tick, the record-time filters, and the wire tail's
// write-time filters.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "scn/json.h"

namespace dg::obs {
namespace {

using scn::json::Value;

Value parse_ok(const std::string& text) {
  Value doc;
  const auto err = scn::json::parse(text, doc);
  EXPECT_TRUE(err.ok()) << err.line << ':' << err.col << ": " << err.message;
  return doc;
}

// ---- registry: histogram bucket edges ----

TEST(ObsRegistry, HistogramBucketEdges) {
  Registry reg;
  Registry::Histogram& h =
      reg.histogram("h", Domain::kLogical, {1.0, 10.0, 100.0});
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow

  // Bucket i covers (bounds[i-1], bounds[i]]: a value exactly on a bound
  // falls into that bound's bucket, one ulp above rolls over.
  h.record(1.0);    // bucket 0 (v <= 1)
  h.record(0.0);    // bucket 0
  h.record(1.5);    // bucket 1 (1 < v <= 10)
  h.record(10.0);   // bucket 1
  h.record(10.5);   // bucket 2
  h.record(100.0);  // bucket 2
  h.record(100.5);  // overflow
  h.record(1e9);    // overflow

  const std::vector<std::uint64_t> want = {2, 2, 2, 2};
  EXPECT_EQ(h.buckets(), want);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 0.0 + 1.5 + 10.0 + 10.5 + 100.0 + 100.5 +
                                1e9);
}

TEST(ObsRegistry, CounterAndGaugeSlotsAreStable) {
  Registry reg;
  std::uint64_t& c = reg.counter("c", Domain::kLogical);
  c += 3;
  reg.counter("c", Domain::kLogical) += 2;  // same slot
  EXPECT_EQ(reg.counter("c", Domain::kLogical), 5u);
  reg.gauge("g", Domain::kTiming) = 7.5;
  EXPECT_DOUBLE_EQ(reg.gauge("g", Domain::kTiming), 7.5);
  EXPECT_EQ(reg.size(), 2u);
}

// ---- registry: merge semantics and order observability ----

TEST(ObsRegistry, MergeAddsCountersAndBucketsGaugesLastWriteWins) {
  Registry a, b;
  a.counter("n", Domain::kLogical) = 10;
  b.counter("n", Domain::kLogical) = 32;
  a.gauge("g", Domain::kLogical) = 1.0;
  b.gauge("g", Domain::kLogical) = 2.0;
  a.histogram("h", Domain::kLogical, {1.0, 2.0}).record(0.5);
  b.histogram("h", Domain::kLogical, {1.0, 2.0}).record(1.5);
  b.counter("only_b", Domain::kTiming) = 4;

  a.merge(b);
  EXPECT_EQ(a.counter("n", Domain::kLogical), 42u);
  EXPECT_DOUBLE_EQ(a.gauge("g", Domain::kLogical), 2.0);  // b overwrote
  const std::vector<std::uint64_t> want = {1, 1, 0};
  EXPECT_EQ(a.histogram("h", Domain::kLogical, {1.0, 2.0}).buckets(), want);
  EXPECT_EQ(a.counter("only_b", Domain::kTiming), 4u);  // created on merge
}

TEST(ObsRegistry, MergeOrderIsObservableThroughGauges) {
  // The campaign runner must fold per-trial registries in TRIAL order;
  // gauges make a wrong (completion-order) fold detectable.
  Registry t0, t1, forward, backward;
  t0.gauge("last", Domain::kLogical) = 0.0;
  t1.gauge("last", Domain::kLogical) = 1.0;
  forward.merge(t0);
  forward.merge(t1);
  backward.merge(t1);
  backward.merge(t0);
  EXPECT_DOUBLE_EQ(forward.gauge("last", Domain::kLogical), 1.0);
  EXPECT_DOUBLE_EQ(backward.gauge("last", Domain::kLogical), 0.0);
  EXPECT_NE(forward.json(), backward.json());
}

// ---- registry: JSON shape ----

TEST(ObsRegistry, JsonParsesAndSeparatesDomains) {
  Registry reg;
  reg.counter("logical.c", Domain::kLogical) = 1;
  reg.counter("timing.c", Domain::kTiming) = 2;
  reg.gauge("logical.g", Domain::kLogical) = 0.5;
  reg.histogram("timing.h", Domain::kTiming, {1.0}).record(2.0);

  const Value full = parse_ok(reg.json(/*include_timing=*/true));
  ASSERT_TRUE(full.is_object());
  EXPECT_EQ(full.find("format")->as_string(), "dg-metrics-v1");
  const Value* logical = full.find("logical");
  ASSERT_NE(logical, nullptr);
  EXPECT_NE(logical->find("counters")->find("logical.c"), nullptr);
  EXPECT_EQ(logical->find("counters")->find("timing.c"), nullptr);
  const Value* timing = full.find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->find("counters")->find("timing.c"), nullptr);
  const Value* h = timing->find("histograms")->find("timing.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 1.0);

  // The gating dump omits the timing domain entirely.
  const Value logical_only = parse_ok(reg.json(/*include_timing=*/false));
  EXPECT_EQ(logical_only.find("timing"), nullptr);
  ASSERT_NE(logical_only.find("logical"), nullptr);
}

TEST(ObsRegistry, EmptyRegistryStillEmitsValidJson) {
  Registry reg;
  const Value doc = parse_ok(reg.json());
  EXPECT_NE(doc.find("logical"), nullptr);
}

// ---- trace sink: document shape and span nesting ----

/// Flattened view of one parsed trace event.
struct Ev {
  std::string name;
  std::string ph;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
  std::int64_t pid = 0;
  std::int64_t tid = 0;
};

std::vector<Ev> parse_events(const TraceSink& sink) {
  const Value doc = parse_ok(sink.json());
  const Value* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<Ev> out;
  for (const Value& v : events->items()) {
    Ev e;
    e.name = v.find("name")->as_string();
    e.ph = v.find("ph")->as_string();
    e.ts = static_cast<std::int64_t>(v.find("ts")->as_number());
    if (const Value* d = v.find("dur")) {
      e.dur = static_cast<std::int64_t>(d->as_number());
    }
    e.pid = static_cast<std::int64_t>(v.find("pid")->as_number());
    e.tid = static_cast<std::int64_t>(v.find("tid")->as_number());
    out.push_back(e);
  }
  return out;
}

const Ev* find_event(const std::vector<Ev>& events, const std::string& name) {
  for (const Ev& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const std::vector<std::string> kCoreStages = {
    "fault", "transmit", "prepare_round", "compute", "receive",
    "output_flush"};

TEST(ObsTraceSink, PhaseSlicesNestInsideTheRoundTick) {
  TraceSink sink;
  // fault/transmit/prepare/compute/receive/output ns, pipeline order.
  sink.round_phases(7, kCoreStages, {0, 3000, 0, 6000, 1000, 0});

  const auto events = parse_events(sink);
  const Ev* round = find_event(events, "round 7");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->ts, 7 * TraceSink::kRoundTickUs);
  EXPECT_EQ(round->dur, TraceSink::kRoundTickUs);
  for (const char* phase : {"transmit", "compute", "receive"}) {
    const Ev* p = find_event(events, phase);
    ASSERT_NE(p, nullptr) << phase;
    EXPECT_GE(p->ts, round->ts) << phase;
    EXPECT_LE(p->ts + p->dur, round->ts + round->dur) << phase;
    EXPECT_GE(p->dur, 1) << phase;
  }
  // Proportional split: compute measured 60% of the round.
  EXPECT_EQ(find_event(events, "compute")->dur, 600);
  EXPECT_EQ(find_event(events, "prepare_round"), nullptr);  // 0 ns: absent
}

TEST(ObsTraceSink, MessageSpanChildrenStayInsideTheOuterSlice) {
  TraceSink sink;
  // enqueue 3, admit 5, first_recv 6, ack 9.
  sink.message_span(/*vertex=*/4, /*content=*/1234, 3, 5, 6, 9, 0);
  const auto events = parse_events(sink);

  const Ev* outer = find_event(events, "msg 1234");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->ts, 3 * TraceSink::kRoundTickUs);
  EXPECT_EQ(outer->dur, (9 - 3) * TraceSink::kRoundTickUs);
  EXPECT_EQ(outer->tid, 4);

  const Ev* queued = find_event(events, "queued");
  const Ev* inflight = find_event(events, "inflight");
  const Ev* first_recv = find_event(events, "first_recv");
  ASSERT_NE(queued, nullptr);
  ASSERT_NE(inflight, nullptr);
  ASSERT_NE(first_recv, nullptr);
  for (const Ev* child : {queued, inflight}) {
    EXPECT_GE(child->ts, outer->ts);
    EXPECT_LE(child->ts + child->dur, outer->ts + outer->dur);
  }
  EXPECT_EQ(queued->dur, (5 - 3) * TraceSink::kRoundTickUs);
  EXPECT_EQ(inflight->ts, 5 * TraceSink::kRoundTickUs);
  EXPECT_EQ(first_recv->ph, "i");
  EXPECT_EQ(first_recv->ts, 6 * TraceSink::kRoundTickUs);

  // Status is part of the outer slice's args (validate_trace.py keys on it).
  EXPECT_NE(sink.json().find("\"status\": \"acked\""), std::string::npos);
}

TEST(ObsTraceSink, TimestampsAreMonotonePerTrackInFileOrder) {
  TraceSink sink;
  // Insert deliberately out of timestamp order across tracks.
  sink.crash(9, 2);
  sink.round_phases(1, {"transmit"}, {100});
  sink.message_span(2, 50, 2, 3, 4, 8, 0);
  sink.recover(12, 2);
  sink.round_phases(0, {"transmit"}, {100});

  const auto events = parse_events(sink);
  ASSERT_FALSE(events.empty());
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> last;
  for (const Ev& e : events) {
    if (e.ph == "M") continue;
    const auto track = std::make_pair(e.pid, e.tid);
    const auto it = last.find(track);
    if (it != last.end()) {
      EXPECT_GE(e.ts, it->second) << e.name;
    }
    last[track] = e.ts;
  }
}

// ---- trace sink: filters ----

TEST(ObsTraceSink, RoundRangeFilterDropsOutOfWindowEvents) {
  TraceSink::Filter f;
  f.round_lo = 5;
  f.round_hi = 10;
  TraceSink sink(f);

  const std::vector<std::string> names = {"transmit"};
  const std::vector<std::uint64_t> ns = {10};
  sink.round_phases(4, names, ns);   // below the window
  sink.round_phases(5, names, ns);   // lower edge: kept
  sink.round_phases(10, names, ns);  // upper edge: kept
  sink.round_phases(11, names, ns);  // above
  sink.crash(3, 0);           // below
  sink.crash(7, 0);           // kept
  // Span ends (ack=4) before the window opens: dropped entirely.
  sink.message_span(0, 1, 1, 2, 3, 4, 0);
  // Span overlaps the window: kept.
  sink.message_span(0, 2, 4, 6, 7, 12, 0);

  const auto events = parse_events(sink);
  EXPECT_EQ(find_event(events, "round 4"), nullptr);
  EXPECT_NE(find_event(events, "round 5"), nullptr);
  EXPECT_NE(find_event(events, "round 10"), nullptr);
  EXPECT_EQ(find_event(events, "round 11"), nullptr);
  EXPECT_EQ(find_event(events, "msg 1"), nullptr);
  EXPECT_NE(find_event(events, "msg 2"), nullptr);
  const Ev* crash = find_event(events, "crash");
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->ts, 7 * TraceSink::kRoundTickUs);
}

TEST(ObsTraceSink, VertexFilterScopesMessageAndFaultTracks) {
  TraceSink::Filter f;
  f.vertices = {3, 5};
  TraceSink sink(f);

  sink.message_span(3, 100, 1, 2, 3, 4, 0);  // kept
  sink.message_span(4, 200, 1, 2, 3, 4, 0);  // filtered
  sink.crash(2, 5);                          // kept
  sink.crash(2, 6);                          // filtered
  // Engine slices ignore the vertex filter.
  sink.round_phases(1, {"transmit"}, {10});

  const auto events = parse_events(sink);
  EXPECT_NE(find_event(events, "msg 100"), nullptr);
  EXPECT_EQ(find_event(events, "msg 200"), nullptr);
  const Ev* crash = find_event(events, "crash");
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->tid, 5);
  EXPECT_NE(find_event(events, "round 1"), nullptr);
}

// ---- wire tail ----

TEST(ObsTraceSink, WireInstantsCarryTheTextTailAndHonourFilters) {
  TraceSink::Filter f;
  f.round_lo = 3;
  f.round_hi = 5;
  f.vertices = {1, 2};
  TraceSink sink(f, /*wire_capacity=*/8);
  const sim::Packet data{1, sim::DataPayload{sim::MessageId{1, 1}, 42}};
  sink.on_transmit(2, 1, data);      // before the round window
  sink.on_transmit(3, 1, data);      // kept
  sink.on_receive(3, 2, 1, data);    // kept
  sink.on_receive(3, 4, 1, data);    // vertex 4 not selected
  sink.on_silence(4, 2, /*collision=*/false);  // plain silence: not recorded
  sink.on_silence(4, 2, /*collision=*/true);   // kept
  sink.on_transmit(6, 2, data);      // after the round window

  // The text view is the whole ring, unfiltered.
  std::ostringstream text;
  sink.write_text(text);
  EXPECT_EQ(text.str(),
            "round 2: v1 tx data content=42\n"
            "round 3: v1 tx data content=42\n"
            "round 3: v1 -> v2 data content=42\n"
            "round 3: v1 -> v4 data content=42\n"
            "round 4: v2 collision\n"
            "round 6: v2 tx data content=42\n");

  // The JSON view is the same ring through the filters, on the wire
  // track, each instant carrying its text line.
  const Value doc = parse_ok(sink.json());
  std::vector<std::string> names, lines;
  for (const Value& v : doc.find("traceEvents")->items()) {
    if (v.find("ph")->as_string() == "M") {
      EXPECT_EQ(v.find("args")->find("name")->as_string(), "wire");
      continue;
    }
    EXPECT_EQ(v.find("pid")->as_number(), 4);
    names.push_back(v.find("name")->as_string());
    lines.push_back(v.find("args")->find("text")->as_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"tx", "rx", "collision"}));
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "round 3: v1 tx data content=42",
                       "round 3: v1 -> v2 data content=42",
                       "round 4: v2 collision"}));
  EXPECT_EQ(sink.event_count(), 3u);
}

}  // namespace
}  // namespace dg::obs
