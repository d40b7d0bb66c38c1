// Tests for the bounded trace recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "fault/plan.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "test_support.h"

namespace dg::sim {
namespace {

using test::reliable_path;
using test::ScriptProcess;

TEST(TraceRecorder, RecordsTransmitAndReceive) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 42}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  TraceRecorder trace;
  engine.add_observer(&trace);
  engine.run_round();
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, TraceRecorder::EventKind::transmit);
  EXPECT_EQ(trace.events()[0].vertex, 0u);
  EXPECT_EQ(trace.events()[0].detail, 42u);
  EXPECT_EQ(trace.events()[1].kind, TraceRecorder::EventKind::receive);
  EXPECT_EQ(trace.events()[1].vertex, 1u);
  EXPECT_EQ(trace.events()[1].peer, 0u);
}

TEST(TraceRecorder, RecordsCollisionsNotSilence) {
  const auto g = reliable_path(3);
  const auto ids = assign_ids(3, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 1}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[2], std::map<Round, std::uint64_t>{{1, 2}}));
  Engine engine(g, sched, std::move(procs), 7);
  TraceRecorder trace;
  engine.add_observer(&trace);
  engine.run_rounds(2);  // round 2: everyone silent, nothing recorded
  std::size_t collisions = 0;
  for (const auto& e : trace.events()) {
    if (e.kind == TraceRecorder::EventKind::collision) ++collisions;
  }
  EXPECT_EQ(collisions, 1u);  // vertex 1 in round 1 only
}

TEST(TraceRecorder, RingBufferDropsOldest) {
  TraceRecorder trace(/*capacity=*/3);
  const Packet p{1, DataPayload{MessageId{1, 1}, 9}};
  for (Round t = 1; t <= 5; ++t) {
    trace.on_transmit(t, 0, p);
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(trace.events().front().round, 3);
}

TEST(TraceRecorder, RoundMarkersAreOptInAndBracketTheRound) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 42}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  TraceRecorder trace;
  trace.enable_round_markers(true);  // before add_observer: interest is
                                     // sampled at registration
  engine.add_observer(&trace);
  engine.run_round();
  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events().front().kind, TraceRecorder::EventKind::round_begin);
  EXPECT_EQ(trace.events()[1].kind, TraceRecorder::EventKind::transmit);
  EXPECT_EQ(trace.events()[2].kind, TraceRecorder::EventKind::receive);
  EXPECT_EQ(trace.events().back().kind, TraceRecorder::EventKind::round_end);
  EXPECT_EQ(TraceRecorder::describe(trace.events().front()),
            "round 1: round begin");
  EXPECT_EQ(TraceRecorder::describe(trace.events().back()),
            "round 1: round end");
}

TEST(TraceRecorder, RoundMarkersDefaultOff) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 42}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  TraceRecorder trace;  // default interest: wire events only
  engine.add_observer(&trace);
  engine.run_round();
  for (const auto& e : trace.events()) {
    EXPECT_NE(e.kind, TraceRecorder::EventKind::round_begin);
    EXPECT_NE(e.kind, TraceRecorder::EventKind::round_end);
  }
}

TEST(TraceRecorder, FaultEventsFlowThroughTheEngineSeam) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  fault::ScriptFaultPlan plan({{1, 1, fault::FaultKind::kCrash},
                               {2, 1, fault::FaultKind::kRecover}});
  engine.configure(EngineConfig{}.with_fault_plan(&plan));
  TraceRecorder trace;
  trace.enable_fault_events(true);
  engine.add_observer(&trace);
  engine.run_rounds(2);
  std::vector<std::string> described;
  for (const auto& e : trace.events()) {
    if (e.kind == TraceRecorder::EventKind::crash ||
        e.kind == TraceRecorder::EventKind::recover) {
      described.push_back(TraceRecorder::describe(e));
    }
  }
  ASSERT_EQ(described.size(), 2u);
  EXPECT_EQ(described[0], "round 1: v1 crash");
  EXPECT_EQ(described[1], "round 2: v1 recover");
}

TEST(TraceRecorder, DescribeFormats) {
  TraceRecorder::Event e;
  e.round = 17;
  e.kind = TraceRecorder::EventKind::receive;
  e.vertex = 5;
  e.peer = 3;
  e.is_data = true;
  e.detail = 42;
  EXPECT_EQ(TraceRecorder::describe(e), "round 17: v3 -> v5 data content=42");
}

TEST(TraceRecorder, PrintIncludesDropNotice) {
  TraceRecorder trace(1);
  const Packet p{1, DataPayload{MessageId{1, 1}, 9}};
  trace.on_transmit(1, 0, p);
  trace.on_transmit(2, 0, p);
  std::ostringstream os;
  trace.print(os);
  EXPECT_NE(os.str().find("1 earlier events dropped"), std::string::npos);
}

TEST(TraceRecorder, ClearResets) {
  TraceRecorder trace(2);
  const Packet p{1, DataPayload{MessageId{1, 1}, 9}};
  trace.on_transmit(1, 0, p);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

}  // namespace
}  // namespace dg::sim
