// Tests for the trace sink's wire tail: the ring of transmissions,
// receptions and collisions it keeps as an engine observer, its text
// rendering, and its byte-identity across round-thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "engine_test_peer.h"
#include "fault/plan.h"
#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "scn/json.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"
#include "traffic/spec.h"

namespace dg::sim {
namespace {

using obs::TraceSink;
using test::reliable_path;
using test::ScriptProcess;
TraceSink wire_sink(std::size_t capacity) {
  return TraceSink(TraceSink::Filter{}, capacity);
}

std::string text(const TraceSink& sink) {
  std::ostringstream os;
  sink.write_text(os);
  return os.str();
}

TEST(TraceSinkWire, RecordsTransmitAndReceive) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 42}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  TraceSink trace = wire_sink(16);
  engine.add_observer(&trace);
  engine.run_round();
  EXPECT_EQ(text(trace),
            "round 1: v0 tx data content=42\n"
            "round 1: v0 -> v1 data content=42\n");
}

TEST(TraceSinkWire, RecordsCollisionsNotSilence) {
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
  TraceSink trace = wire_sink(16);
  engine.add_observer(&trace);
  engine.run_rounds(2);  // round 2: everyone silent, nothing recorded
  EXPECT_EQ(text(trace),
            "round 1: v0 tx data content=1\n"
            "round 1: v2 tx data content=2\n"
            "round 1: v1 collision\n");
}

TEST(TraceSinkWire, NoCapacityNoInterest) {
  EXPECT_EQ(TraceSink().interest(), 0u);
  EXPECT_EQ(wire_sink(1).interest(),
            Observer::kTransmit | Observer::kReceive | Observer::kSilence);
}

TEST(TraceSinkWire, RingDropsOldestWithNotice) {
  TraceSink trace = wire_sink(3);
  for (Round t = 1; t <= 5; ++t) {
    trace.on_transmit(t, 0, Packet{1, DataPayload{MessageId{1, 1}, 9}});
  }
  EXPECT_EQ(text(trace),
            "... (2 earlier events dropped)\n"
            "round 3: v0 tx data content=9\n"
            "round 4: v0 tx data content=9\n"
            "round 5: v0 tx data content=9\n");
}

TEST(TraceSinkWire, DescribeFormats) {
  TraceSink trace = wire_sink(8);
  trace.on_receive(17, 5, 3, Packet{3, DataPayload{MessageId{3, 1}, 42}});
  trace.on_transmit(17, 5, Packet{5, SeedPayload{7, 99}});
  trace.on_silence(17, 5, /*collision=*/true);
  EXPECT_EQ(text(trace),
            "round 17: v3 -> v5 data content=42\n"
            "round 17: v5 tx seed owner=7\n"
            "round 17: v5 collision\n");
}

TEST(TraceSinkWire, FaultEventsComeOnlyFromTheEngineSeam) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  std::vector<std::unique_ptr<Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[0], std::map<Round, std::uint64_t>{{1, 5}, {3, 6}}));
  procs.push_back(std::make_unique<ScriptProcess>(
      ids[1], std::map<Round, std::uint64_t>{}));
  Engine engine(g, sched, std::move(procs), 7);
  fault::ScriptFaultPlan plan({{1, 1, fault::FaultKind::kCrash},
                               {2, 1, fault::FaultKind::kRecover}});
  obs::Registry registry;
  TraceSink trace = wire_sink(16);
  engine.configure(EngineConfig{}.with_fault_plan(&plan).with_telemetry(
      &registry, &trace));
  engine.add_observer(&trace);
  engine.run_rounds(3);

  scn::json::Value doc;
  ASSERT_TRUE(scn::json::parse(trace.json(), doc).ok());
  std::vector<std::string> faults;
  for (const scn::json::Value& ev : doc.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() == "M") continue;
    const std::string name = ev.find("name")->as_string();
    const auto pid = static_cast<int>(ev.find("pid")->as_number());
    if (pid == 3) faults.push_back(name);
    if (pid == 4) {
      EXPECT_TRUE(name == "tx" || name == "rx" || name == "collision") << name;
    }
  }
  // Each fault once, on the faults track; the wire tail holds the two
  // transmissions and the one reception the recovered vertex heard.
  EXPECT_EQ(faults, (std::vector<std::string>{"crash", "recover"}));
  EXPECT_EQ(text(trace),
            "round 1: v0 tx data content=5\n"
            "round 3: v0 tx data content=6\n"
            "round 3: v0 -> v1 data content=6\n");
}

// The sharded dispatch replays observer events serially, so the wire tail
// -- text and JSON alike -- must not see the round-thread count.
TEST(TraceSinkWire, ShardedTailIsByteIdentical) {
  const auto g = graph::grid(12, 12, 1.0, 1.5);  // n=144
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  struct Tail {
    std::string text;
    std::string json;
    std::uint64_t pool_jobs = 0;
  };
  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2029);
    obs::Registry registry;  // counts pool jobs; the sink stays wire-only
    sim.configure(EngineConfig{}.with_round_threads(threads).with_telemetry(
        &registry));
    EngineTestPeer::always_shard(sim.engine());
    TraceSink trace = wire_sink(512);
    sim.add_observer(&trace);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2029, 0x7fcULL)));
    const auto plan = fault::build_fault_plan(fspec);
    sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
    sim.run_phases(3);
    Tail tail;
    tail.text = text(trace);
    tail.json = trace.json();
    tail.pool_jobs =
        registry.counter("engine.dispatch.pool_jobs", obs::Domain::kTiming);
    return tail;
  };
  const Tail serial = run(1);
  const Tail sharded = run(4);
  EXPECT_GT(sharded.pool_jobs, 0u) << "no round reached the pool";
  EXPECT_NE(serial.text.find("earlier events dropped"), std::string::npos);
  EXPECT_NE(serial.json.find("\"rx\""), std::string::npos);
  EXPECT_EQ(serial.text, sharded.text);
  EXPECT_EQ(serial.json, sharded.json);
}

}  // namespace
}  // namespace dg::sim
