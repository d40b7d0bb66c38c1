// Tests for the execution engine and the link schedulers: the Section 2
// collision semantics (single-transmitter rule, no collision detection,
// transmitters don't hear), scheduler obliviousness and determinism, and
// engine reproducibility.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"

namespace dg::sim {
namespace {

using test::reliable_path;
using test::ScriptProcess;
using test::SilentProcess;
using test::unreliable_vee;

std::vector<std::unique_ptr<Process>> make_scripted(
    const std::vector<std::map<Round, std::uint64_t>>& scripts,
    const std::vector<ProcessId>& ids) {
  std::vector<std::unique_ptr<Process>> out;
  for (std::size_t v = 0; v < scripts.size(); ++v) {
    out.push_back(std::make_unique<ScriptProcess>(ids[v], scripts[v]));
  }
  return out;
}

TEST(HighWaterFilter, CapacityHintNeverChangesAnswers) {
  // The capacity hint is an allocation hint only: filters with any hint
  // answer a random stream of ids exactly as a per-origin maximum does.
  Rng rng(0x4857);
  std::map<ProcessId, std::uint32_t> best;
  HighWaterFilter filters[] = {{}, {}, {}, {}};
  const std::size_t hints[] = {0, 1, 3, 64};
  for (int i = 0; i < 4000; ++i) {
    const MessageId m{1 + rng.below(12),
                      static_cast<std::uint32_t>(rng.below(40))};
    const auto it = best.find(m.origin);
    const bool fresh = it == best.end() || m.seq > it->second;
    if (fresh) best[m.origin] = m.seq;
    for (std::size_t f = 0; f < 4; ++f) {
      ASSERT_EQ(filters[f].admit(m, hints[f]), fresh)
          << "hint " << hints[f] << ", id " << i;
    }
  }
}

TEST(AssignIds, UniqueAndNonZero) {
  const auto ids = assign_ids(500, 7);
  std::set<ProcessId> s(ids.begin(), ids.end());
  EXPECT_EQ(s.size(), 500u);
  EXPECT_FALSE(s.contains(0));
}

TEST(AssignIds, DeterministicPerSeed) {
  EXPECT_EQ(assign_ids(10, 3), assign_ids(10, 3));
  EXPECT_NE(assign_ids(10, 3), assign_ids(10, 4));
}

TEST(Engine, SingleTransmitterDelivers) {
  const auto g = reliable_path(3);  // 0 - 1 - 2
  const auto ids = assign_ids(3, 1);
  ConstantScheduler sched(false);
  auto procs = make_scripted({{{1, 100}}, {}, {}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  engine.run_round();
  const auto& p1 = dynamic_cast<const ScriptProcess&>(engine.process(1));
  const auto& p2 = dynamic_cast<const ScriptProcess&>(engine.process(2));
  ASSERT_EQ(p1.heard.size(), 1u);
  EXPECT_EQ(p1.heard[0].second, 100u);
  EXPECT_TRUE(p2.heard.empty());  // 2 is not a neighbor of 0
}

TEST(Engine, TwoTransmittersCollideAtCommonNeighbor) {
  const auto g = reliable_path(3);  // 1 hears both 0 and 2
  const auto ids = assign_ids(3, 1);
  ConstantScheduler sched(false);
  auto procs = make_scripted({{{1, 100}}, {}, {{1, 200}}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  engine.run_round();
  const auto& p1 = dynamic_cast<const ScriptProcess&>(engine.process(1));
  EXPECT_TRUE(p1.heard.empty());
  ASSERT_EQ(p1.silent_rounds.size(), 1u);  // collision presents as silence
}

TEST(Engine, TransmitterDoesNotReceive) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  auto procs = make_scripted({{{1, 100}}, {{1, 200}}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  engine.run_round();
  for (graph::Vertex v = 0; v < 2; ++v) {
    const auto& p = dynamic_cast<const ScriptProcess&>(engine.process(v));
    EXPECT_TRUE(p.heard.empty());
    EXPECT_TRUE(p.silent_rounds.empty());  // no receive step at all
  }
}

TEST(Engine, UnreliableEdgeDeliversOnlyWhenScheduled) {
  const auto g = unreliable_vee();  // {1,2} unreliable
  const auto ids = assign_ids(3, 1);
  // Round 1: edge absent; round 2: edge present.
  ExplicitScheduler sched({{false}, {true}});
  auto procs = make_scripted({{}, {{1, 10}, {2, 20}}, {}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  engine.run_rounds(2);
  const auto& p2 = dynamic_cast<const ScriptProcess&>(engine.process(2));
  ASSERT_EQ(p2.heard.size(), 1u);
  EXPECT_EQ(p2.heard[0].first, 2);     // only the round with the edge
  EXPECT_EQ(p2.heard[0].second, 20u);
}

TEST(Engine, UnreliableEdgeCausesCollisionWhenIncluded) {
  // 0 hears 1 (reliable) always; adding unreliable edge 0-2 while 2
  // transmits creates a collision at 0.
  graph::DualGraph g(3);
  g.add_reliable_edge(0, 1);
  g.add_unreliable_edge(0, 2);
  g.finalize();
  const auto ids = assign_ids(3, 1);
  for (bool edge_on : {false, true}) {
    ExplicitScheduler sched(
        std::vector<std::vector<bool>>{std::vector<bool>{edge_on}});
    auto procs = make_scripted({{}, {{1, 10}}, {{1, 20}}}, ids);
    Engine engine(g, sched, std::move(procs), 42);
    engine.run_round();
    const auto& p0 = dynamic_cast<const ScriptProcess&>(engine.process(0));
    if (edge_on) {
      EXPECT_TRUE(p0.heard.empty()) << "collision expected";
    } else {
      ASSERT_EQ(p0.heard.size(), 1u);
      EXPECT_EQ(p0.heard[0].second, 10u);
    }
  }
}

TEST(Engine, SilenceDeliveredAsNull) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  auto procs = make_scripted({{}, {}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  engine.run_rounds(3);
  const auto& p0 = dynamic_cast<const ScriptProcess&>(engine.process(0));
  EXPECT_EQ(p0.silent_rounds.size(), 3u);
}

TEST(Engine, ObserverSeesTransmitsReceivesAndCollisions) {
  class Counter final : public Observer {
   public:
    void on_transmit(Round, graph::Vertex, const Packet&) override {
      ++transmits;
    }
    void on_receive(Round, graph::Vertex, graph::Vertex,
                    const Packet&) override {
      ++receives;
    }
    void on_silence(Round, graph::Vertex, bool collision) override {
      if (collision) ++collisions;
      ++silences;
    }
    int transmits = 0, receives = 0, silences = 0, collisions = 0;
  };

  const auto g = reliable_path(3);
  const auto ids = assign_ids(3, 1);
  ConstantScheduler sched(false);
  // Round 1: 0 and 2 transmit -> 1 collides.
  auto procs = make_scripted({{{1, 1}}, {}, {{1, 2}}}, ids);
  Engine engine(g, sched, std::move(procs), 42);
  Counter counter;
  engine.add_observer(&counter);
  engine.run_round();
  EXPECT_EQ(counter.transmits, 2);
  EXPECT_EQ(counter.receives, 0);
  EXPECT_EQ(counter.collisions, 1);  // vertex 1
  EXPECT_EQ(counter.silences, 1);
}

TEST(Engine, RoundCounterAdvances) {
  const auto g = reliable_path(2);
  const auto ids = assign_ids(2, 1);
  ConstantScheduler sched(false);
  Engine engine(g, sched, make_scripted({{}, {}}, ids), 42);
  EXPECT_EQ(engine.round(), 0);
  engine.run_rounds(5);
  EXPECT_EQ(engine.round(), 5);
}

// ---- schedulers ----

TEST(BernoulliScheduler, DeterministicAfterCommit) {
  const auto g = unreliable_vee();
  BernoulliScheduler a(0.5), b(0.5);
  a.commit(g, 9);
  b.commit(g, 9);
  for (Round t = 1; t <= 200; ++t) {
    EXPECT_EQ(a.active(0, t), b.active(0, t));
  }
}

TEST(BernoulliScheduler, RateMatchesP) {
  const auto g = unreliable_vee();
  for (double p : {0.2, 0.5, 0.8}) {
    BernoulliScheduler sched(p);
    sched.commit(g, 123);
    int on = 0;
    const int n = 20000;
    for (Round t = 1; t <= n; ++t) {
      if (sched.active(0, t)) ++on;
    }
    EXPECT_NEAR(static_cast<double>(on) / n, p, 0.02);
  }
}

TEST(BernoulliScheduler, ExtremesAreConstant) {
  const auto g = unreliable_vee();
  BernoulliScheduler never(0.0), always(1.0);
  never.commit(g, 1);
  always.commit(g, 1);
  for (Round t = 1; t <= 50; ++t) {
    EXPECT_FALSE(never.active(0, t));
    EXPECT_TRUE(always.active(0, t));
  }
}

TEST(FlickerScheduler, RespectsPeriodAndDuty) {
  const auto g = unreliable_vee();
  FlickerScheduler sched(10, 3);
  sched.commit(g, 77);
  int on = 0;
  for (Round t = 1; t <= 1000; ++t) {
    if (sched.active(0, t)) ++on;
  }
  EXPECT_EQ(on, 300);  // exactly duty/period of the rounds
  // Periodicity.
  for (Round t = 1; t <= 50; ++t) {
    EXPECT_EQ(sched.active(0, t), sched.active(0, t + 10));
  }
}

TEST(AntiScheduleAdversary, TracksTargetSchedule) {
  AntiScheduleAdversary sched(
      [](Round t) { return t % 2 == 0 ? 0.5 : 0.125; }, 0.25);
  const auto g = unreliable_vee();
  sched.commit(g, 0);
  EXPECT_TRUE(sched.active(0, 2));    // high-probability round: flood
  EXPECT_FALSE(sched.active(0, 1));   // low-probability round: withdraw
}

TEST(ExplicitScheduler, CyclesPattern) {
  const auto g = unreliable_vee();
  ExplicitScheduler sched({{true}, {false}, {false}});
  sched.commit(g, 0);
  EXPECT_TRUE(sched.active(0, 1));
  EXPECT_FALSE(sched.active(0, 2));
  EXPECT_FALSE(sched.active(0, 3));
  EXPECT_TRUE(sched.active(0, 4));  // wraps
}

TEST(ExplicitScheduler, PatternWidthValidatedAtCommit) {
  const auto g = unreliable_vee();  // one unreliable edge
  ExplicitScheduler sched({{true, false}});
  EXPECT_DEATH(sched.commit(g, 0), "precondition");
}

// ---- reproducibility ----

TEST(Engine, IdenticalSeedsGiveIdenticalExecutions) {
  // Random processes: transmit with probability 1/2 each round.
  class CoinProcess final : public Process {
   public:
    explicit CoinProcess(ProcessId id) : Process(id) {}
    std::optional<Packet> transmit(RoundContext& ctx) override {
      if (!ctx.rng().chance(0.5)) return std::nullopt;
      return Packet{id(), DataPayload{MessageId{id(), ++seq_}, 0}};
    }
    void receive(const std::optional<Packet>& packet, RoundContext&) override {
      if (packet.has_value()) ++received;
    }
    std::uint32_t seq_ = 0;
    int received = 0;
  };

  auto run = [](std::uint64_t seed) {
    const auto g = reliable_path(5);
    const auto ids = assign_ids(5, 1);
    BernoulliScheduler sched(0.5);
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t v = 0; v < 5; ++v) {
      procs.push_back(std::make_unique<CoinProcess>(ids[v]));
    }
    Engine engine(g, sched, std::move(procs), seed);
    engine.run_rounds(100);
    std::vector<int> received;
    for (graph::Vertex v = 0; v < 5; ++v) {
      received.push_back(
          dynamic_cast<const CoinProcess&>(engine.process(v)).received);
    }
    return received;
  };

  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // overwhelmingly likely over 100 rounds
}

}  // namespace
}  // namespace dg::sim
