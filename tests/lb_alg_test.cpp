// Unit tests for LbProcess: phase structure (preamble vs body traffic),
// sending-state lifecycle, ack timing, recv dedup (the per-origin
// high-water filter, checked against a set of every id ever heard), and
// the environment contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine_test_peer.h"
#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "sim/splice.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace dg::lb {
namespace {

LbParams small_params(std::size_t delta, std::size_t delta_prime,
                      double ack_scale = 0.002) {
  LbScales scales;
  scales.ack_scale = ack_scale;
  return LbParams::calibrated(0.1, 1.5, delta, delta_prime, scales);
}

/// Observer asserting the phase discipline: seed packets only in preambles,
/// data packets only in bodies.
class PhaseDiscipline final : public sim::Observer {
 public:
  explicit PhaseDiscipline(const LbParams& params) : params_(&params) {}

  void on_transmit(sim::Round round, graph::Vertex,
                   const sim::Packet& packet) override {
    const std::int64_t pos = (round - 1) % params_->phase_length();
    const bool preamble = pos < params_->t_s;
    if (packet.is_seed()) {
      EXPECT_TRUE(preamble) << "seed packet in body at round " << round;
    } else {
      EXPECT_FALSE(preamble) << "data packet in preamble at round " << round;
    }
  }

 private:
  const LbParams* params_;
};

TEST(LbProcess, SeedPacketsOnlyInPreambleDataOnlyInBody) {
  const auto g = graph::clique_cluster(8);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   77);
  PhaseDiscipline discipline(params);
  sim.add_observer(&discipline);
  sim.post_bcast(0, 1);
  sim.run_phases(params.t_ack_phases + 1);
  EXPECT_EQ(sim.report().ack_count, 1u);
}

TEST(LbProcess, AckArrivesAtPhaseEndAfterTackPhases) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   78);
  sim.post_bcast(0, 5);  // input at round 1 == phase start
  sim.run_phases(params.t_ack_phases + 1);
  ASSERT_EQ(sim.checker().broadcasts().size(), 1u);
  const auto& record = sim.checker().broadcasts()[0];
  ASSERT_TRUE(record.acked());
  // Input at a phase boundary: sending starts immediately, so the ack lands
  // exactly at the end of phase t_ack_phases.
  EXPECT_EQ(record.ack_round, params.t_ack_phases * params.phase_length());
}

TEST(LbProcess, MidPhaseInputWaitsForNextBoundary) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   79);
  sim.run_rounds(3);  // mid-phase
  sim.post_bcast(0, 5);
  sim.run_phases(params.t_ack_phases + 2);
  const auto& record = sim.checker().broadcasts()[0];
  ASSERT_TRUE(record.acked());
  // Sending starts at the next boundary (end of phase 1), then runs
  // t_ack_phases full phases.
  EXPECT_EQ(record.ack_round,
            (params.t_ack_phases + 1) * params.phase_length());
  EXPECT_LE(record.ack_round - record.input_round, params.t_ack_bound());
}

TEST(LbProcess, BusyUntilAcked) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   80);
  EXPECT_FALSE(sim.busy(0));
  sim.post_bcast(0, 9);
  EXPECT_TRUE(sim.busy(0));
  sim.run_phases(params.t_ack_phases + 1);
  EXPECT_FALSE(sim.busy(0));
}

TEST(LbProcess, DoubleBcastViolatesContract) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   81);
  sim.post_bcast(0, 1);
  EXPECT_DEATH(sim.post_bcast(0, 2), "precondition");
}

TEST(LbProcess, MessagesAreUniquePerSender) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   82);
  const auto m1 = sim.post_bcast(0, 1);
  sim.run_phases(params.t_ack_phases + 1);
  const auto m2 = sim.post_bcast(0, 1);  // same content, new message
  EXPECT_EQ(m1.origin, m2.origin);
  EXPECT_NE(m1.seq, m2.seq);
}

TEST(LbProcess, RecvEmittedOncePerMessage) {
  const auto g = graph::clique_cluster(3);
  // Enough sending phases that the message is heard many times over.
  const auto params = small_params(g.delta(), g.delta_prime(), 0.5);
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   83);
  sim.post_bcast(0, 42);
  sim.run_phases(params.t_ack_phases + 1);
  const auto& report = sim.report();
  // Two receivers, one message: at most one recv each, while raw receptions
  // pile up across the many body rounds.
  EXPECT_LE(report.recv_count, 2u);
  EXPECT_GT(report.raw_receptions, report.recv_count);
}

TEST(LbProcess, SequentialBroadcastsBothAcked) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   84);
  sim.post_bcast(0, 1);
  sim.run_phases(params.t_ack_phases + 1);
  sim.post_bcast(0, 2);
  sim.run_phases(params.t_ack_phases + 2);
  EXPECT_EQ(sim.report().ack_count, 2u);
  EXPECT_TRUE(sim.report().timely_ack_ok);
}

TEST(LbProcess, KeepBusySaturatesVertex) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   85);
  sim.keep_busy({0});
  sim.run_phases(3 * (params.t_ack_phases + 1));
  EXPECT_GE(sim.report().ack_count, 2u);
  // An ack may land on the very last executed round; one more round lets
  // the environment re-post, after which the vertex must be busy again.
  sim.run_rounds(1);
  EXPECT_TRUE(sim.busy(0));
}

TEST(LbProcess, PhaseSeedCommittedEachPhase) {
  const auto g = graph::clique_cluster(4);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   86);
  // During the first preamble: no committed seed yet.
  sim.run_rounds(params.t_s - 1);
  EXPECT_FALSE(sim.process(0).phase_seed().has_value());
  // First body round: committed.
  sim.run_rounds(2);
  ASSERT_TRUE(sim.process(0).phase_seed().has_value());
}

TEST(LbProcess, PreamblePromisesFollowTheSeedRunner) {
  // Steps a 6-clique of bare LbProcesses by hand, every vertex every
  // round, through a preamble and into the body.  After each preamble
  // round, silent_steps(0) must promise: nothing for a leader (it draws a
  // broadcast coin every round), the rest of the preamble for a decided
  // listener, and for an active one the rounds up to its next phase-start
  // coin round, never the final preamble round.  The first body round
  // commits the group seed.
  const std::size_t n = 6;
  const auto params = small_params(n - 1, n - 1);
  const std::int64_t len = params.seed.phase_length;
  ASSERT_GT(len, 1);
  std::vector<std::unique_ptr<LbProcess>> procs;
  std::vector<Rng> rngs;
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<LbProcess>(
        params, /*id=*/100 + v, static_cast<graph::Vertex>(v), nullptr));
    rngs.emplace_back(/*seed=*/91, v);
  }
  int leaders = 0, active = 0, inactive = 0;
  for (sim::Round t = 1; t <= params.t_s + 1; ++t) {
    std::vector<std::optional<sim::Packet>> sent(n);
    int senders = 0;
    for (std::size_t v = 0; v < n; ++v) {
      sim::RoundContext ctx(t, rngs[v]);
      sent[v] = procs[v]->transmit(ctx);
      senders += sent[v].has_value();
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (sent[v].has_value()) continue;
      std::optional<sim::Packet> heard;
      for (std::size_t u = 0; u < n && senders == 1; ++u) {
        if (sent[u].has_value()) heard = sent[u];
      }
      sim::RoundContext ctx(t, rngs[v]);
      procs[v]->receive(heard, ctx);
    }
    for (std::size_t v = 0; v < n; ++v) {
      sim::RoundContext ctx(t, rngs[v]);
      procs[v]->end_round(ctx);
      const std::int64_t promise = procs[v]->silent_steps(0);
      if (t > params.t_s) {  // the first body round
        EXPECT_TRUE(procs[v]->phase_seed().has_value()) << "vertex " << v;
        continue;
      }
      EXPECT_FALSE(procs[v]->phase_seed().has_value());
      const std::int64_t next = t;  // 0-based preamble index of round t+1
      const std::int64_t rest = params.t_s - next;
      ASSERT_TRUE(procs[v]->preamble_status().has_value());
      switch (*procs[v]->preamble_status()) {
        case seed::SeedStatus::leader:
          ++leaders;
          EXPECT_EQ(promise, 0) << "leader at round " << t;
          break;
        case seed::SeedStatus::inactive:
          ++inactive;
          EXPECT_EQ(promise, rest) << "decided listener at round " << t;
          break;
        case seed::SeedStatus::active:
          ++active;
          EXPECT_EQ(promise, next % len == 0
                                 ? 0
                                 : std::min(len - next % len, rest - 1))
              << "active listener at round " << t;
          EXPECT_LT(promise, rest) << "covers the final preamble round";
          break;
      }
    }
  }
  EXPECT_GT(leaders, 0);
  EXPECT_GT(active, 0);
  EXPECT_GT(inactive, 0);
}

/// Logs every ack/recv output as one line.
class OutputLog final : public LbListener {
 public:
  void on_ack(graph::Vertex v, const sim::MessageId& m,
              sim::Round round) override {
    lines.push_back("ack " + std::to_string(v) + ' ' + key(m) + ' ' +
                    std::to_string(round));
  }
  void on_recv(graph::Vertex v, const sim::MessageId& m, std::uint64_t content,
               sim::Round round) override {
    lines.push_back("recv " + std::to_string(v) + ' ' + key(m) + ' ' +
                    std::to_string(content) + ' ' + std::to_string(round));
  }
  std::vector<std::string> lines;

 private:
  static std::string key(const sim::MessageId& m) {
    return std::to_string(m.origin) + ':' + std::to_string(m.seq);
  }
};

/// A random seed or data packet from one of a few foreign origins.
sim::Packet random_packet(Rng& rng) {
  const sim::ProcessId origin = 900 + rng.below(4);
  if (rng.chance(0.5)) {
    return sim::Packet{origin, sim::SeedPayload{origin, rng.bits()}};
  }
  return sim::Packet{
      origin,
      sim::DataPayload{
          sim::MessageId{origin, static_cast<std::uint32_t>(rng.below(50))},
          rng.bits()}};
}

TEST(LbProcess, DeafWindowsIgnoreEveryPacket) {
  // Two copies of each process, stepped by hand every round with the same
  // inputs, bcasts, crashes and coins, except inside a deaf promise
  // (sim::Process::deaf): there one copy hears null and the other a random
  // seed or data packet.  Every later transmit, seed, promise and output
  // must still agree.  Outside deaf windows both hear the same random
  // traffic, so listeners decide, recv and ack as in a network.
  const auto params = small_params(5, 5, /*ack_scale=*/0.001);
  const std::int64_t rounds = 3 * params.group_length();
  std::uint64_t deaf_rounds = 0, fed_packets = 0;
  for (std::uint64_t v = 0; v < 8; ++v) {
    OutputLog log_a, log_b;
    LbProcess a(params, 100 + v, static_cast<graph::Vertex>(v), &log_a);
    LbProcess b(params, 100 + v, static_cast<graph::Vertex>(v), &log_b);
    Rng rng_a(/*seed=*/71, v), rng_b(/*seed=*/71, v), env(/*seed=*/72, v);
    sim::Round deaf_until = 0, down_until = 0;
    for (sim::Round t = 1; t <= rounds; ++t) {
      if (t < down_until) continue;  // crashed: no calls at all
      if (t == down_until) {
        a.on_recover(t);
        b.on_recover(t);
      } else if (env.chance(0.004)) {
        a.on_crash(t);
        b.on_crash(t);
        down_until = t + 1 + static_cast<sim::Round>(env.below(40));
        deaf_until = 0;
        continue;
      }
      if (!a.busy() && env.chance(0.02)) {
        ASSERT_EQ(a.post_bcast(t), b.post_bcast(t));
      }
      sim::RoundContext ctx_a(t, rng_a), ctx_b(t, rng_b);
      const auto sent_a = a.transmit(ctx_a);
      const auto sent_b = b.transmit(ctx_b);
      ASSERT_EQ(sent_a.has_value(), sent_b.has_value()) << "round " << t;
      if (!sent_a.has_value()) {
        std::optional<sim::Packet> heard;
        if (env.chance(0.1)) heard = random_packet(env);
        if (t <= deaf_until) {
          ++deaf_rounds;
          a.receive(std::nullopt, ctx_a);
          b.receive(random_packet(env), ctx_b);
          ++fed_packets;
        } else {
          a.receive(heard, ctx_a);
          b.receive(heard, ctx_b);
        }
      }
      a.end_round(ctx_a);
      b.end_round(ctx_b);
      const std::int64_t promise = a.silent_steps(0);
      ASSERT_EQ(promise, b.silent_steps(0)) << "round " << t;
      ASSERT_EQ(a.deaf(), b.deaf()) << "round " << t;
      if (promise > 0 && a.deaf()) {
        deaf_until = std::max(deaf_until, t + promise);
      }
      ASSERT_EQ(a.phase_seed().has_value(), b.phase_seed().has_value());
      if (a.phase_seed().has_value()) {
        ASSERT_EQ(a.phase_seed()->seed_value, b.phase_seed()->seed_value)
            << "vertex " << v << " round " << t;
      }
      ASSERT_EQ(a.preamble_status(), b.preamble_status())
          << "vertex " << v << " round " << t;
      ASSERT_EQ(rng_a.bits(), rng_b.bits()) << "coins, round " << t;
    }
    EXPECT_EQ(log_a.lines, log_b.lines) << "vertex " << v;
    EXPECT_GT(a.messages_received(), 0u) << "vertex " << v;
  }
  EXPECT_GT(deaf_rounds, 0u);
  EXPECT_GT(fed_packets, 100u);
}

TEST(LbProcess, AblatedModeStillSatisfiesDeterministicSpec) {
  const auto g = graph::clique_cluster(6);
  auto params = small_params(g.delta(), g.delta_prime(), 0.01);
  params.use_shared_seeds = false;
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   87);
  sim.post_bcast(0, 7);
  sim.run_phases(params.t_ack_phases + 1);
  EXPECT_TRUE(sim.report().timely_ack_ok);
  EXPECT_TRUE(sim.report().validity_ok);
  EXPECT_EQ(sim.report().ack_count, 1u);
}

TEST(LbProcess, IdleNetworkStaysSilentInBody) {
  // No bcast inputs: body rounds carry no data packets at all.
  const auto g = graph::clique_cluster(5);
  const auto params = small_params(g.delta(), g.delta_prime());
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   88);
  sim.run_phases(2);
  EXPECT_EQ(sim.report().raw_receptions, 0u);
  EXPECT_EQ(sim.report().recv_count, 0u);
}

/// Records every recv output, per vertex, in output order.
class RecvLog final : public LbListener {
 public:
  explicit RecvLog(std::size_t n) : recvs(n) {}
  void on_ack(graph::Vertex, const sim::MessageId&, sim::Round) override {}
  void on_recv(graph::Vertex vertex, const sim::MessageId& m, std::uint64_t,
               sim::Round) override {
    recvs[vertex].push_back(m);
  }
  std::vector<std::vector<sim::MessageId>> recvs;
};

/// The reference receive filter: every data delivery the engine hands a
/// vertex, deduplicated by a set of every MessageId it ever heard.  A
/// recovered vertex ignores its receptions until the next group start
/// (LbProcess::on_recover), so deliveries inside that window are skipped.
class SetDedup final : public sim::Observer {
 public:
  SetDedup(std::size_t n, std::int64_t group_length)
      : expected(n), group_length_(group_length), passive_until_(n, 0),
        seen_(n) {}
  unsigned interest() const override { return kReceive | kFault; }
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex,
                  const sim::Packet& packet) override {
    if (!packet.is_data()) return;
    ++raw;
    if (round < passive_until_[u]) {
      ++ignored;
      return;
    }
    if (seen_[u].insert(packet.data().id).second) {
      expected[u].push_back(packet.data().id);
    }
  }
  void on_recover(sim::Round round, graph::Vertex v) override {
    const std::int64_t pos = (round - 1) % group_length_;
    passive_until_[v] = pos == 0 ? round : round + group_length_ - pos;
  }

  std::vector<std::vector<sim::MessageId>> expected;  ///< per vertex
  std::uint64_t raw = 0;      ///< data deliveries seen
  std::uint64_t ignored = 0;  ///< ... of which to recovering vertices

 private:
  std::int64_t group_length_;
  std::vector<sim::Round> passive_until_;
  std::vector<std::unordered_set<sim::MessageId, sim::MessageIdHash>> seen_;
};

TEST(LbProcess, HighWaterDedupMatchesSetDedupUnderChurnAndSplices) {
  // Poisson churn under open-loop and hotspot traffic, with and without a
  // dedup splice masking repeats, at 1 and 4 round threads: each vertex's
  // recv outputs must be exactly the set-deduplicated data deliveries.
  Rng graph_rng(1405);
  graph::GeometricSpec spec;
  spec.n = 200;
  spec.side = 9.0;
  const auto g = graph::random_geometric(spec, graph_rng);
  LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  struct Case {
    const char* traffic;
    const char* splice;  ///< empty: none
  };
  const Case cases[] = {{"poisson:0.05", ""},
                        {"hotspot:0.5:0.5", ""},
                        {"hotspot:0.5:0.5", "dedup:2"}};
  for (const Case& c : cases) {
    std::vector<std::vector<sim::MessageId>> by_threads[2];
    for (int i = 0; i < 2; ++i) {
      const std::size_t threads = i == 0 ? 1 : 4;
      const std::string what = std::string(c.traffic) + " splice '" +
                               c.splice + "' threads " +
                               std::to_string(threads);
      traffic::TrafficSpec tspec;
      ASSERT_EQ(traffic::parse_traffic_spec(c.traffic, tspec), "");
      fault::FaultSpec fspec;
      ASSERT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");
      const auto plan = fault::build_fault_plan(fspec);
      LbSimulation sim(g, std::make_unique<sim::BernoulliScheduler>(0.5),
                       params, /*master_seed=*/1671);
      RecvLog log(g.size());
      sim.set_extra_listener(&log);
      SetDedup reference(g.size(), params.group_length());
      sim.add_observer(&reference);
      sim.add_traffic(traffic::build_source(tspec, g.size(), 1672));
      sim::EngineConfig config;
      config.with_round_threads(threads).with_fault_plan(plan.get());
      if (*c.splice != '\0') {
        sim::SpliceSpec splice;
        std::string error;
        ASSERT_TRUE(sim::parse_splice_spec(c.splice, splice, error)) << error;
        config.with_splice(splice);
      }
      sim.configure(config);
      if (threads > 1) sim::EngineTestPeer::always_shard(sim.engine());
      sim.run_phases(6);

      EXPECT_GT(sim.ledger().recoveries, 0u) << what;
      EXPECT_GT(reference.raw, sim.report().recv_count) << what;
      EXPECT_GT(reference.ignored, 0u) << what << ": no passive window hit";
      for (graph::Vertex v = 0; v < g.size(); ++v) {
        ASSERT_EQ(log.recvs[v], reference.expected[v])
            << what << ": vertex " << v;
      }
      by_threads[i] = log.recvs;
    }
    EXPECT_EQ(by_threads[0], by_threads[1]) << c.traffic << " " << c.splice;
  }
}

/// Drives one LbProcess alone, round by round, as the engine would.
class LoneProcess {
 public:
  explicit LoneProcess(const LbParams& params)
      : params_(params), log_(1), process_(params, /*id=*/1, 0, &log_),
        rng_(3) {}

  /// Delivers `m` from origin m.origin in the next body round (stepping
  /// silent rounds until one comes up).
  void deliver(const sim::MessageId& m) {
    while ((round_ % params_.group_length()) < params_.t_s) step(std::nullopt);
    step(sim::Packet{m.origin, sim::DataPayload{m, 0}});
  }
  /// Crashes at the next round, recovers `down` rounds later and idles
  /// through the passive stretch up to the next group start.
  void crash_and_recover(sim::Round down) {
    process_.on_crash(round_ + 1);
    round_ += down;
    process_.on_recover(round_ + 1);
    do {
      step(std::nullopt);
    } while (round_ % params_.group_length() != 0);
  }
  const std::vector<sim::MessageId>& recvs() const { return log_.recvs[0]; }

 private:
  void step(const std::optional<sim::Packet>& packet) {
    sim::RoundContext ctx(++round_, rng_);
    EXPECT_FALSE(process_.transmit(ctx).has_value() && packet.has_value());
    process_.receive(packet, ctx);
    process_.end_round(ctx);
  }

  LbParams params_;
  RecvLog log_;
  LbProcess process_;
  Rng rng_;
  sim::Round round_ = 0;  ///< last round stepped
};

TEST(LbProcess, OlderSeqFromKnownOriginIsDropped) {
  LoneProcess p(small_params(4, 4));
  p.deliver({7, 2});
  p.deliver({7, 1});  // older than the mark
  p.deliver({7, 2});  // repeat
  p.deliver({9, 1});  // another origin
  p.deliver({7, 3});
  EXPECT_EQ(p.recvs(), (std::vector<sim::MessageId>{{7, 2}, {9, 1}, {7, 3}}));
}

TEST(LbProcess, HighWaterMarksSurviveCrashAndRecovery) {
  LoneProcess p(small_params(4, 4));
  p.deliver({7, 3});
  p.crash_and_recover(5);
  p.deliver({7, 3});  // heard before the crash: no second recv
  p.deliver({7, 2});
  p.deliver({7, 4});
  EXPECT_EQ(p.recvs(), (std::vector<sim::MessageId>{{7, 3}, {7, 4}}));
}

}  // namespace
}  // namespace dg::lb
