// Tests for the traffic subsystem (src/traffic/): queue invariants (FIFO
// admission order, one-outstanding admission, capacity drops, the
// per-vertex IndexFifo against std::deque), abort interaction with queued
// messages, MessageId uniqueness under heavy enqueue, bit-for-bit
// equivalence of the Saturate source with the historical hard-wired
// keep_busy environment, the busy slab the environment step polls, and the
// shared traffic spec grammar.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "engine_test_peer.h"
#include "fault/plan.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "traffic/index_fifo.h"
#include "traffic/injector.h"
#include "traffic/source.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace dg::traffic {
namespace {

lb::LbParams small_params(const graph::DualGraph& g) {
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  return lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(),
                                  scales);
}

std::unique_ptr<lb::LbSimulation> make_sim(const graph::DualGraph& g,
                                           std::uint64_t seed) {
  return std::make_unique<lb::LbSimulation>(
      g, std::make_unique<sim::BernoulliScheduler>(0.5), small_params(g),
      seed);
}

// ---- queue invariants ----

TEST(Injector, FifoAdmissionOneOutstanding) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 11);
  // Three scripted messages at vertex 0 in round 1: the queue must admit
  // them strictly in enqueue order, one service period at a time.
  std::vector<ScriptSource::Post> posts{
      {1, 0, 101}, {1, 0, 102}, {1, 0, 103}};
  sim->add_traffic(std::make_unique<ScriptSource>(std::move(posts)));
  sim->run_phases(10);

  const auto& recs = sim->traffic().messages();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].content, 101u);
  EXPECT_EQ(recs[1].content, 102u);
  EXPECT_EQ(recs[2].content, 103u);
  // FIFO: admissions in enqueue order, and never while a predecessor is
  // still outstanding (admit follows the predecessor's ack).
  ASSERT_TRUE(recs[0].admitted());
  EXPECT_EQ(recs[0].admit_round, 1);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (!recs[i].admitted()) continue;
    EXPECT_GT(recs[i].admit_round, recs[i - 1].admit_round);
    ASSERT_TRUE(recs[i - 1].acked());
    EXPECT_GT(recs[i].admit_round, recs[i - 1].ack_round);
  }
  const auto& ts = sim->traffic().stats();
  EXPECT_EQ(ts.offered, 3u);
  EXPECT_EQ(ts.enqueued, 3u);
  EXPECT_EQ(ts.dropped, 0u);
  EXPECT_GE(ts.acked, 1u);
}

TEST(Injector, CapacityDropsAreCounted) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 12);
  sim->traffic().set_queue_capacity(2);
  std::vector<ScriptSource::Post> posts;
  for (int i = 0; i < 6; ++i) {
    posts.push_back({1, 0, static_cast<std::uint64_t>(200 + i)});
  }
  sim->add_traffic(std::make_unique<ScriptSource>(std::move(posts)));
  sim->run_rounds(2);
  const auto& ts = sim->traffic().stats();
  EXPECT_EQ(ts.offered, 6u);
  // Round 1: the whole burst is offered before the admission drain, so
  // the capacity-2 queue accepts two, drops four, then hands one to the
  // idle service -- leaving one queued (the sampled steady-state depth).
  EXPECT_EQ(ts.enqueued, 2u);
  EXPECT_EQ(ts.dropped, 4u);
  EXPECT_EQ(ts.admitted, 1u);
  EXPECT_EQ(ts.depth_max, 1u);
}

TEST(Injector, AbortFreesTheServiceForQueuedMessages) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 13);
  std::vector<ScriptSource::Post> posts{{1, 0, 301}, {1, 0, 302}};
  sim->add_traffic(std::make_unique<ScriptSource>(std::move(posts)));
  sim->run_rounds(2);  // 301 admitted round 1; 302 queued behind it

  const auto& recs = sim->traffic().messages();
  ASSERT_EQ(recs.size(), 2u);
  ASSERT_TRUE(recs[0].admitted());
  ASSERT_FALSE(recs[1].admitted());

  const auto aborted = sim->post_abort(0);
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(*aborted, recs[0].id);
  sim->run_rounds(1);  // the freed service admits the queued message

  const auto& after = sim->traffic().messages();
  EXPECT_TRUE(after[0].aborted());
  EXPECT_FALSE(after[0].acked());
  ASSERT_TRUE(after[1].admitted());
  EXPECT_EQ(after[1].admit_round, after[0].abort_round);
  EXPECT_EQ(sim->traffic().stats().aborted, 1u);
}

TEST(Injector, ConsecutiveRoundAbortsAdmitInFifoOrder) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 15);
  std::vector<ScriptSource::Post> posts{
      {1, 0, 401}, {1, 0, 402}, {1, 0, 403}};
  sim->add_traffic(std::make_unique<ScriptSource>(std::move(posts)));
  // Abort vertex 0's outstanding broadcast in two consecutive rounds: each
  // abort hits a message that is admitted but not yet acked, and each
  // freed service admits the FIFO successor in the abort's own round.
  sim->run_rounds(1);  // 401 admitted round 1
  ASSERT_TRUE(sim->busy(0));
  const auto a1 = sim->post_abort(0);
  ASSERT_TRUE(a1.has_value());
  sim->run_rounds(1);  // abort lands round 2; 402 admitted round 2
  const auto a2 = sim->post_abort(0);
  ASSERT_TRUE(a2.has_value());
  EXPECT_NE(*a1, *a2);
  sim->run_rounds(1);  // abort lands round 3; 403 admitted round 3
  sim->run_phases(10);

  const auto& recs = sim->traffic().messages();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].admit_round, 1);
  EXPECT_EQ(recs[0].abort_round, 2);
  EXPECT_FALSE(recs[0].acked());
  EXPECT_EQ(recs[1].admit_round, 2);
  EXPECT_EQ(recs[1].abort_round, 3);
  EXPECT_FALSE(recs[1].acked());
  EXPECT_EQ(recs[2].admit_round, 3);
  EXPECT_FALSE(recs[2].aborted());
  EXPECT_TRUE(recs[2].acked());
  const auto& ts = sim->traffic().stats();
  EXPECT_EQ(ts.offered, 3u);
  EXPECT_EQ(ts.admitted, 3u);
  EXPECT_EQ(ts.aborted, 2u);
  EXPECT_EQ(ts.acked, 1u);
  // Plain environment aborts never trigger the crash-requeue path.
  EXPECT_EQ(ts.crash_requeues, 0u);
  EXPECT_EQ(ts.readmitted, 0u);
}

TEST(Injector, MessageIdsUniqueUnderHeavyEnqueue) {
  const auto g = graph::clique_cluster(6);
  auto sim = make_sim(g, 14);
  // Well past the service capacity: every node's queue stays hot, so
  // admissions keep coming from all origins for the whole horizon.
  sim->add_traffic(std::make_unique<PoissonSource>(2.0, 99));
  sim->run_phases(6);

  const auto& recs = sim->traffic().messages();
  std::set<std::pair<sim::ProcessId, std::uint32_t>> ids;
  std::size_t admitted = 0;
  for (const auto& rec : recs) {
    if (!rec.admitted()) continue;
    ++admitted;
    EXPECT_TRUE(ids.insert({rec.id.origin, rec.id.seq}).second)
        << "duplicate MessageId (origin " << rec.id.origin << ", seq "
        << rec.id.seq << ")";
  }
  EXPECT_GE(admitted, 6u);  // every vertex admitted at least once
  EXPECT_EQ(sim->traffic().stats().admitted, admitted);
  EXPECT_GT(sim->traffic().stats().offered,
            sim->traffic().stats().admitted);
}

TEST(IndexFifo, MatchesDequeUnderRandomOperations) {
  // Random pushes at both ends and pops, biased in turn towards growth
  // and towards draining, so the popped-prefix reclaim, the head-slot
  // push_front and the drained reset all run many times.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed, 7);
    IndexFifo fifo;
    std::deque<std::size_t> ref;
    std::size_t next = 0;
    for (int op = 0; op < 4000; ++op) {
      const bool growing = (op / 500) % 2 == 0;
      const std::uint64_t r = rng.below(10);
      if (!ref.empty() && r < (growing ? 4u : 7u)) {
        ASSERT_EQ(fifo.front(), ref.front());
        fifo.pop_front();
        ref.pop_front();
      } else if (r == 9) {
        fifo.push_front(next);
        ref.push_front(next++);
      } else {
        fifo.push_back(next);
        ref.push_back(next++);
      }
      ASSERT_EQ(fifo.size(), ref.size());
      ASSERT_EQ(fifo.empty(), ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(fifo.front(), ref.front());
      }
    }
    while (!ref.empty()) {
      ASSERT_EQ(fifo.front(), ref.front());
      fifo.pop_front();
      ref.pop_front();
    }
    EXPECT_TRUE(fifo.empty());
  }
}

// ---- Saturate vs the historical keep_busy environment ----

/// The pre-refactor LbSimulation::run_round environment loop, reproduced
/// verbatim through the direct post_bcast API: the Saturate source must
/// match it bit for bit (same contents, same rounds, same counters).
TEST(Saturate, MatchesLegacyKeepBusyBitForBit) {
  const auto g = graph::grid(5, 4, 1.0, 1.5);
  const std::vector<graph::Vertex> busy{0, 7, 13};

  auto legacy = make_sim(g, 2026);
  std::vector<std::uint64_t> counter(g.size(), 0);
  legacy->set_environment(
      [&busy, &counter](lb::LbSimulation& s, sim::Round) {
        for (graph::Vertex v : busy) {
          if (!s.busy(v)) s.post_bcast(v, ++counter[v]);
        }
      });

  auto traffic = make_sim(g, 2026);
  traffic->add_traffic(std::make_unique<SaturateSource>(busy));

  legacy->run_phases(8);
  traffic->run_phases(8);

  const auto& lr = legacy->report();
  const auto& tr = traffic->report();
  EXPECT_EQ(lr.bcast_count, tr.bcast_count);
  EXPECT_EQ(lr.ack_count, tr.ack_count);
  EXPECT_EQ(lr.recv_count, tr.recv_count);
  EXPECT_EQ(lr.raw_receptions, tr.raw_receptions);
  EXPECT_EQ(lr.violations, tr.violations);
  EXPECT_EQ(lr.reliability.successes(), tr.reliability.successes());
  EXPECT_EQ(lr.reliability.trials(), tr.reliability.trials());
  EXPECT_EQ(lr.progress.successes(), tr.progress.successes());
  EXPECT_EQ(lr.progress.trials(), tr.progress.trials());

  const auto& lb_recs = legacy->checker().broadcasts();
  const auto& tb_recs = traffic->checker().broadcasts();
  ASSERT_EQ(lb_recs.size(), tb_recs.size());
  // The admission loop drains by vertex index while the legacy loop posts
  // in list order; compare as (origin, input, ack) multisets per round.
  std::multiset<std::tuple<graph::Vertex, sim::Round, sim::Round>> l, t;
  for (const auto& rec : lb_recs) {
    l.insert({rec.origin, rec.input_round, rec.ack_round});
  }
  for (const auto& rec : tb_recs) {
    t.insert({rec.origin, rec.input_round, rec.ack_round});
  }
  EXPECT_EQ(l, t);
}

// ---- busy slab ----

/// LbSimulation::busy() reads the flat busy slab that each LbProcess writes
/// at its own busy transitions (post_bcast, abort, crash, ack in the
/// block-parallel end_round).  Runs hotspot traffic plus random direct
/// inputs between rounds and checks the slab against every process's own
/// busy() after each input batch and each round.  With `bare`, the inputs
/// go to the process itself (bypassing the wrapper, as bare-engine benches
/// do) and faults stay off: the spec checker never learns of bare posts,
/// so a crash-abort of one would break its contract.  Otherwise the inputs
/// are the wrapper's post_bcast/post_abort under Poisson churn.
void check_busy_slab(std::size_t threads, bool bare) {
  const auto g = graph::grid(16, 12, 1.0, 1.5);  // 192 vertices, 3 blocks
  TrafficSpec hotspot;
  ASSERT_EQ(parse_traffic_spec("hotspot:2:0.6:8", hotspot), "");
  auto sim = make_sim(g, 404);
  sim->add_traffic(build_source(hotspot, g.size(), 17));
  fault::PoissonFaultPlan churn(0.5, 20.0);
  sim::EngineConfig config = sim::EngineConfig{}.with_round_threads(threads);
  if (!bare) config.with_fault_plan(&churn);
  sim->configure(config);
  if (threads > 1) sim::EngineTestPeer::always_shard(sim->engine());

  // Bare mode aborts only its own posts (the checker tracks the rest).  A
  // bare post stays outstanding until v is seen idle: acks land at the end
  // of a round, admissions at the start of the next run_round().
  std::vector<bool> bare_posted(g.size(), false);
  const auto check = [&](const char* when) {
    for (graph::Vertex v = 0; v < static_cast<graph::Vertex>(g.size());
         ++v) {
      ASSERT_EQ(sim->busy(v), sim->process(v).busy())
          << when << ": vertex " << v << " after round " << sim->round();
      if (!sim->busy(v)) bare_posted[v] = false;
    }
  };
  Rng pick(99);
  std::uint64_t content = 1'000'000;
  std::size_t posts = 0;
  std::size_t aborts = 0;
  const std::int64_t rounds = 6 * sim->params().phase_length();
  for (std::int64_t i = 0; i < rounds; ++i) {
    for (int k = 0; k < 3; ++k) {
      const auto v = static_cast<graph::Vertex>(pick.below(g.size()));
      if (sim->engine().crashed(v)) continue;
      lb::LbProcess& p = sim->process(v);
      if (!p.busy()) {
        bare_posted[v] = bare;
        if (bare) {
          p.post_bcast(++content);
        } else {
          sim->post_bcast(v, ++content);
        }
        ++posts;
      } else if (pick.below(4) == 0 && (!bare || bare_posted[v])) {
        if (bare) {
          p.abort();
        } else {
          sim->post_abort(v);
        }
        ++aborts;
      }
    }
    check("after direct inputs");
    sim->run_round();
    check("after run_round");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(posts, 0u);
  EXPECT_GT(aborts, 0u);
  EXPECT_EQ(sim->ledger().crashes > 0, !bare);
  EXPECT_GT(sim->report().ack_count, 0u);
  EXPECT_GT(sim->traffic().stats().admitted, 0u);
}

/// The writer side in isolation: a process bound to a slab byte stores it
/// at each busy transition, including a crash that finds a message still
/// outstanding (inside LbSimulation the fault bridge aborts it first).
TEST(BusySlab, ProcessStoresItsByteAtEachTransition) {
  const auto g = graph::clique_cluster(2);
  std::uint8_t flag = 7;  // overwritten at construction
  lb::LbProcess p(small_params(g), 1, 0, nullptr, &flag);
  EXPECT_EQ(flag, 0);
  p.post_bcast(1);
  EXPECT_EQ(flag, 1);
  ASSERT_TRUE(p.abort().has_value());
  EXPECT_EQ(flag, 0);
  p.post_bcast(2);
  EXPECT_EQ(flag, 1);
  p.on_crash(1);
  EXPECT_FALSE(p.busy());
  EXPECT_EQ(flag, 0);

  // Standalone processes have no slab and behave the same.
  lb::LbProcess bare(small_params(g), 2, 1, nullptr);
  bare.post_bcast(1);
  EXPECT_TRUE(bare.busy());
}

TEST(BusySlab, MirrorsProcessBusyUnderChurnAndDirectPosts) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    check_busy_slab(threads, /*bare=*/false);
  }
}

TEST(BusySlab, MirrorsProcessBusyUnderBareProcessInputs) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    check_busy_slab(threads, /*bare=*/true);
  }
}

// ---- spec grammar ----

TEST(TrafficSpec, ParsesEveryKindWithDefaults) {
  TrafficSpec s;
  EXPECT_EQ(parse_traffic_spec("saturate", s), "");
  EXPECT_EQ(s.kind, TrafficSpec::Kind::kSaturate);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(parse_traffic_spec("saturate:3", s), "");
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(parse_traffic_spec("poisson:0.25", s), "");
  EXPECT_EQ(s.kind, TrafficSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(s.rate, 0.25);
  EXPECT_EQ(parse_traffic_spec("burst:32:2:3", s), "");
  EXPECT_EQ(s.kind, TrafficSpec::Kind::kBurst);
  EXPECT_EQ(s.period, 32);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(parse_traffic_spec("hotspot:0.4:0.75:2", s), "");
  EXPECT_EQ(s.kind, TrafficSpec::Kind::kHotspot);
  EXPECT_DOUBLE_EQ(s.bias, 0.75);
  EXPECT_EQ(s.hot, 2u);
}

TEST(TrafficSpec, RejectionsListValidSpecs) {
  TrafficSpec s;
  for (const char* bad :
       {"", "poison:0.5", "saturate:0", "poisson:-1", "burst:0:1",
        "hotspot:0.5:2", "saturate:1:2",
        // Rates past the exact-sampler bound (256) are rejected, not
        // silently clipped by exp(-rate) underflow.
        "poisson:1000", "hotspot:1000:0.5",
        // Integer arguments past 2^31 are rejected here; the
        // double->integer casts would otherwise be undefined.
        "saturate:1e20", "burst:1e300:1:1", "hotspot:0.5:0.5:1e20"}) {
    const std::string err = parse_traffic_spec(bad, s);
    EXPECT_FALSE(err.empty()) << bad;
  }
  const std::string err = parse_traffic_spec("poison:0.5", s);
  EXPECT_NE(err.find("saturate[:count]"), std::string::npos) << err;
  EXPECT_NE(err.find("hotspot:rate:bias[:hot]"), std::string::npos) << err;
}

TEST(TrafficSpec, SpreadVerticesMatchesDglabPlacement) {
  EXPECT_EQ(spread_vertices(1, 8), (std::vector<graph::Vertex>{0}));
  EXPECT_EQ(spread_vertices(3, 9), (std::vector<graph::Vertex>{0, 3, 6}));
  EXPECT_EQ(spread_vertices(4, 4), (std::vector<graph::Vertex>{0, 1, 2, 3}));
}

TEST(TrafficSpec, BuiltSourcesAreSeedDeterministic) {
  TrafficSpec s;
  ASSERT_EQ(parse_traffic_spec("hotspot:1.5:0.5:0", s), "");
  const auto g = graph::clique_cluster(5);
  auto run = [&](std::uint64_t seed) {
    auto sim = make_sim(g, 77);
    sim->add_traffic(build_source(s, g.size(), seed));
    sim->run_phases(2);
    std::vector<std::pair<graph::Vertex, sim::Round>> arrivals;
    for (const auto& rec : sim->traffic().messages()) {
      arrivals.emplace_back(rec.vertex, rec.enqueue_round);
    }
    return arrivals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace dg::traffic
