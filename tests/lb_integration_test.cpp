// Integration tests: LBAlg against the full LB specification across
// topology x scheduler combinations, plus the true-locality property
// (latency independent of n at fixed Delta).
#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.h"
#include "lb/simulation.h"
#include "sim/scheduler.h"
#include "stats/montecarlo.h"

namespace dg::lb {
namespace {

enum class SchedKind { full_g, full_gprime, bernoulli, flicker };

std::unique_ptr<sim::LinkScheduler> make_scheduler(SchedKind kind) {
  switch (kind) {
    case SchedKind::full_g:
      return std::make_unique<sim::ConstantScheduler>(false);
    case SchedKind::full_gprime:
      return std::make_unique<sim::ConstantScheduler>(true);
    case SchedKind::bernoulli:
      return std::make_unique<sim::BernoulliScheduler>(0.5);
    case SchedKind::flicker:
      return std::make_unique<sim::FlickerScheduler>(64, 32);
  }
  return nullptr;
}

struct TrialOutcome {
  bool deterministic_ok = false;
  std::uint64_t rel_succ = 0, rel_trials = 0;
  std::uint64_t prog_succ = 0, prog_trials = 0;
};

TrialOutcome run_trial(std::uint64_t seed, SchedKind kind) {
  Rng rng(seed);
  graph::GeometricSpec spec;
  spec.n = 40;
  spec.side = 3.0;
  spec.r = 1.5;
  const auto g = graph::random_geometric(spec, rng);
  LbScales scales;
  scales.ack_scale = 0.005;
  const auto params =
      LbParams::calibrated(0.1, spec.r, g.delta(), g.delta_prime(), scales);
  LbSimulation sim(g, make_scheduler(kind), params, derive_seed(seed, 9));
  sim.keep_busy({0, static_cast<graph::Vertex>(g.size() / 2)});
  sim.run_phases(params.t_ack_phases + 3);
  const auto& r = sim.report();
  TrialOutcome out;
  out.deterministic_ok =
      r.timely_ack_ok && r.validity_ok && r.violations == 0;
  out.rel_succ = r.reliability.successes();
  out.rel_trials = r.reliability.trials();
  out.prog_succ = r.progress.successes();
  out.prog_trials = r.progress.trials();
  return out;
}

class LbUnderScheduler : public ::testing::TestWithParam<SchedKind> {};

TEST_P(LbUnderScheduler, SpecHolds) {
  const SchedKind kind = GetParam();
  const auto results = stats::run_trials(
      12, 0xfeedULL + static_cast<std::uint64_t>(kind),
      [&](std::size_t, std::uint64_t s) { return run_trial(s, kind); });

  BernoulliTally reliability, progress;
  for (const auto& r : results) {
    ASSERT_TRUE(r.deterministic_ok);
    reliability.record(r.rel_succ == r.rel_trials);
    for (std::uint64_t i = 0; i < r.prog_trials; ++i) {
      progress.record(i < r.prog_succ);
    }
  }
  // Reliability target 1 - eps1 = 0.9 per broadcast; we asserted all
  // broadcasts per trial delivered, which is stricter, so allow the Wilson
  // band to do its work.
  EXPECT_TRUE(reliability.consistent_with_at_least(0.9));
  if (progress.trials() > 0) {
    EXPECT_TRUE(progress.consistent_with_at_least(0.85))
        << progress.frequency();
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, LbUnderScheduler,
                         ::testing::Values(SchedKind::full_g,
                                           SchedKind::full_gprime,
                                           SchedKind::bernoulli,
                                           SchedKind::flicker));

TEST(LbLocality, LatencyBoundsIndependentOfNetworkSize) {
  // Fix Delta and Delta'; grow n by replicating far-apart cliques.  The
  // parameter set -- and hence every latency bound -- must be identical.
  const auto params_small = LbParams::calibrated(0.1, 1.5, 8, 8);
  const auto params_large = LbParams::calibrated(0.1, 1.5, 8, 8);
  EXPECT_EQ(params_small.t_prog_bound(), params_large.t_prog_bound());
  EXPECT_EQ(params_small.t_ack_bound(), params_large.t_ack_bound());

  // And measured: many disjoint cliques (n = 8 * k) behave like one clique.
  auto measure = [](std::size_t k, std::uint64_t seed) {
    graph::DualGraph g(8 * k);
    geo::Embedding emb(8 * k);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = i + 1; j < 8; ++j) {
          g.add_reliable_edge(static_cast<graph::Vertex>(8 * c + i),
                              static_cast<graph::Vertex>(8 * c + j));
        }
        emb[8 * c + i] = geo::Point{static_cast<double>(c) * 100.0,
                                    static_cast<double>(i) * 0.1};
      }
    }
    g.set_embedding(std::move(emb), 1.5);
    g.finalize();
    LbScales scales;
    scales.ack_scale = 0.005;
    const auto params =
        LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
    LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false),
                     params, seed);
    sim.post_bcast(0, 1);
    sim.run_phases(params.t_ack_phases + 1);
    const auto& rec = sim.checker().broadcasts()[0];
    return rec.delivered() ? rec.delivered_round : -1;
  };

  // Locality itself: every vertex draws from its own (master seed, vertex)
  // stream, so clique 0's execution cannot see the 31 far-away copies --
  // the delivery round (or non-delivery) is the same at 32x the network
  // size, seed for seed.  ack_scale = 0.005 leaves some seeds undelivered
  // within t_ack_phases + 1; those must match too, and most seeds deliver.
  constexpr std::uint64_t kSeeds = 64;
  std::uint64_t delivered = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const auto small = measure(1, seed);
    const auto large = measure(32, seed);  // 32x the network size
    EXPECT_EQ(small, large) << "seed " << seed;
    if (small > 0) ++delivered;
  }
  EXPECT_GE(delivered, 48u) << "of " << kSeeds << " seeds";
}

TEST(LbBridgedClusters, NoCrossTalkWhenSchedulerWithholdsBridge) {
  // All cross-cluster edges are unreliable; with the scheduler excluding
  // E' \ E entirely, no message can cross -- and validity must still hold.
  const auto g = graph::bridged_clusters(4, 1.5);
  LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   321);
  sim.post_bcast(0, 1);  // cluster A
  sim.run_phases(params.t_ack_phases + 1);
  // Nothing in cluster B (vertices 4..7) may have received anything.
  for (const auto& rec : sim.checker().broadcasts()) {
    for (const auto& [v, round] : rec.recv_rounds) {
      EXPECT_LT(v, 4u);
    }
  }
  EXPECT_TRUE(sim.report().validity_ok);
}

TEST(LbBridgedClusters, BridgeCarriesMessagesWhenIncluded) {
  const auto g = graph::bridged_clusters(4, 1.5);
  LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(true), params,
                   322);
  sim.keep_busy({0});
  sim.run_phases(params.t_ack_phases + 2);
  // Raw receptions across the bridge are possible now; at minimum the spec
  // holds and someone in cluster B heard something (unreliable edges are
  // all present, cluster B nodes are idle listeners).
  EXPECT_TRUE(sim.report().validity_ok);
  EXPECT_GT(sim.report().raw_receptions, 0u);
}

TEST(LbStarRing, HubReceivesFromSaturatedLeaves) {
  const auto g = graph::star_ring(12, 1.5);
  LbScales scales;
  scales.ack_scale = 0.002;
  const auto params =
      LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  LbSimulation sim(g, std::make_unique<sim::ConstantScheduler>(false), params,
                   323);
  std::vector<graph::Vertex> leaves;
  for (graph::Vertex v = 1; v <= 12; ++v) leaves.push_back(v);
  sim.keep_busy(leaves);
  sim.run_phases(params.t_ack_phases + 2);
  EXPECT_GT(sim.report().recv_count, 0u);
  EXPECT_TRUE(sim.report().validity_ok);
  EXPECT_TRUE(sim.report().timely_ack_ok);
}

}  // namespace
}  // namespace dg::lb
