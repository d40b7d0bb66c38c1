// Tests for the physical-layer channel subsystem (src/phys/): the SINR
// reception rule and its grid acceleration, the dual-graph extractor's
// Section 2 guarantees, and the DualGraphChannel seam (the explicit-channel
// engine constructor must behave exactly like the scheduler constructor).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "lb/simulation.h"
#include "phys/channel.h"
#include "phys/dual_graph_channel.h"
#include "phys/extract.h"
#include "phys/sinr.h"
#include "sim/adaptive.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"
#include "util/rng.h"

namespace dg::phys {
namespace {

graph::DualGraph edgeless(std::size_t n) {
  graph::DualGraph g(n);
  g.finalize();
  return g;
}

geo::Embedding random_embedding(std::size_t n, double side, Rng& rng) {
  geo::Embedding emb;
  emb.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emb.push_back(geo::Point{rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return emb;
}

/// Runs one SinrChannel round directly: heard words per vertex.
std::vector<std::uint64_t> sinr_round(const SinrParams& params,
                                      const geo::Embedding& emb,
                                      const std::vector<graph::Vertex>& tx) {
  const auto g = edgeless(emb.size());
  SinrChannel channel(params, emb);
  channel.bind(g, /*master_seed=*/1);
  Bitmap transmitting(emb.size());
  for (graph::Vertex v : tx) transmitting.set(v);
  Bitmap frontier(emb.size());
  channel.fill_frontier(transmitting, frontier);
  channel.prepare_round(1, transmitting);
  std::vector<std::uint64_t> heard(emb.size(), 0);
  channel.compute(1, transmitting, heard, frontier, 0,
                  static_cast<graph::Vertex>(emb.size()));
  return heard;
}

/// The semantic SINR rule, computed naively with *exact* interference (no
/// far-field aggregation): sender of the delivery at u, if any.
std::optional<graph::Vertex> exact_delivery(
    const SinrParams& params, const geo::Embedding& emb,
    const std::vector<graph::Vertex>& tx, graph::Vertex u) {
  double total = 0.0;
  for (graph::Vertex v : tx) {
    total += path_gain(params, geo::distance_sq(emb[u], emb[v]));
  }
  std::optional<graph::Vertex> winner;
  int clears = 0;
  for (graph::Vertex v : tx) {
    const double gain = path_gain(params, geo::distance_sq(emb[u], emb[v]));
    if (gain >= params.beta * (params.noise + total - gain)) {
      ++clears;
      winner = v;
    }
  }
  return clears == 1 ? winner : std::nullopt;
}

/// Extracts (receiver -> sender) deliveries from heard words.
std::map<graph::Vertex, graph::Vertex> deliveries(
    const std::vector<std::uint64_t>& heard) {
  std::map<graph::Vertex, graph::Vertex> out;
  for (graph::Vertex u = 0; u < static_cast<graph::Vertex>(heard.size());
       ++u) {
    if (static_cast<std::uint32_t>(heard[u]) == 1) {
      out[u] = static_cast<graph::Vertex>(heard[u] >> 32);
    }
  }
  return out;
}

TEST(SinrParams, MaxSignalRangeMatchesClosedForm) {
  SinrParams p;  // alpha=3, beta=2, noise=0.1, power=1
  EXPECT_NEAR(p.max_signal_range(), std::cbrt(1.0 / 0.2), 1e-12);
  // At the range boundary an isolated sender exactly meets beta * noise.
  const double gain =
      path_gain(p, p.max_signal_range() * p.max_signal_range());
  EXPECT_NEAR(gain, p.beta * p.noise, 1e-9);
}

TEST(SinrChannel, IsolatedPairWithinRangeAlwaysDelivers) {
  SinrParams params;
  for (double d : {0.1, 0.5, 1.0, 1.5, params.max_signal_range() * 0.999}) {
    const geo::Embedding emb{{0.0, 0.0}, {d, 0.0}};
    const auto heard = sinr_round(params, emb, {0});
    EXPECT_EQ(deliveries(heard), (std::map<graph::Vertex, graph::Vertex>{
                                     {1, 0}}))
        << "distance " << d;
  }
}

TEST(SinrChannel, IsolatedPairBeyondRangeNeverDelivers) {
  SinrParams params;
  for (double d : {params.max_signal_range() * 1.001, 3.0, 10.0}) {
    const geo::Embedding emb{{0.0, 0.0}, {d, 0.0}};
    const auto heard = sinr_round(params, emb, {0});
    EXPECT_TRUE(deliveries(heard).empty()) << "distance " << d;
  }
}

TEST(SinrChannel, TransmittersHearNothing) {
  const geo::Embedding emb{{0.0, 0.0}, {0.5, 0.0}};
  const auto heard = sinr_round(SinrParams{}, emb, {0, 1});
  EXPECT_TRUE(deliveries(heard).empty());
}

// Monotonicity: adding a transmitter w never creates a delivery from any
// other sender (its interference only grows every receiver's denominator;
// with beta >= 1 at most one sender can clear, so no knock-out effects can
// mint a new delivery either).  Randomized sweep over embeddings and
// transmit sets.
TEST(SinrChannel, AddingInterfererNeverCreatesDelivery) {
  SinrParams params;
  Rng rng(2026);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = 30;
    const auto emb = random_embedding(n, /*side=*/6.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 1; v < n; ++v) {
      if (rng.chance(0.3)) tx.push_back(v);
    }
    const auto w = static_cast<graph::Vertex>(0);  // never in tx
    auto with_w = tx;
    with_w.push_back(w);

    const auto before = deliveries(sinr_round(params, emb, tx));
    const auto after = deliveries(sinr_round(params, emb, with_w));
    for (const auto& [u, from] : after) {
      if (from == w) continue;  // w itself may be decodable: that is fine
      const auto it = before.find(u);
      ASSERT_TRUE(it != before.end() && it->second == from)
          << "iter " << iter << ": adding interferer " << w
          << " created delivery " << from << " -> " << u;
    }
  }
}

// In a compact deployment every occupied cell is within the near radius of
// every other, the far-field aggregate is empty, and the grid-accelerated
// channel must agree with the naive exact rule verbatim.
TEST(SinrChannel, MatchesExactRuleWhenAllCellsNear) {
  SinrParams params;
  Rng rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = 16;
    const auto emb = random_embedding(n, /*side=*/1.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.4)) tx.push_back(v);
    }
    const auto heard = sinr_round(params, emb, tx);
    const auto got = deliveries(heard);
    for (graph::Vertex u = 0; u < n; ++u) {
      if (std::find(tx.begin(), tx.end(), u) != tx.end()) continue;
      const auto want = exact_delivery(params, emb, tx, u);
      const auto it = got.find(u);
      if (want.has_value()) {
        ASSERT_TRUE(it != got.end() && it->second == *want) << "u=" << u;
      } else {
        ASSERT_TRUE(it == got.end()) << "u=" << u;
      }
    }
  }
}

// In spread-out deployments the far-field term over-estimates interference
// (min_cell_distance is a lower bound on every far pair distance), so the
// accelerated channel is conservative: everything it delivers, the exact
// rule delivers too.
TEST(SinrChannel, ConservativeAgainstExactRuleOnSpreadDeployments) {
  SinrParams params;
  Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 60;
    const auto emb = random_embedding(n, /*side=*/12.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.25)) tx.push_back(v);
    }
    const auto got = deliveries(sinr_round(params, emb, tx));
    for (const auto& [u, from] : got) {
      const auto want = exact_delivery(params, emb, tx, u);
      ASSERT_TRUE(want.has_value() && *want == from)
          << "channel delivered " << from << " -> " << u
          << " but the exact rule does not";
    }
  }
}

TEST(ExtractDualGraph, TwoCloseNodesBecomeReliable) {
  const geo::Embedding emb{{0.0, 0.0}, {0.3, 0.0}};
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 1);
  EXPECT_EQ(ext.stats.reliable_edges, 1u);
  EXPECT_TRUE(ext.graph.has_reliable_edge(0, 1));
}

TEST(ExtractDualGraph, FarApartNodesStayDisconnected) {
  const geo::Embedding emb{{0.0, 0.0}, {50.0, 0.0}};
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 1);
  EXPECT_EQ(ext.stats.reliable_edges, 0u);
  EXPECT_EQ(ext.stats.unreliable_edges, 0u);
  EXPECT_FALSE(ext.graph.has_gprime_edge(0, 1));
}

TEST(ExtractDualGraph, OutputValidatesSectionTwoConstraints) {
  Rng rng(3);
  for (int iter = 0; iter < 5; ++iter) {
    const auto emb = random_embedding(40, /*side=*/5.0, rng);
    const auto ext =
        extract_dual_graph(emb, SinrExtractParams{}, /*seed=*/100 + iter);
    const auto& g = ext.graph;
    ASSERT_TRUE(g.embedding().has_value());
    EXPECT_TRUE(graph::is_r_geographic(g, *g.embedding(), g.r()))
        << "iter " << iter << " scale=" << ext.stats.scale
        << " r=" << ext.stats.r;
    EXPECT_GE(g.r(), 1.0);
    EXPECT_EQ(g.unreliable_edge_count(), ext.stats.unreliable_edges);
    // A 40-node deployment in a 5x5 square is dense enough that the
    // extraction must find some structure.
    EXPECT_GT(ext.stats.candidate_pairs, 0u);
    EXPECT_GT(ext.stats.reliable_edges, 0u);
  }
}

TEST(ExtractDualGraph, DeterministicForFixedSeed) {
  Rng rng(9);
  const auto emb = random_embedding(30, 4.0, rng);
  const auto a = extract_dual_graph(emb, SinrExtractParams{}, 42);
  const auto b = extract_dual_graph(emb, SinrExtractParams{}, 42);
  EXPECT_EQ(a.stats.reliable_edges, b.stats.reliable_edges);
  EXPECT_EQ(a.stats.unreliable_edges, b.stats.unreliable_edges);
  EXPECT_EQ(a.stats.scale, b.stats.scale);
  for (graph::Vertex u = 0; u < 30; ++u) {
    for (graph::Vertex v = u + 1; v < 30; ++v) {
      EXPECT_EQ(a.graph.has_reliable_edge(u, v),
                b.graph.has_reliable_edge(u, v));
      EXPECT_EQ(a.graph.has_gprime_edge(u, v),
                b.graph.has_gprime_edge(u, v));
    }
  }
}

TEST(ExtractDualGraph, ExtractedGraphRunsTheExistingStack) {
  Rng rng(5);
  const auto emb = random_embedding(24, 3.0, rng);
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 7);
  // The extracted graph must be a drop-in for the seed/LB substrate: the
  // engine runs it with scripted processes without tripping any contract.
  const auto ids = sim::assign_ids(ext.graph.size(), 1);
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (std::size_t v = 0; v < ext.graph.size(); ++v) {
    procs.push_back(std::make_unique<test::ScriptProcess>(
        ids[v], std::map<sim::Round, std::uint64_t>{
                    {static_cast<sim::Round>(1 + (v % 3)), v}}));
  }
  sim::BernoulliScheduler sched(0.5);
  sim::Engine engine(ext.graph, sched, std::move(procs), 99);
  engine.run_rounds(5);
  EXPECT_EQ(engine.round(), 5);
}

/// Order-sensitive digest of all wire events (same folding scheme as
/// tests/determinism_test.cpp).
class EventDigest final : public sim::Observer {
 public:
  std::uint64_t value() const noexcept { return h_; }
  void on_transmit(sim::Round round, graph::Vertex v,
                   const sim::Packet&) override {
    fold(1, round, v, 0);
  }
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex from,
                  const sim::Packet&) override {
    fold(2, round, u, from);
  }
  void on_silence(sim::Round round, graph::Vertex u, bool collision) override {
    fold(3, round, u, collision ? 1 : 0);
  }

 private:
  void fold(std::uint64_t kind, sim::Round round, std::uint64_t a,
            std::uint64_t b) {
    for (std::uint64_t w :
         {kind, static_cast<std::uint64_t>(round), a, b}) {
      h_ ^= w + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    }
  }
  std::uint64_t h_ = 0;
};

std::vector<std::unique_ptr<sim::Process>> coin_processes(std::size_t n) {
  struct Coin final : sim::Process {
    explicit Coin(sim::ProcessId id) : sim::Process(id) {}
    std::optional<sim::Packet> transmit(sim::RoundContext& ctx) override {
      if (!ctx.rng().chance(0.5)) return std::nullopt;
      return sim::Packet{
          id(), sim::DataPayload{sim::MessageId{id(), ++seq_}, seq_}};
    }
    void receive(const std::optional<sim::Packet>&,
                 sim::RoundContext&) override {}
    std::uint32_t seq_ = 0;
  };
  const auto ids = sim::assign_ids(n, 17);
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<Coin>(ids[v]));
  }
  return procs;
}

TEST(SinrChannel, LbStackRunsWithoutSpecViolations) {
  // Ground-truth physics may deliver across pairs the declared G' does not
  // connect; the spec checker must grade such executions by the
  // active-broadcaster half of validity only (channel.respects_dual_graph()
  // wiring in LbSimulation), not flag them for obeying physics.
  Rng rng(13);
  graph::GeometricSpec spec;
  spec.n = 32;
  const auto g = graph::random_geometric(spec, rng);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params = lb::LbParams::calibrated(0.1, g.r(), g.delta(),
                                               g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<SinrChannel>(SinrParams{}),
                       params, /*master_seed=*/77);
  sim.keep_busy({0, 16});
  sim.run_phases(4);
  EXPECT_TRUE(sim.report().validity_ok);
  EXPECT_EQ(sim.report().violations, 0u);
  EXPECT_GT(sim.report().raw_receptions, 0u);
}

TEST(DualGraphChannel, ExplicitChannelMatchesSchedulerConstructor) {
  const auto g = graph::bridged_clusters(6, 1.5);
  std::uint64_t digests[2];
  for (int mode = 0; mode < 2; ++mode) {
    sim::BernoulliScheduler sched(0.4);
    DualGraphChannel channel(sched);
    EventDigest digest;
    auto procs = coin_processes(g.size());
    std::unique_ptr<sim::Engine> engine;
    if (mode == 0) {
      engine = std::make_unique<sim::Engine>(g, sched, std::move(procs),
                                             /*master_seed=*/31337);
    } else {
      engine = std::make_unique<sim::Engine>(g, channel, std::move(procs),
                                             /*master_seed=*/31337);
    }
    engine->add_observer(&digest);
    engine->run_rounds(200);
    digests[mode] = digest.value();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

/// Marks heard entries the channel must not write (outside frontier words).
constexpr std::uint64_t kStale = 0xdeadbeefdeadbeefULL;

/// One DualGraphChannel round computed over the consecutive ranges
/// [cuts[i], cuts[i+1]), the way a sharded round splits it: heard is
/// zeroed over the frontier words only, everything else holds kStale.
std::vector<std::uint64_t> split_round(DualGraphChannel& channel,
                                       const graph::DualGraph& g,
                                       sim::Round round,
                                       const Bitmap& transmitting,
                                       const std::vector<graph::Vertex>& cuts) {
  Bitmap frontier(g.size());
  channel.fill_frontier(transmitting, frontier);
  channel.prepare_round(round, transmitting);
  std::vector<std::uint64_t> heard(g.size(), kStale);
  for (std::size_t w = 0; w < frontier.word_count(); ++w) {
    if (frontier.words()[w] == 0) continue;
    for (std::size_t u = w * 64; u < std::min(g.size(), w * 64 + 64); ++u) {
      heard[u] = 0;
    }
  }
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    channel.compute(round, transmitting, heard, frontier, cuts[i],
                    cuts[i + 1]);
  }
  std::size_t written_outside = 0;
  for (std::size_t u = 0; u < g.size(); ++u) {
    if (frontier.words()[u / 64] == 0 && heard[u] != kStale) {
      ++written_outside;
    }
  }
  EXPECT_EQ(written_outside, 0u) << "compute wrote outside frontier words";
  return heard;
}

/// The Section 2 rule read straight off each vertex's own adjacency:
/// count of transmitting round-neighbors, sender = the largest of them.
std::vector<std::uint64_t> gather_reference(
    const graph::DualGraph& g, const Bitmap& transmitting,
    const std::function<bool(graph::UnreliableEdgeId)>& edge_active) {
  std::vector<std::uint64_t> heard(g.size(), 0);
  for (graph::Vertex u = 0; u < g.size(); ++u) {
    std::uint64_t count = 0;
    graph::Vertex from = 0;
    const auto hit = [&](graph::Vertex v) {
      ++count;
      from = std::max(from, v);
    };
    for (graph::Vertex v : g.g_neighbors(u)) {
      if (transmitting.test(v)) hit(v);
    }
    for (const auto& [edge, v] : g.unreliable_incident(u)) {
      if (transmitting.test(v) && edge_active(edge)) hit(v);
    }
    if (count != 0) heard[u] = heard_word(from, count);
  }
  return heard;
}

/// Random 64-aligned cut points 0 = c_0 < ... < c_k = n.
std::vector<graph::Vertex> random_cuts(std::size_t n, Rng& rng) {
  std::vector<graph::Vertex> cuts{0};
  for (std::size_t b = 64; b < n; b += 64) {
    if (rng.chance(0.4)) cuts.push_back(static_cast<graph::Vertex>(b));
  }
  cuts.push_back(static_cast<graph::Vertex>(n));
  return cuts;
}

TEST(DualGraphChannel, PartialRangeComputeMatchesWholeRange) {
  // The channel's per-round scatter, handed over by compute() in random
  // 64-aligned splits, against the whole-range call and a per-receiver
  // gather, round after round (a split that leaves a staged word behind
  // corrupts the next round), for each way prepare_round() can stage the
  // unreliable edges: the bulk bitmap fill (dense transmitters), per-edge
  // scheduler probes (few transmitters) and an adaptive adversary's plan.
  // n = 500 leaves a partial last word, and random_geometric's vertex ids
  // are not spatially ordered, so neighborhoods straddle many ranges.
  Rng graph_rng(404);
  graph::GeometricSpec spec;
  spec.n = 500;
  spec.side = 12.0;
  const auto g = graph::random_geometric(spec, graph_rng);
  ASSERT_GT(g.unreliable_edge_count(), 0u);
  const auto n = static_cast<graph::Vertex>(g.size());
  const std::vector<graph::Vertex> whole{0, n};
  // Per-edge-probe staging needs transmitters that have unreliable edges
  // to probe, so its few transmitters are drawn from these.
  std::vector<graph::Vertex> probed;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!g.unreliable_incident(v).empty()) probed.push_back(v);
  }
  ASSERT_FALSE(probed.empty());

  enum class Staging { kBitmapFill, kPerEdgeProbe, kAdaptive };
  for (Staging staging :
       {Staging::kBitmapFill, Staging::kPerEdgeProbe, Staging::kAdaptive}) {
    sim::BernoulliScheduler sched(0.5);
    sim::TargetedJammer jammer(/*target=*/7);
    DualGraphChannel channel(sched);
    channel.bind(g, /*master_seed=*/55);
    if (staging == Staging::kAdaptive) channel.set_adaptive_adversary(&jammer);
    Rng rng(static_cast<std::uint64_t>(staging) + 1);
    for (sim::Round round = 1; round <= 24; ++round) {
      Bitmap transmitting(g.size());
      std::size_t probes = 0;
      if (staging == Staging::kPerEdgeProbe) {
        // One to three transmitters: few enough that some frontier words
        // stay empty, which compute() must not write.
        const auto k = 1 + static_cast<int>(round % 3);
        for (int i = 0; i < k; ++i) {
          transmitting.set(probed[rng.below(probed.size())]);
        }
      } else {
        for (graph::Vertex v = 0; v < n; ++v) {
          if (rng.chance(0.3)) transmitting.set(v);
        }
      }
      transmitting.for_each_set([&](std::size_t v) {
        probes += g.unreliable_incident(static_cast<graph::Vertex>(v)).size();
      });
      // prepare_round()'s strategy rule, restated: bitmap fill once the
      // probes reach half the edge count.
      if (staging == Staging::kPerEdgeProbe) {
        ASSERT_GT(probes, 0u);
        ASSERT_LT(probes * 2, g.unreliable_edge_count());
      } else if (staging == Staging::kBitmapFill) {
        ASSERT_GE(probes * 2, g.unreliable_edge_count());
      }

      const auto full = split_round(channel, g, round, transmitting, whole);
      const auto split = split_round(channel, g, round, transmitting,
                                     random_cuts(g.size(), rng));
      const auto want = gather_reference(
          g, transmitting, [&](graph::UnreliableEdgeId e) {
            return staging == Staging::kAdaptive ? jammer.active(e)
                                                 : sched.active(e, round);
          });
      for (graph::Vertex u = 0; u < n; ++u) {
        ASSERT_EQ(split[u], full[u]) << "round " << round << " u " << u;
        if (full[u] != kStale) {
          ASSERT_EQ(full[u], want[u]) << "round " << round << " u " << u;
        } else {
          ASSERT_EQ(want[u], 0u) << "hearer outside the frontier, u " << u;
        }
      }
    }
  }
}

TEST(Engine, ReportsChannelName) {
  const auto g = test::reliable_path(3);
  sim::BernoulliScheduler sched(0.5);
  sim::Engine engine(g, sched, coin_processes(3), 1);
  EXPECT_EQ(engine.channel().name(), "dual-graph(bernoulli(p=0.500000))");
}

}  // namespace
}  // namespace dg::phys
