// Determinism regression: golden digests of traced executions.
//
// Each scenario runs a fixed (graph, scheduler, workload, seed) execution
// and folds every wire-level event -- transmit, receive, silence/collision,
// in engine invocation order -- into an FNV-1a digest.  The goldens were
// recorded on the pre-CSR engine (vector<vector> adjacency, per-edge
// virtual scheduler calls); the flat-memory round engine must reproduce
// them bit-for-bit, proving the data-layout change preserves the Section 2
// round semantics, the observer fan-out order, and every RNG draw.  They
// were re-recorded once since, when dg::Rng became counter-based (every
// draw changed; no engine, stage or channel file did).
//
// If an *intentional* semantic change ever lands (it should not, short of a
// model revision), re-record with the printed "actual" values.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "fault/plan.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "sim/adaptive.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"

namespace dg::sim {
namespace {

/// FNV-1a over every observed event, order-sensitive.
class DigestObserver final : public Observer {
 public:
  std::uint64_t digest() const noexcept { return h_; }

  void on_round_begin(Round round) override { fold(1, round, 0, 0, 0); }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override {
    fold(2, round, v, p.sender, payload_word(p));
  }
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet& p) override {
    fold(3, round, u, from, payload_word(p));
  }
  void on_silence(Round round, graph::Vertex u, bool collision) override {
    fold(4, round, u, collision ? 1 : 0, 0);
  }
  void on_round_end(Round round) override { fold(5, round, 0, 0, 0); }

 private:
  static std::uint64_t payload_word(const Packet& p) {
    if (p.is_seed()) {
      return p.seed().owner ^ (p.seed().seed_value * 3U);
    }
    return p.data().id.origin ^ (p.data().id.seq * 5U) ^
           (p.data().content * 7U);
  }

  void fold(std::uint64_t kind, Round round, std::uint64_t a, std::uint64_t b,
            std::uint64_t c) {
    const std::uint64_t words[5] = {kind, static_cast<std::uint64_t>(round), a,
                                    b, c};
    for (std::uint64_t w : words) {
      for (int byte = 0; byte < 8; ++byte) {
        h_ ^= (w >> (8 * byte)) & 0xffU;
        h_ *= 0x100000001b3ULL;
      }
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// Transmits with probability 1/2 from the process-local stream; the digest
/// then covers the engine's RNG stream assignment, not just topology.
class CoinProcess final : public Process {
 public:
  explicit CoinProcess(ProcessId id) : Process(id) {}
  std::optional<Packet> transmit(RoundContext& ctx) override {
    if (!ctx.rng().chance(0.5)) return std::nullopt;
    return Packet{id(), DataPayload{MessageId{id(), ++seq_}, seq_ * 11ULL}};
  }
  void receive(const std::optional<Packet>&, RoundContext&) override {}
  // Touches only its own state and rng stream, so the sharded round loop
  // may call it from worker threads.
  bool shard_safe() const override { return true; }

 private:
  std::uint32_t seq_ = 0;
};

/// The thread cap for the sharded re-verification: comfortably above
/// hardware concurrency on small CI boxes, so the dispatcher, block
/// geometry and serial fallbacks all get exercised.
constexpr std::size_t kMaxRoundThreads = 8;

std::vector<std::unique_ptr<Process>> coin_processes(std::size_t n,
                                                     std::uint64_t id_seed) {
  const auto ids = assign_ids(n, id_seed);
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<CoinProcess>(ids[v]));
  }
  return procs;
}

TEST(DeterminismGolden, FullLbStackOnGrid) {
  const auto g = graph::grid(6, 6, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.4), params,
                       /*master_seed=*/2026);
  DigestObserver digest;
  sim.add_observer(&digest);
  sim.keep_busy({0, 17, 35});
  sim.run_rounds(300);
  EXPECT_EQ(digest.digest(), 0xab1231a4ac4f25a3ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

TEST(DeterminismGolden, LbStackUnderCrashRecoverChurn) {
  // The FullLbStackOnGrid execution with a Poisson crash/recover schedule
  // attached: pins the fault seam itself (event stream truncation at
  // crashed vertices, the 0xFA17 fault rng stream, crash-abort plumbing).
  const auto g = graph::grid(6, 6, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.4), params,
                       /*master_seed=*/2027);
  DigestObserver digest;
  sim.add_observer(&digest);
  sim.keep_busy({0, 17, 35});
  fault::PoissonFaultPlan plan(/*rate=*/0.1, /*mean_repair=*/48.0);
  sim.configure(EngineConfig{}.with_fault_plan(&plan));
  sim.run_rounds(300);
  EXPECT_EQ(digest.digest(), 0x32e684701c9b8719ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
  EXPECT_EQ(sim.ledger().crashes, 30u)
      << "actual crashes: " << std::dec << sim.ledger().crashes;
}

TEST(DeterminismGolden, LbStackUnderAdversaryChurn) {
  // The same execution under the k-crash adversary, which draws no random
  // numbers: pins its target choice (fed by the ack stream) and its
  // recovery schedule.
  const auto g = graph::grid(6, 6, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.4), params,
                       /*master_seed=*/2028);
  DigestObserver digest;
  sim.add_observer(&digest);
  sim.keep_busy({0, 17, 35});
  fault::AdversaryFaultPlan plan(/*k=*/2, /*period=*/24, /*repair=*/40);
  sim.configure(EngineConfig{}.with_fault_plan(&plan));
  sim.run_rounds(300);
  EXPECT_EQ(digest.digest(), 0xfa103506cb14a8c3ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
  EXPECT_EQ(sim.ledger().crashes, 24u)
      << "actual crashes: " << std::dec << sim.ledger().crashes;
  EXPECT_EQ(sim.ledger().recoveries, 20u)
      << "actual recoveries: " << std::dec << sim.ledger().recoveries;
}

TEST(DeterminismGolden, CoinProcessesUnderFlicker) {
  const auto g = graph::bridged_clusters(8, 1.5);
  FlickerScheduler sched(7, 3);
  Engine engine(g, sched, coin_processes(g.size(), /*id_seed=*/5),
                /*master_seed=*/424242);
  DigestObserver digest;
  engine.add_observer(&digest);
  engine.run_rounds(400);
  EXPECT_EQ(digest.digest(), 0xf519f25b76252dbdULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

TEST(DeterminismGolden, AdaptiveJammerCounterfactual) {
  // The E12 path: the adaptive adversary overrides the oblivious scheduler,
  // so this digest pins the adversary bitmap plumbing too.
  graph::DualGraph g(6);
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(0, 2);
  for (graph::Vertex v = 3; v < 6; ++v) {
    g.add_unreliable_edge(0, v);
    g.add_reliable_edge(1, v);
  }
  g.finalize();
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, coin_processes(g.size(), /*id_seed=*/9),
                /*master_seed=*/777);
  TargetedJammer jammer(/*target=*/0);
  engine.set_adaptive_adversary(&jammer);
  DigestObserver digest;
  engine.add_observer(&digest);
  engine.run_rounds(250);
  EXPECT_EQ(digest.digest(), 0xa14a1313d23c52f5ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

// ---- sharded-path re-verification ----
//
// The same three executions with the round-thread cap maxed: every digest
// must stay bit-identical.  At these sizes some rounds take the sharded
// loop and some fall back to the serial loop (block geometry), which is
// exactly the contract -- round_threads is an upper bound on parallelism,
// never a semantics switch.

TEST(DeterminismGoldenSharded, FullLbStackOnGrid) {
  const auto g = graph::grid(6, 6, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.4), params,
                       /*master_seed=*/2026);
  sim.configure(EngineConfig{}.with_round_threads(kMaxRoundThreads));
  DigestObserver digest;
  sim.add_observer(&digest);
  sim.keep_busy({0, 17, 35});
  sim.run_rounds(300);
  EXPECT_EQ(digest.digest(), 0xab1231a4ac4f25a3ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

TEST(DeterminismGoldenSharded, LbStackUnderCrashRecoverChurn) {
  const auto g = graph::grid(6, 6, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.4), params,
                       /*master_seed=*/2027);
  sim.configure(EngineConfig{}.with_round_threads(kMaxRoundThreads));
  DigestObserver digest;
  sim.add_observer(&digest);
  sim.keep_busy({0, 17, 35});
  fault::PoissonFaultPlan plan(/*rate=*/0.1, /*mean_repair=*/48.0);
  sim.configure(EngineConfig{}.with_fault_plan(&plan));
  sim.run_rounds(300);
  EXPECT_EQ(digest.digest(), 0x32e684701c9b8719ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
  EXPECT_EQ(sim.ledger().crashes, 30u)
      << "actual crashes: " << std::dec << sim.ledger().crashes;
}

TEST(DeterminismGoldenSharded, CoinProcessesUnderFlicker) {
  const auto g = graph::bridged_clusters(8, 1.5);
  FlickerScheduler sched(7, 3);
  Engine engine(g, sched, coin_processes(g.size(), /*id_seed=*/5),
                /*master_seed=*/424242);
  engine.configure(EngineConfig{}.with_round_threads(kMaxRoundThreads));
  DigestObserver digest;
  engine.add_observer(&digest);
  engine.run_rounds(400);
  EXPECT_EQ(digest.digest(), 0xf519f25b76252dbdULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

TEST(DeterminismGoldenSharded, AdaptiveJammerCounterfactual) {
  graph::DualGraph g(6);
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(0, 2);
  for (graph::Vertex v = 3; v < 6; ++v) {
    g.add_unreliable_edge(0, v);
    g.add_reliable_edge(1, v);
  }
  g.finalize();
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, coin_processes(g.size(), /*id_seed=*/9),
                /*master_seed=*/777);
  engine.configure(EngineConfig{}.with_round_threads(kMaxRoundThreads));
  TargetedJammer jammer(/*target=*/0);
  engine.set_adaptive_adversary(&jammer);
  DigestObserver digest;
  engine.add_observer(&digest);
  engine.run_rounds(250);
  EXPECT_EQ(digest.digest(), 0xa14a1313d23c52f5ULL)
      << "actual digest: 0x" << std::hex << digest.digest();
}

}  // namespace
}  // namespace dg::sim
