// Differential harness for the sharded round engine: the same execution at
// round_threads 1 (the serial loop), 2, 3 and 8 must be *byte-identical* --
// every observer event in the same order, every golden-style digest equal,
// every TrafficStats ledger field equal.  Determinism is structural (disjoint
// block writes, per-vertex rng streams, serial observer replay in ascending
// vertex order), so these sweeps are the engine's strongest contract: any
// scheduling-dependent leak shows up as a stream mismatch, not a flake.
//
// The property section stresses the block geometry where off-by-ones live:
// odd vertex counts straddling the 64-vertex block alignment, networks
// smaller than the thread count (serial fallback), isolated vertices, and
// randomized geometric topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_peer.h"
#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "phys/sinr.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "sim/splice.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace dg::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 3, 8};

/// Records every event as a formatted line; vectors compare with exact
/// failure positions, unlike a bare digest.
class StreamObserver final : public Observer {
 public:
  explicit StreamObserver(unsigned interest = kAllEvents)
      : interest_(interest) {}

  unsigned interest() const override { return interest_; }
  const std::vector<std::string>& events() const noexcept { return events_; }

  void on_round_begin(Round round) override {
    line() << "begin " << round;
    push();
  }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override {
    line() << "tx " << round << ' ' << v << ' ' << p.sender << ' '
           << payload_word(p);
    push();
  }
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet& p) override {
    line() << "rx " << round << ' ' << u << ' ' << from << ' '
           << payload_word(p);
    push();
  }
  void on_silence(Round round, graph::Vertex u, bool collision) override {
    line() << "sil " << round << ' ' << u << ' ' << (collision ? 1 : 0);
    push();
  }
  void on_round_end(Round round) override {
    line() << "end " << round;
    push();
  }

 private:
  static std::uint64_t payload_word(const Packet& p) {
    if (p.is_seed()) return p.seed().owner ^ (p.seed().seed_value * 3U);
    return p.data().id.origin ^ (p.data().id.seq * 5U) ^
           (p.data().content * 7U);
  }
  std::ostringstream& line() {
    os_.str("");
    return os_;
  }
  void push() { events_.push_back(os_.str()); }

  unsigned interest_;
  std::ostringstream os_;
  std::vector<std::string> events_;
};

/// Coin-flip transmitter that also ledgers everything it hears, so the
/// comparison covers process-visible state, not just observer streams.
class ShardCoinProcess final : public Process {
 public:
  explicit ShardCoinProcess(ProcessId id) : Process(id) {}

  std::optional<Packet> transmit(RoundContext& ctx) override {
    if (!ctx.rng().chance(0.5)) return std::nullopt;
    return Packet{id(), DataPayload{MessageId{id(), ++seq_}, seq_ * 11ULL}};
  }
  void receive(const std::optional<Packet>& packet,
               RoundContext& ctx) override {
    if (packet.has_value() && packet->is_data()) {
      heard_hash_ = splitmix64(heard_hash_ ^ packet->data().content ^
                               static_cast<std::uint64_t>(ctx.round()));
    }
  }
  bool shard_safe() const override { return true; }

  std::uint64_t heard_hash() const noexcept { return heard_hash_; }

 private:
  std::uint32_t seq_ = 0;
  std::uint64_t heard_hash_ = 0x243f6a8885a308d3ULL;
};

std::vector<std::unique_ptr<Process>> shard_coins(std::size_t n,
                                                  std::uint64_t id_seed) {
  const auto ids = assign_ids(n, id_seed);
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<ShardCoinProcess>(ids[v]));
  }
  return procs;
}

struct RunResult {
  std::vector<std::string> events;
  std::vector<std::uint64_t> heard;  ///< per-vertex process end state
};

/// One coin-process execution over `g` at the given thread cap.
RunResult run_once(const graph::DualGraph& g,
                   const std::function<std::unique_ptr<LinkScheduler>()>&
                       make_scheduler,
                   std::size_t round_threads, Round rounds,
                   std::uint64_t master_seed) {
  auto sched = make_scheduler();
  Engine engine(g, *sched, shard_coins(g.size(), master_seed ^ 0x5eedULL),
                master_seed);
  engine.configure(EngineConfig{}.with_round_threads(round_threads));
  EngineTestPeer::always_shard(engine);
  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(rounds);
  RunResult result;
  result.events = stream.events();
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    result.heard.push_back(
        dynamic_cast<const ShardCoinProcess&>(engine.process(v)).heard_hash());
  }
  return result;
}

/// Asserts byte-identical runs across kThreadCounts, with the serial run as
/// the reference.
void expect_thread_invariant(
    const graph::DualGraph& g,
    const std::function<std::unique_ptr<LinkScheduler>()>& make_scheduler,
    Round rounds, std::uint64_t master_seed, const std::string& what) {
  const RunResult serial = run_once(g, make_scheduler, 1, rounds, master_seed);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const RunResult sharded =
        run_once(g, make_scheduler, threads, rounds, master_seed);
    ASSERT_EQ(serial.events.size(), sharded.events.size())
        << what << " @ " << threads << " threads";
    for (std::size_t i = 0; i < serial.events.size(); ++i) {
      ASSERT_EQ(serial.events[i], sharded.events[i])
          << what << " @ " << threads << " threads, event " << i;
    }
    ASSERT_EQ(serial.heard, sharded.heard)
        << what << " @ " << threads << " threads (process state)";
  }
}

graph::DualGraph geometric(std::size_t n, std::uint64_t seed) {
  graph::GeometricSpec spec;
  spec.n = n;
  spec.side = 4.0;
  spec.r = 1.5;
  Rng rng(seed);
  return graph::random_geometric(spec, rng);
}

// ---- the differential matrix: topology x scheduler ----

TEST(EngineShardDifferential, GridAcrossSchedulers) {
  const auto g = graph::grid(16, 16, 1.0, 1.5);  // n=256: 2+ real blocks
  expect_thread_invariant(
      g, [] { return std::make_unique<BernoulliScheduler>(0.5); }, 60, 101,
      "grid/bernoulli");
  expect_thread_invariant(
      g, [] { return std::make_unique<FlickerScheduler>(7, 3); }, 60, 102,
      "grid/flicker");
  expect_thread_invariant(
      g, [] { return std::make_unique<ConstantScheduler>(true); }, 40, 103,
      "grid/full-gprime");
}

TEST(EngineShardDifferential, GeometricAndLine) {
  expect_thread_invariant(
      geometric(200, 77), [] { return std::make_unique<BernoulliScheduler>(0.3); },
      60, 201, "geometric/bernoulli");
  expect_thread_invariant(
      graph::line(150, 1.0, 1.5),
      [] { return std::make_unique<BurstScheduler>(5, 0.4); }, 60, 202,
      "line/burst");
}

TEST(EngineShardDifferential, SinrChannel) {
  // The SINR reception path: prepare_round buckets transmitters serially,
  // compute runs the verdict loop per receiver range; the identical
  // floating-point accumulation order makes the verdicts bit-for-bit equal.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  phys::SinrParams params;  // defaults: alpha 3, beta 2, noise 0.1
  const Round rounds = 40;
  const std::uint64_t master = 301;

  const auto run = [&](std::size_t threads) {
    phys::SinrChannel channel(params);
    Engine engine(g, channel, shard_coins(g.size(), master ^ 0x5eedULL),
                  master);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    EngineTestPeer::always_shard(engine);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(rounds);
    return stream.events();
  };
  const auto serial = run(1);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.size(), sharded.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], sharded[i]) << threads << " threads, event " << i;
    }
  }
}

// ---- the full LB stack: observer streams + TrafficStats ledgers ----

/// Every integer field of the injector ledger, as a comparable tuple-ish
/// vector (means derive from these, so integer equality is the strongest
/// form of "byte-identical").
std::vector<std::uint64_t> ledger(const traffic::TrafficStats& ts) {
  return {ts.offered,          ts.enqueued,        ts.dropped,
          ts.admitted,         ts.acked,           ts.aborted,
          ts.first_recvs,      ts.wait_sum,        ts.ack_latency_sum,
          ts.recv_latency_sum, ts.depth_samples,   ts.depth_sum,
          ts.depth_max,        ts.crash_requeues,  ts.readmitted};
}

TEST(EngineShardDifferential, LbStackWithTrafficLedger) {
  const auto g = graph::grid(12, 12, 1.0, 1.5);  // n=144
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);

  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2027);
    sim.configure(EngineConfig{}.with_round_threads(threads));
    EngineTestPeer::always_shard(sim.engine());
    StreamObserver stream;
    sim.add_observer(&stream);
    sim.traffic().set_queue_capacity(4);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2027, 0x7fcULL)));
    sim.run_phases(3);
    return std::make_pair(stream.events(), ledger(sim.traffic().stats()));
  };

  const auto serial = run(1);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.second, sharded.second)
        << threads << " threads (traffic ledger)";
    ASSERT_EQ(serial.first.size(), sharded.first.size()) << threads;
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
      ASSERT_EQ(serial.first[i], sharded.first[i])
          << threads << " threads, event " << i;
    }
  }
}

TEST(EngineShardDifferential, LbStackUnderFaultPlan) {
  // Crash/recover schedules are applied serially at the top of both round
  // loops, so a faulted execution must stay byte-identical across thread
  // counts -- observer stream, traffic ledger (including the crash-requeue
  // counters) and the checker's degradation ledger alike.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);

  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  // 0.3 crashes per round: about eight crash-requeues in the run, so the
  // fixture does not hang on a lucky draw (at 0.1 it expected two or so).
  fault::FaultSpec fspec;
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.3:96", fspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2028);
    sim.configure(EngineConfig{}.with_round_threads(threads));
    EngineTestPeer::always_shard(sim.engine());
    StreamObserver stream;
    sim.add_observer(&stream);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2028, 0x7fcULL)));
    const auto plan = fault::build_fault_plan(fspec);
    sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
    sim.run_phases(3);
    const lb::DegradationLedger& led = sim.ledger();
    std::vector<std::uint64_t> fault_ledger = {
        led.crashes,
        led.recoveries,
        led.faulty_progress.trials(),
        led.faulty_progress.successes(),
        led.faulty_reliability.trials(),
        led.faulty_reliability.successes(),
        led.restab_count,
        led.restab_rounds_sum,
        led.fault_rounds,
        led.acks_in_fault_rounds};
    auto all = ledger(sim.traffic().stats());
    all.insert(all.end(), fault_ledger.begin(), fault_ledger.end());
    return std::make_pair(stream.events(), all);
  };

  const auto serial = run(1);
  EXPECT_GT(serial.second[13], 0u) << "no crash-requeues; weak fixture";
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.second, sharded.second)
        << threads << " threads (traffic + degradation ledgers)";
    ASSERT_EQ(serial.first.size(), sharded.first.size()) << threads;
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
      ASSERT_EQ(serial.first[i], sharded.first[i])
          << threads << " threads, event " << i;
    }
  }
}

// ---- obs telemetry: the logical domain is part of the contract ----

TEST(EngineShardDifferential, LogicalMetricsByteIdentical) {
  // The obs::Registry logical dump (counters, gauges, histograms minus the
  // timing domain) must be byte-for-byte equal at every thread count: the
  // engine records logical metrics only at serial seams.  Timing metrics
  // exist in every run but are excluded by json(false) by construction.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  const auto run = [&](std::size_t threads) {
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, shard_coins(g.size(), 0xAB5eedULL), 0xAB);
    obs::Registry registry;
    engine.configure(
        EngineConfig{}.with_round_threads(threads).with_telemetry(&registry));
    EngineTestPeer::always_shard(engine);
    engine.run_rounds(48);
    return registry.json(/*include_timing=*/false);
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find("engine.rounds"), std::string::npos);
  EXPECT_NE(serial.find("engine.tx_per_round"), std::string::npos);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    ASSERT_EQ(serial, run(threads)) << threads << " threads";
  }
}

TEST(EngineShardDifferential, LogicalMetricsByteIdenticalUnderFaultPlan) {
  // The full stack's logical telemetry -- engine counters, fault
  // crash/recover counters, traffic ledger sums, checker tallies exported
  // by LbSimulation::export_telemetry -- under a crash/recover schedule.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2029);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2029, 0x7fcULL)));
    const auto plan = fault::build_fault_plan(fspec);
    obs::Registry registry;
    sim.configure(EngineConfig{}
                      .with_round_threads(threads)
                      .with_fault_plan(plan.get())
                      .with_telemetry(&registry));
    EngineTestPeer::always_shard(sim.engine());
    sim.run_phases(3);
    sim.export_telemetry();
    return registry.json(/*include_timing=*/false);
  };

  const std::string serial = run(1);
  EXPECT_NE(serial.find("engine.faults.crashes"), std::string::npos);
  EXPECT_NE(serial.find("traffic.acked"), std::string::npos);
  EXPECT_NE(serial.find("lb.fault.crashes"), std::string::npos);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    ASSERT_EQ(serial, run(threads)) << threads << " threads";
  }
}

// ---- shard-boundary properties ----

TEST(EngineShardProperty, OddSizesStraddlingBlockAlignment) {
  // Vertex counts around the 64-vertex block alignment: last-block
  // truncation, exactly-two-blocks, one-past.  Short horizons keep the
  // sweep fast; every round still crosses both parallel phases.
  for (std::size_t n : {65u, 127u, 128u, 129u, 191u, 300u}) {
    expect_thread_invariant(
        geometric(n, 0x9000 + n),
        [] { return std::make_unique<BernoulliScheduler>(0.4); }, 24,
        0x600 + n, "odd-n geometric n=" + std::to_string(n));
  }
}

TEST(EngineShardProperty, SmallerThanThreadCountFallsBackSerial) {
  // n < threads (and n < one block): the dispatcher must take the serial
  // loop and produce the identical stream -- the knob is an upper bound,
  // never a requirement.
  for (std::size_t n : {1u, 3u, 7u}) {
    graph::DualGraph g(n);
    for (graph::Vertex v = 0; v + 1 < n; ++v) g.add_reliable_edge(v, v + 1);
    g.finalize();
    expect_thread_invariant(
        g, [] { return std::make_unique<ConstantScheduler>(true); }, 16,
        0x700 + n, "tiny n=" + std::to_string(n));
  }
}

TEST(EngineShardProperty, IsolatedVerticesAndEmptyBlocks) {
  // 90 isolated vertices after a 40-vertex path: whole shard blocks with
  // no edges at all must still zero their heard_ range and fire silence
  // events in order.
  graph::DualGraph g(130);
  for (graph::Vertex v = 0; v + 1 < 40; ++v) g.add_reliable_edge(v, v + 1);
  g.add_unreliable_edge(0, 129);  // one long unreliable edge into the tail
  g.finalize();
  expect_thread_invariant(
      g, [] { return std::make_unique<BernoulliScheduler>(0.5); }, 32, 0x800,
      "isolated-tail");
}

TEST(EngineShardProperty, RandomizedTopologySweep) {
  // Randomized geometric graphs (connectivity, degree skew and component
  // structure vary with the seed) -- the catch-all net under the targeted
  // shapes above.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    expect_thread_invariant(
        geometric(140 + 17 * seed, seed),
        [] { return std::make_unique<BernoulliScheduler>(0.35); }, 20,
        0x900 + seed, "random sweep seed=" + std::to_string(seed));
  }
}

// ---- dense goldens: the oracle for the frontier-driven dispatch ----
//
// Every case below was recorded from the engine's former dense dispatch
// (every vertex stepped every round, heard words zeroed and filled in full,
// observers fanned out inline), so the single frontier-driven block loop
// stays pinned to it now that the dense code is gone.  The cases that draw
// random numbers were re-recorded once since, when dg::Rng became
// counter-based (no engine, stage or channel file changed; the draw-free
// DedupMaskedDeliveryToParkedVertex kept its value).  A case digests the
// observer stream, the process end state or the traffic + degradation
// ledgers, and (where telemetry is installed) the logical METRICS dump;
// each must match at every thread count.  If an intentional semantic
// change ever lands, re-record with the printed "actual" values.

/// FNV-1a over 64-bit words, byte by byte.
std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digest_text(std::uint64_t h, const std::string& text) {
  for (const char c : text) h = fnv(h, static_cast<unsigned char>(c));
  return fnv(h, text.size());
}

std::uint64_t digest_lines(const std::vector<std::string>& lines) {
  std::uint64_t h = kFnvBasis;
  for (const std::string& line : lines) h = digest_text(h, line);
  return h;
}

std::uint64_t digest_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t w : words) h = fnv(h, w);
  return fnv(h, words.size());
}

/// One recorded run: observer event count, stream digest, state digest.
struct Golden {
  std::size_t events = 0;
  std::uint64_t stream = 0;
  std::uint64_t state = 0;
};

void expect_golden(const Golden& want, const Golden& got,
                   const std::string& what, std::size_t threads) {
  EXPECT_TRUE(want.events == got.events && want.stream == got.stream &&
              want.state == got.state)
      << what << " @ " << threads << " threads; actual {" << std::dec
      << got.events << ", 0x" << std::hex << got.stream << "ULL, 0x"
      << got.state << "ULL}";
}

/// The configuration every golden run starts from.
EngineConfig golden_config(std::size_t threads) {
  return EngineConfig{}.with_round_threads(threads);
}

Golden coin_golden_run(const graph::DualGraph& g,
                       const std::function<std::unique_ptr<LinkScheduler>()>&
                           make_scheduler,
                       std::size_t threads, Round rounds,
                       std::uint64_t master_seed) {
  auto sched = make_scheduler();
  Engine engine(g, *sched, shard_coins(g.size(), master_seed ^ 0x5eedULL),
                master_seed);
  engine.configure(golden_config(threads));
  EngineTestPeer::always_shard(engine);
  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(rounds);
  std::vector<std::uint64_t> heard;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    heard.push_back(
        dynamic_cast<const ShardCoinProcess&>(engine.process(v)).heard_hash());
  }
  return {stream.events().size(), digest_lines(stream.events()),
          digest_words(heard)};
}

TEST(EngineDenseGolden, CoinHarnessAcrossTopologies) {
  struct Case {
    std::string what;
    graph::DualGraph g;
    std::function<std::unique_ptr<LinkScheduler>()> make_scheduler;
    Round rounds;
    std::uint64_t seed;
    Golden want;
  };
  const auto bernoulli = [](double p) {
    return [p] { return std::make_unique<BernoulliScheduler>(p); };
  };
  // Word-boundary shapes (63/65/129): the frontier bitmap and the per-word
  // park minimums live on 64-vertex granularity.
  const Case cases[] = {
      {"grid/bernoulli", graph::grid(12, 12, 1.0, 1.5), bernoulli(0.5), 40,
       0xA01, {5840, 0x29ce1a5a4657daf4ULL, 0x4d47ac06d4e61e53ULL}},
      {"geometric/burst", geometric(150, 88),
       [] { return std::make_unique<BurstScheduler>(5, 0.4); }, 40, 0xA02,
       {6080, 0x6b10bec4976bea72ULL, 0x5b74f64dee86af5dULL}},
      {"odd-n n=63", geometric(63, 0xA000 + 63), bernoulli(0.4), 24,
       0xA10 + 63, {1560, 0x7c5e4b4acb544ca3ULL, 0x43617dbde729b65eULL}},
      {"odd-n n=65", geometric(65, 0xA000 + 65), bernoulli(0.4), 24,
       0xA10 + 65, {1608, 0xc40cb9a94066130ULL, 0x8d8b73b0b57551fULL}},
      {"odd-n n=129", geometric(129, 0xA000 + 129), bernoulli(0.4), 24,
       0xA10 + 129, {3144, 0x8f14a13fc4fdc4a6ULL, 0xea5243177e15602cULL}},
  };
  for (const Case& c : cases) {
    for (std::size_t threads : kThreadCounts) {
      expect_golden(c.want,
                    coin_golden_run(c.g, c.make_scheduler, threads, c.rounds,
                                    c.seed),
                    c.what, threads);
    }
  }
}

TEST(EngineDenseGolden, SinrChannel) {
  // The SINR frontier (near-cell membership of transmitter cells) against
  // the full-range verdict loop the dense dispatch ran.
  const auto g = graph::grid(14, 14, 1.0, 1.5);
  for (std::size_t threads : kThreadCounts) {
    phys::SinrParams params;
    phys::SinrChannel channel(params);
    Engine engine(g, channel, shard_coins(g.size(), 0xB0B ^ 0x5eedULL), 0xB0B);
    engine.configure(golden_config(threads));
    EngineTestPeer::always_shard(engine);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(32);
    std::vector<std::uint64_t> heard;
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      heard.push_back(dynamic_cast<const ShardCoinProcess&>(engine.process(v))
                          .heard_hash());
    }
    expect_golden({6336, 0xef71a5bfb96d4471ULL, 0xcf5bd6bacb7ec809ULL},
                  {stream.events().size(), digest_lines(stream.events()),
                   digest_words(heard)},
                  "sinr", threads);
  }
}

/// Traffic ledger plus the checker's degradation ledger, one vector.
std::vector<std::uint64_t> lb_ledgers(const lb::LbSimulation& sim) {
  auto all = ledger(sim.traffic().stats());
  const lb::DegradationLedger& led = sim.ledger();
  all.insert(all.end(),
             {led.crashes, led.recoveries, led.faulty_progress.trials(),
              led.faulty_progress.successes(), led.faulty_reliability.trials(),
              led.faulty_reliability.successes(), led.restab_count,
              led.restab_rounds_sum, led.fault_rounds,
              led.acks_in_fault_rounds});
  return all;
}

/// The LB-stack observer: everything but silences, so the receive replay
/// takes its frontier-words-only walk (the spec checker's own interest).
constexpr unsigned kLbStreamInterest = Observer::kAllEvents & ~Observer::kSilence;

TEST(EngineDenseGolden, LbStackMatrix) {
  // The full LB stack -- where silent_steps() actually parks vertices
  // (receiving-state bodies, decided SeedAlg listeners, post-recovery
  // stretches, done seed runners) -- across topology x traffic shape x
  // fault plan x thread count.  The state digest covers both ledgers and
  // the logical METRICS dump.
  struct Topo {
    const char* name;
    graph::DualGraph g;
  };
  const Topo topos[] = {{"grid", graph::grid(10, 10, 1.0, 1.5)},
                        {"geometric", geometric(150, 77)}};
  const char* traffics[] = {"poisson:0.05", "burst:48:3", "hotspot:0.05:0.7"};
  // Recorded in loop order: topology, traffic, faults off/on.
  const Golden want[] = {
      // grid: poisson, burst, hotspot x no-faults, faults
      {1902, 0xd3a45aeb8da6c1aeULL, 0x9074a66b36f6e0fdULL},
      {1751, 0x93389979d5160dc4ULL, 0xc5fc62ba9a401a3fULL},
      {1878, 0x36545f22dd3b1137ULL, 0xaabb28f2a755c69bULL},
      {1732, 0x28c7e108f9bb7191ULL, 0x75eb5cdf9efbd535ULL},
      {1867, 0xb12e25e2c53d566cULL, 0xfbe992d810c8e91aULL},
      {1729, 0x0e91a2788001ec08ULL, 0x49625475bf0d8821ULL},
      // geometric: poisson, burst, hotspot x no-faults, faults
      {6895, 0x75b6cfe6872dd197ULL, 0x23f249828ee83dccULL},
      {6359, 0x2c03ea93d5ffb177ULL, 0x946d37aabea7354dULL},
      {5954, 0xf95aff050b0bfbf6ULL, 0xe6da288d6af83eefULL},
      {5525, 0xdc59e683db8d27a6ULL, 0xba4f9b93a3d03dd9ULL},
      {6278, 0x1c12781335f96d33ULL, 0x4b2125f5302914c9ULL},
      {5792, 0x84bc61e7ce38b394ULL, 0xa330847a60402a79ULL},
  };

  std::size_t index = 0;
  for (const Topo& topo : topos) {
    lb::LbScales scales;
    scales.ack_scale = 0.02;
    const auto params = lb::LbParams::calibrated(
        0.1, 1.5, topo.g.delta(), topo.g.delta_prime(), scales);
    for (const char* traffic : traffics) {
      for (bool faults : {false, true}) {
        const auto run = [&](std::size_t threads) {
          traffic::TrafficSpec tspec;
          EXPECT_EQ(traffic::parse_traffic_spec(traffic, tspec), "");
          fault::FaultSpec fspec;
          EXPECT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");
          lb::LbSimulation sim(topo.g,
                               std::make_unique<BernoulliScheduler>(0.5),
                               params, /*master_seed=*/2030);
          obs::Registry registry;
          sim.configure(golden_config(threads).with_telemetry(&registry));
          EngineTestPeer::always_shard(sim.engine());
          StreamObserver stream(kLbStreamInterest);
          sim.add_observer(&stream);
          sim.add_traffic(traffic::build_source(
              tspec, topo.g.size(), derive_seed(2030, 0x7fcULL)));
          std::unique_ptr<fault::FaultPlan> plan;
          if (faults) {
            plan = fault::build_fault_plan(fspec);
            sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
          }
          sim.run_phases(2);
          sim.export_telemetry();
          const std::uint64_t state =
              digest_text(digest_words(lb_ledgers(sim)),
                          registry.json(/*include_timing=*/false));
          return Golden{stream.events().size(),
                        digest_lines(stream.events()), state};
        };
        const std::string what = std::string(topo.name) + "/" + traffic +
                                 (faults ? "/faults" : "/no-faults");
        // The full thread sweep rides on the poisson shape; the other
        // shapes check the serial and widest-parallel endpoints.
        const bool full_sweep = std::string(traffic).rfind("poisson", 0) == 0;
        for (std::size_t threads : kThreadCounts) {
          if (!full_sweep && threads != 1 && threads != 8) continue;
          expect_golden(want[index], run(threads), what, threads);
        }
        ++index;
      }
    }
  }
}

TEST(EngineDenseGolden, LogicalMetrics) {
  // The logical telemetry domain must not leak which dispatch ran; the
  // frontier counter (engine.active_blocks) lives in the excluded timing
  // domain.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  for (std::size_t threads : kThreadCounts) {
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, shard_coins(g.size(), 0xAB5eedULL), 0xAB);
    obs::Registry registry;
    engine.configure(golden_config(threads).with_telemetry(&registry));
    EngineTestPeer::always_shard(engine);
    engine.run_rounds(48);
    expect_golden({0, 0x0ULL, 0x8fa8cd7b1dec3402ULL},
                  {0, 0, digest_text(kFnvBasis, registry.json(false))},
                  "logical metrics", threads);
  }
}

SpliceSpec splice(const std::string& text) {
  SpliceSpec spec;
  std::string error;
  EXPECT_TRUE(parse_splice_spec(text, spec, error)) << error;
  return spec;
}

TEST(EngineDenseGolden, MidRunDedupInstall) {
  // A dedup stage spliced in mid-run, while receiving-state LB vertices
  // sit parked on silent promises: the stage reads only frontier words,
  // and the run must stay on the dense engine's bytes -- observer stream,
  // both ledgers, the logical METRICS (stage.dedup.suppressed included).
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  for (std::size_t threads : kThreadCounts) {
    traffic::TrafficSpec tspec;
    ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2031);
    obs::Registry registry;
    sim.configure(golden_config(threads).with_telemetry(&registry));
    EngineTestPeer::always_shard(sim.engine());
    StreamObserver stream(kLbStreamInterest);
    sim.add_observer(&stream);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2031, 0x7fcULL)));
    sim.run_phases(1);
    sim.run_rounds(params.t_s + 3);  // into the body: receivers are parked
    sim.configure(EngineConfig{}.with_splice(splice("dedup:2")));
    sim.run_phases(2);
    sim.export_telemetry();
    EXPECT_GT(registry.counter("stage.dedup.suppressed", obs::Domain::kLogical),
              0u)
        << "dedup never fired; weak fixture";
    expect_golden({2990, 0xfccac47a710475b8ULL, 0x55209a603fbe6d04ULL},
                  {stream.events().size(), digest_lines(stream.events()),
                   digest_text(digest_words(lb_ledgers(sim)),
                               registry.json(/*include_timing=*/false))},
                  "mid-run dedup", threads);
  }
}

/// Retransmits one packet per `period`-round epoch (the content is the
/// epoch number), every round, so a dedup cache sees each key repeatedly.
class EpochSender final : public Process {
 public:
  EpochSender(ProcessId id, Round period) : Process(id), period_(period) {}
  std::optional<Packet> transmit(RoundContext& ctx) override {
    const auto epoch = static_cast<std::uint64_t>(ctx.round() / period_);
    return Packet{id(), DataPayload{MessageId{id(), 1}, epoch}};
  }
  void receive(const std::optional<Packet>&, RoundContext&) override {}
  bool shard_safe() const override { return true; }

 private:
  Round period_;
};

/// Never transmits and promises to stay silent indefinitely, so it parks
/// after every step; real deliveries wake it and are ledgered.
class ParkedListener final : public Process {
 public:
  explicit ParkedListener(ProcessId id) : Process(id) {}
  std::optional<Packet> transmit(RoundContext&) override {
    return std::nullopt;
  }
  void receive(const std::optional<Packet>& packet,
               RoundContext& ctx) override {
    if (!packet.has_value()) return;
    ++deliveries_;
    hash_ = splitmix64(hash_ ^ packet->data().content ^
                       static_cast<std::uint64_t>(ctx.round()));
  }
  std::int64_t silent_steps(std::int64_t) override { return 1000; }
  bool shard_safe() const override { return true; }

  std::uint64_t state() const noexcept { return hash_ ^ deliveries_; }

 private:
  std::uint64_t deliveries_ = 0;
  std::uint64_t hash_ = 0x6a09e667f3bcc909ULL;
};

TEST(EngineDenseGolden, DedupMaskedDeliveryToParkedVertex) {
  // Sender/listener pairs: each listener parks after every step, and its
  // sender repeats one packet per epoch.  The first copy of an epoch wakes
  // the listener; every repeat is masked by dedup and lands on a parked
  // vertex -- a null reception inside its promise, so it must neither wake
  // the vertex nor reach it as a packet.
  const std::size_t pairs = 130;  // n=260: several blocks at every cap
  graph::DualGraph g(2 * pairs);
  for (graph::Vertex p = 0; p < pairs; ++p) g.add_reliable_edge(2 * p, 2 * p + 1);
  g.finalize();
  for (std::size_t threads : kThreadCounts) {
    const auto ids = assign_ids(g.size(), 0xDEDULL);
    std::vector<std::unique_ptr<Process>> procs;
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      if (v % 2 == 0) {
        procs.push_back(std::make_unique<EpochSender>(ids[v], 3 + (v / 2) % 5));
      } else {
        procs.push_back(std::make_unique<ParkedListener>(ids[v]));
      }
    }
    ConstantScheduler sched(false);
    Engine engine(g, sched, std::move(procs), 0xDED);
    obs::Registry registry;
    engine.configure(golden_config(threads)
                         .with_telemetry(&registry)
                         .with_splice(splice("dedup:4")));
    EngineTestPeer::always_shard(engine);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(40);
    EXPECT_GT(registry.counter("stage.dedup.suppressed", obs::Domain::kLogical),
              0u);
    std::vector<std::uint64_t> state;
    for (graph::Vertex v = 1; v < g.size(); v += 2) {
      state.push_back(
          dynamic_cast<const ParkedListener&>(engine.process(v)).state());
    }
    expect_golden({10480, 0x665f9fcb29ddc849ULL, 0x297b2463c0f233eaULL},
                  {stream.events().size(), digest_lines(stream.events()),
                   digest_text(digest_words(state),
                               registry.json(/*include_timing=*/false))},
                  "masked delivery to parked vertex", threads);
  }
}

// ---- vertex-granular parking: the awake mask and deaf promises ----

/// A listener whose promises are a fixed function of the round, offset by
/// `phase`: the rounds t > 1 with (t + phase) % 8 in 1..5 form its
/// windows.  After the round before a window, and after each round inside
/// it, it promises the rest of the window; the window after round
/// 8m - phase is deaf iff m is even.  It honours its own contract when
/// stepped every round (`dense`: it never promises, but a packet inside a
/// deaf window is still a no-op), and it logs the rounds it is stepped
/// in, its cursor slips, the packets it takes and the calls that reach it
/// inside a deaf window.
class ScriptedListener final : public Process {
 public:
  ScriptedListener(ProcessId id, Round phase, bool dense)
      : Process(id), phase_(phase), dense_(dense) {}

  std::optional<Packet> transmit(RoundContext& ctx) override {
    if (ctx.round() != cursor_ + 1) ++slips_;
    cursor_ = ctx.round();
    transmits_.push_back(ctx.round());
    return std::nullopt;
  }
  void receive(const std::optional<Packet>& packet,
               RoundContext& ctx) override {
    if (!packet.has_value()) return;
    if (in_deaf_window(ctx.round())) {
      ++deaf_calls_;
      return;
    }
    hash_ = splitmix64(hash_ ^ packet->data().content ^
                       static_cast<std::uint64_t>(ctx.round()));
  }
  void end_round(RoundContext& ctx) override {
    end_rounds_.push_back(ctx.round());
  }
  std::int64_t silent_steps(std::int64_t k) override {
    cursor_ += k;
    if (dense_) return 0;
    const Round r = (cursor_ + phase_) % 8;
    return r <= 4 ? 5 - r : 0;
  }
  bool deaf() const override { return window_deaf(cursor_ + 1); }
  bool shard_safe() const override { return true; }

  /// True iff round t lies in a window (any window, deaf or not).
  bool in_window(Round t) const {
    const Round r = (t + phase_) % 8;
    return t > 1 && r >= 1 && r <= 5;  // nobody parks before round 1
  }
  bool in_deaf_window(Round t) const {
    return in_window(t) && window_deaf(t);
  }

  const std::vector<Round>& transmits() const { return transmits_; }
  const std::vector<Round>& end_rounds() const { return end_rounds_; }
  std::uint64_t slips() const { return slips_; }
  std::uint64_t deaf_calls() const { return deaf_calls_; }
  std::uint64_t hash() const { return hash_; }

 private:
  bool window_deaf(Round t) const { return ((t + phase_) / 8) % 2 == 0; }

  Round phase_;
  bool dense_;
  Round cursor_ = 0;
  std::vector<Round> transmits_;
  std::vector<Round> end_rounds_;
  std::uint64_t slips_ = 0;
  std::uint64_t deaf_calls_ = 0;
  std::uint64_t hash_ = 0x3c6ef372fe94f82bULL;
};

struct ParkingRun {
  std::vector<std::string> events;
  std::string logical;  ///< the registry's logical dump
  std::vector<const ScriptedListener*> listeners;  ///< null for senders
  std::unique_ptr<Engine> engine;
};

/// A 16x17 grid (several blocks at every cap) of coin senders (every
/// third vertex) and scripted listeners with staggered windows.
ParkingRun run_parking(std::size_t threads, bool dense, LinkScheduler& sched,
                       const graph::DualGraph& g, obs::Registry& registry) {
  const auto ids = assign_ids(g.size(), 0xDEAFULL);
  std::vector<std::unique_ptr<Process>> procs;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    if (v % 3 == 0) {
      procs.push_back(std::make_unique<ShardCoinProcess>(ids[v]));
    } else {
      procs.push_back(std::make_unique<ScriptedListener>(ids[v], v % 8, dense));
    }
  }
  ParkingRun run;
  run.engine = std::make_unique<Engine>(g, sched, std::move(procs), 0xDEAF);
  run.engine->configure(
      EngineConfig{}.with_round_threads(threads).with_telemetry(&registry));
  EngineTestPeer::always_shard(*run.engine);
  StreamObserver stream;
  run.engine->add_observer(&stream);
  run.engine->run_rounds(60);
  run.events = stream.events();
  run.logical = registry.json(/*include_timing=*/false);
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    run.listeners.push_back(
        dynamic_cast<const ScriptedListener*>(&run.engine->process(v)));
  }
  return run;
}

TEST(EngineParking, DeafPromisesSkipDeliveriesAndExpiredPromisesRejoin) {
  // Against a reference that steps every listener every round: the
  // observer stream and the logical verdict counters are identical (a
  // delivery into a deaf window is still seen), every listener takes the
  // same packets, no call reaches a listener inside a deaf window, a
  // delivery inside a non-deaf window wakes the listener for that round,
  // and a window that ends unwoken rejoins in the round after it ends.
  // engine.stepped.vertices counts exactly the steps taken.
  const auto g = graph::grid(16, 17, 1.0, 1.5);
  BernoulliScheduler ref_sched(0.5);
  obs::Registry ref_registry;
  const ParkingRun ref = run_parking(1, /*dense=*/true, ref_sched, g,
                                     ref_registry);
  std::uint64_t ref_deaf_calls = 0;
  for (const ScriptedListener* l : ref.listeners) {
    if (l != nullptr) ref_deaf_calls += l->deaf_calls();
  }
  EXPECT_GT(ref_deaf_calls, 0u) << "no delivery inside a deaf window";

  // Rounds each vertex hears a packet in (from the reference stream).
  std::vector<std::vector<Round>> heard(g.size());
  for (const std::string& e : ref.events) {
    std::istringstream in(e);
    std::string kind;
    Round round = 0;
    graph::Vertex u = 0;
    in >> kind >> round >> u;
    if (kind == "rx") heard[u].push_back(round);
  }

  for (std::size_t threads : kThreadCounts) {
    BernoulliScheduler sched(0.5);
    obs::Registry registry;
    const ParkingRun run = run_parking(threads, /*dense=*/false, sched, g,
                                       registry);
    ASSERT_EQ(ref.events, run.events) << threads << " threads";
    EXPECT_EQ(ref.logical, run.logical) << threads << " threads";
    std::uint64_t wakes = 0, skipped = 0, steps = 0;
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      const ScriptedListener* l = run.listeners[v];
      steps += l == nullptr ? 60 : l->end_rounds().size();
      if (l == nullptr) continue;
      EXPECT_EQ(l->hash(), ref.listeners[v]->hash()) << "vertex " << v;
      EXPECT_EQ(l->deaf_calls(), 0u) << "vertex " << v;
      EXPECT_EQ(l->slips(), 0u) << "vertex " << v;
      EXPECT_EQ(l->end_rounds(), l->transmits()) << "vertex " << v;
      std::vector<Round> want;
      for (Round t = 1; t <= 60; ++t) {
        const bool delivered =
            std::find(heard[v].begin(), heard[v].end(), t) != heard[v].end();
        if (!l->in_window(t)) {
          want.push_back(t);
        } else if (delivered && !l->in_deaf_window(t)) {
          want.push_back(t);
          ++wakes;
        } else if (delivered) {
          ++skipped;
        }
      }
      EXPECT_EQ(l->transmits(), want) << "vertex " << v << ", " << threads
                                      << " threads";
    }
    EXPECT_EQ(registry.counter("engine.stepped.vertices", obs::Domain::kTiming),
              steps);
    EXPECT_GT(wakes, 0u) << "no delivery woke a listener";
    EXPECT_GT(skipped, 0u) << "no delivery into a deaf window";
  }
}

TEST(EngineShardProperty, NonConsentingProcessForcesSerial) {
  // A process that keeps the shard_safe() default must pin the whole
  // engine to the serial loop; results are (trivially) identical, and
  // nothing crashes or deadlocks with the cap still set high.
  class DefaultConsent final : public Process {
   public:
    explicit DefaultConsent(ProcessId id) : Process(id) {}
    std::optional<Packet> transmit(RoundContext& ctx) override {
      if (!ctx.rng().chance(0.5)) return std::nullopt;
      return Packet{id(), DataPayload{MessageId{id(), ++seq_}, 1ULL}};
    }
    void receive(const std::optional<Packet>&, RoundContext&) override {}

   private:
    std::uint32_t seq_ = 0;
  };
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  const auto run = [&](std::size_t threads) {
    const auto ids = assign_ids(g.size(), 11);
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t v = 0; v < g.size(); ++v) {
      procs.push_back(std::make_unique<DefaultConsent>(ids[v]));
    }
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, std::move(procs), 99);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    EngineTestPeer::always_shard(engine);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(24);
    return stream.events();
  };
  const auto serial = run(1);
  const auto capped = run(8);
  ASSERT_EQ(serial, capped);
}

// ---- fused block passes: callback order, job counts, attribution ----

/// One log of an LB run's whole serial callback stream: the observer
/// events, the RoundHooks checkpoints (recorded, then passed on to the
/// simulation's own hooks) and the recv/ack outputs those hooks forward.
class CallbackLog final : public Observer,
                          public RoundHooks,
                          public lb::LbListener {
 public:
  explicit CallbackLog(RoundHooks* inner) : inner_(inner) {}

  const std::vector<std::string>& events() const noexcept { return events_; }

  unsigned interest() const override {
    return kTransmit | kReceive | kSilence | kRoundEnd;
  }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override {
    push("tx", round, v, p.sender);
  }
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet&) override {
    push("rx", round, u, from);
  }
  void on_silence(Round round, graph::Vertex u, bool collision) override {
    push("sil", round, u, collision ? 1 : 0);
  }
  void on_round_end(Round round) override { push("end", round, 0, 0); }

  void after_receive_phase(Round round) override {
    push("after_receive", round, 0, 0);
    inner_->after_receive_phase(round);
  }
  void after_output_phase(Round round) override {
    push("after_output", round, 0, 0);
    inner_->after_output_phase(round);
  }

  void on_recv(graph::Vertex vertex, const MessageId& m,
               std::uint64_t content, Round round) override {
    push("recv", round, vertex, m.origin ^ (m.seq * 3U) ^ (content * 5U));
  }
  void on_ack(graph::Vertex vertex, const MessageId& m,
              Round round) override {
    push("ack", round, vertex, m.origin ^ (m.seq * 3U));
  }

 private:
  void push(const char* what, Round round, std::uint64_t a, std::uint64_t b) {
    events_.push_back(std::string(what) + ' ' + std::to_string(round) + ' ' +
                      std::to_string(a) + ' ' + std::to_string(b));
  }

  RoundHooks* inner_;
  std::vector<std::string> events_;
};

/// The LB stack with traffic and a fault plan, optionally spliced, logged
/// through CallbackLog at the given thread cap.
std::vector<std::string> lb_callback_stream(
    std::size_t threads, const std::vector<std::string>& splices) {
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.001;  // one sending phase: acks inside the run
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  traffic::TrafficSpec tspec;
  EXPECT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  EXPECT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                       /*master_seed=*/2032);
  EngineConfig config = EngineConfig{}.with_round_threads(threads);
  for (const std::string& text : splices) config.with_splice(splice(text));
  const auto plan = fault::build_fault_plan(fspec);
  config.with_fault_plan(plan.get());
  sim.configure(config);
  EngineTestPeer::always_shard(sim.engine());
  CallbackLog log(EngineTestPeer::round_hooks(sim.engine()));
  sim.engine().set_round_hooks(&log);
  sim.add_observer(&log);
  sim.set_extra_listener(&log);
  sim.add_traffic(
      traffic::build_source(tspec, g.size(), derive_seed(2032, 0x7fcULL)));
  sim.run_phases(3);
  return log.events();
}

TEST(EngineFusion, CallbackStreamIdenticalAtEveryThreadCount) {
  // transmit is one block pass and compute + receive + output_flush (plus
  // any vertex-disjoint splice) another, so both RoundHooks checkpoints
  // fire after the round's last end_round.  The complete serial stream --
  // observer events, checkpoints, the recv-then-ack outputs they forward
  // -- must not depend on the thread count, with or without a
  // vertex-disjoint (dedup) or a serial (tap) splice in the pass.
  const std::vector<std::vector<std::string>> splice_sets = {
      {}, {"dedup:2"}, {"tap:heard_words"}, {"dedup:2", "tap:heard_words"}};
  for (const auto& splices : splice_sets) {
    const std::vector<std::string> serial = lb_callback_stream(1, splices);
    std::size_t recvs = 0, acks = 0;
    for (const std::string& e : serial) {
      recvs += e.rfind("recv ", 0) == 0;
      acks += e.rfind("ack ", 0) == 0;
    }
    EXPECT_GT(recvs, 0u) << "no recv outputs; weak fixture";
    EXPECT_GT(acks, 0u) << "no ack outputs; weak fixture";
    for (std::size_t threads : {2u, 4u, 8u}) {
      const std::vector<std::string> sharded =
          lb_callback_stream(threads, splices);
      ASSERT_EQ(serial.size(), sharded.size())
          << threads << " threads, " << splices.size() << " splices";
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i], sharded[i])
            << threads << " threads, " << splices.size() << " splices, event "
            << i;
      }
    }
  }
}

/// Sharded rounds and pool jobs of a 24-round coin run at 4 threads.
std::pair<std::uint64_t, std::uint64_t> sharded_rounds_and_jobs(
    const std::vector<std::string>& splices) {
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, shard_coins(g.size(), 0x10B5ULL), 0x10B);
  obs::Registry registry;
  EngineConfig config =
      EngineConfig{}.with_round_threads(4).with_telemetry(&registry);
  for (const std::string& text : splices) config.with_splice(splice(text));
  engine.configure(config);
  EngineTestPeer::always_shard(engine);
  engine.run_rounds(24);
  return {registry.counter("engine.dispatch.sharded", obs::Domain::kTiming),
          registry.counter("engine.dispatch.pool_jobs", obs::Domain::kTiming)};
}

TEST(EngineFusion, PoolJobsPerShardedRound) {
  // transmit, then compute + receive + output_flush: two jobs.  A dedup
  // (vertex-disjoint) or noop splice joins the second pass; a serial tap
  // anchored after compute splits it in two.
  const struct {
    std::vector<std::string> splices;
    std::uint64_t jobs_per_round;
  } cases[] = {{{}, 2}, {{"dedup:2"}, 2}, {{"noop"}, 2},
               {{"tap:heard_words"}, 3}};
  for (const auto& c : cases) {
    const auto [sharded, jobs] = sharded_rounds_and_jobs(c.splices);
    EXPECT_EQ(sharded, 24u);
    EXPECT_EQ(jobs, c.jobs_per_round * sharded)
        << (c.splices.empty() ? "no splice" : c.splices.front());
  }
}

/// Runs a traced, always-sharded 64x64 grid at 4 threads for t_s + 200
/// rounds, into `registry`: Poisson traffic holding ~1% of the nodes
/// sending (grid_sparse's shape), or every node kept busy.
void run_traced_grid(obs::Registry& registry, bool every_node_busy) {
  const auto g = graph::grid(64, 64, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                       /*master_seed=*/2033);
  sim.configure(
      EngineConfig{}.with_round_threads(4).with_telemetry(&registry));
  EngineTestPeer::always_shard(sim.engine());
  if (every_node_busy) {
    std::vector<graph::Vertex> all(g.size());
    for (std::size_t v = 0; v < g.size(); ++v) {
      all[v] = static_cast<graph::Vertex>(v);
    }
    sim.keep_busy(all);
  } else {
    traffic::TrafficSpec tspec;
    tspec.kind = traffic::TrafficSpec::Kind::kPoisson;
    tspec.rate = 0.01 * static_cast<double>(g.size()) /
                 static_cast<double>(params.t_ack_bound());
    sim.add_traffic(
        traffic::build_source(tspec, g.size(), derive_seed(2033, 0x7fcULL)));
  }
  sim.run_rounds(params.t_s + 200);
}

TEST(EngineFusion, FusedStagesKeepTheirOwnProfilerRows) {
  // A grid_sparse-shaped run: each stage of the fused pass keeps a
  // non-zero row of its own, and the stage rows add up to the round time
  // within 5%.  (How the pass is split between the rows is pinned by
  // FusedPassSplitsByStageCost and KnownCostStageKeepsItsCost.)
  obs::Registry registry;
  run_traced_grid(registry, /*every_node_busy=*/false);
  const auto ns = [&](const std::string& name) {
    return registry.counter(name, obs::Domain::kTiming);
  };
  EXPECT_GT(ns("engine.dispatch.sharded"), 0u);
  EXPECT_GT(ns("engine.phase.compute.ns"), 0u);
  EXPECT_GT(ns("engine.phase.receive.ns"), 0u);
  EXPECT_GT(ns("engine.phase.output_flush.ns"), 0u);
  std::uint64_t stages = 0;
  for (const char* stage : {"fault", "transmit", "frontier", "prepare_round",
                            "compute", "receive", "output_flush"}) {
    stages += ns(std::string("engine.phase.") + stage + ".ns");
  }
  const auto round = static_cast<double>(ns("engine.round.ns"));
  EXPECT_NEAR(static_cast<double>(stages) / round, 1.0, 0.05)
      << "stage rows " << stages << " ns, engine.round " << round << " ns";
}

TEST(EngineFusion, FusedPassSplitsByStageCost) {
  // With every node busy no vertex parks.  receive, which hands every
  // listener its verdict, then costs several times what compute (heard
  // words only) and output_flush (one end_round per process) do: about
  // 7x and 5x here.  Giving the whole pass to its first stage (compute)
  // or to its last (output_flush) brings one of those ratios under 2.
  // An even split of the pass is not caught here -- receive's serial work
  // outside the pass alone keeps its row more than twice the others --
  // but is by KnownCostStageKeepsItsCost.
  obs::Registry registry;
  run_traced_grid(registry, /*every_node_busy=*/true);
  const auto ns = [&](const std::string& name) {
    return registry.counter(name, obs::Domain::kTiming);
  };
  EXPECT_GT(ns("engine.dispatch.sharded"), 0u);
  const std::uint64_t compute = ns("engine.phase.compute.ns");
  const std::uint64_t receive = ns("engine.phase.receive.ns");
  const std::uint64_t flush = ns("engine.phase.output_flush.ns");
  EXPECT_GT(compute, 0u);
  EXPECT_GT(flush, 0u);
  EXPECT_GT(receive, 2 * compute);
  EXPECT_GT(receive, 2 * flush);
}

/// A vertex-disjoint test stage of known cost: each block spins for
/// `spin` and adds the time it measured itself to `spent`.
class SpinStage final : public RoundStage {
 public:
  SpinStage(std::chrono::nanoseconds spin, std::uint64_t& spent)
      : spin_(spin), spent_(&spent) {}
  std::string name() const override { return "spin"; }
  SlabSet reads() const override { return 0; }
  SlabSet writes() const override { return 0; }
  bool vertex_disjoint_writes() const override { return true; }
  void run_block(RoundState&, graph::Vertex, graph::Vertex) override {
    const auto start = std::chrono::steady_clock::now();
    auto now = start;
    while (now - start < spin_) now = std::chrono::steady_clock::now();
    *spent_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
            .count());
  }

 private:
  std::chrono::nanoseconds spin_;
  std::uint64_t* spent_;
};

TEST(EngineFusion, KnownCostStageKeepsItsCost) {
  // A stage of known cost in the middle of the fused pass (compute ->
  // receive -> spin -> output_flush) of a grid_sparse-shaped run, which
  // runs as one inline block, so the pass's wall clock is the sum of its
  // segments.  Round by round, the spin stage's row must match the time
  // it measured itself: within 5% in the median round (a preemption
  // between two segments lands in the pass but in no segment, and goes
  // to the stages by share).  An even split of the pass gives it about a
  // quarter of the pass; giving the whole pass to its first stage
  // (compute) or to its last (output_flush) gives it nothing.
  const auto g = graph::grid(64, 64, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                       /*master_seed=*/2034);
  obs::Registry registry;
  sim.configure(
      EngineConfig{}.with_round_threads(1).with_telemetry(&registry));
  std::uint64_t spent = 0;
  EngineTestPeer::insert_stage(
      sim.engine(), "receive",
      std::make_unique<SpinStage>(std::chrono::microseconds(200), spent));
  traffic::TrafficSpec tspec;
  tspec.kind = traffic::TrafficSpec::Kind::kPoisson;
  tspec.rate = 0.01 * static_cast<double>(g.size()) /
               static_cast<double>(params.t_ack_bound());
  sim.add_traffic(
      traffic::build_source(tspec, g.size(), derive_seed(2034, 0x7fcULL)));
  const std::uint64_t& row =
      registry.counter("engine.phase.spin.ns", obs::Domain::kTiming);
  std::vector<double> ratios;
  for (Round t = 0; t < params.t_s + 200; ++t) {
    const std::uint64_t row_before = row, spent_before = spent;
    sim.run_round();
    ASSERT_GT(spent, spent_before);
    ratios.push_back(static_cast<double>(row - row_before) /
                     static_cast<double>(spent - spent_before));
  }
  EXPECT_EQ(registry.counter("engine.dispatch.sharded", obs::Domain::kTiming),
            0u);
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  EXPECT_NEAR(ratios[ratios.size() / 2], 1.0, 0.05)
      << "median round: spin row / its own measured time";
}

}  // namespace
}  // namespace dg::sim
