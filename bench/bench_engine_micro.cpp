// Engine micro-benchmarks (google-benchmark): raw round-execution
// throughput of the simulator substrate.  Not a paper claim -- a regression
// guard for the experiment harness itself.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "traffic/spec.h"

namespace dg {
namespace {

void BM_EngineRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto round_threads = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  graph::GeometricSpec spec;
  spec.n = n;
  spec.side = std::sqrt(static_cast<double>(n)) / 2.5;
  spec.r = 1.5;
  const auto g = graph::random_geometric(spec, rng);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<sim::BernoulliScheduler>(0.5),
                       params, 99);
  sim.configure(sim::EngineConfig{}.with_round_threads(round_threads));
  sim.keep_busy({0});
  for (auto _ : state) {
    sim.run_round();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
// Second arg: round_threads (the deterministic sharding thread cap); the
// per-thread-count series feeds tools/engine_micro_report.py's scaling
// table.  Results are byte-identical across the series -- only time moves.
BENCHMARK(BM_EngineRound)
    ->ArgsProduct({{64, 256, 1024}, {1, 2, 4, 8}});

// Offered-load series: grid topology, offered load at three levels
// (dense = every node kept busy; "1%" / "0.1%" = Poisson arrivals
// calibrated so that fraction of nodes is in the sending state at a time).
// The active_fraction counter reports the mean fraction of 64-vertex
// frontier words touched per round -- the quantity the round's cost
// scales with.  phases_per_seed amortizes the all-nodes SeedAlg preambles
// so steady-state body rounds dominate the series, as they do in long
// campaigns.  Third arg: round_threads, as in BM_EngineRound.
void BM_EngineRoundSparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int load = static_cast<int>(state.range(1));  // 0=dense,1=1%,2=0.1%
  const auto round_threads = static_cast<std::size_t>(state.range(2));
  const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  const auto g = graph::grid(side, side, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.01;
  auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  params.phases_per_seed = 8;
  lb::LbSimulation sim(g, std::make_unique<sim::BernoulliScheduler>(0.5),
                       params, 99);
  obs::Registry registry;
  sim.configure(sim::EngineConfig{}
                    .with_round_threads(round_threads)
                    .with_telemetry(&registry));
  if (load == 0) {
    std::vector<graph::Vertex> all(g.size());
    std::iota(all.begin(), all.end(), 0);
    sim.keep_busy(all);
  } else {
    const double busy_fraction = load == 1 ? 0.01 : 0.001;
    traffic::TrafficSpec tspec;
    tspec.kind = traffic::TrafficSpec::Kind::kPoisson;
    // Each admitted message occupies its sender for ~t_ack_bound rounds, so
    // this arrival rate holds ~busy_fraction * n nodes in the sending state.
    tspec.rate = std::max(busy_fraction * static_cast<double>(g.size()) /
                              static_cast<double>(params.t_ack_bound()),
                          1e-3);
    sim.add_traffic(
        traffic::build_source(tspec, g.size(), derive_seed(99, 0x7fcULL)));
  }
  // Warm past the first SeedAlg preamble (all nodes active every round by
  // construction) so short measurement windows at large n sample the
  // steady-state body mix, not the group prologue.
  sim.run_rounds(params.t_s);
  const std::uint64_t rounds0 =
      registry.counter("engine.rounds", obs::Domain::kLogical);
  const std::uint64_t blocks0 =
      registry.counter("engine.active_blocks", obs::Domain::kTiming);
  for (auto _ : state) {
    sim.run_round();
  }
  const auto rounds = static_cast<double>(
      registry.counter("engine.rounds", obs::Domain::kLogical) - rounds0);
  const auto words_touched = static_cast<double>(
      registry.counter("engine.active_blocks", obs::Domain::kTiming) -
      blocks0);
  const auto words = static_cast<double>((g.size() + 63) / 64);
  state.counters["active_fraction"] =
      rounds > 0 ? words_touched / (rounds * words) : 1.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_EngineRoundSparse)
    ->ArgsProduct({{4096, 65536}, {0, 1, 2}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SchedulerActive(benchmark::State& state) {
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  sim::BernoulliScheduler sched(0.5);
  sched.commit(g, 42);
  sim::Round round = 1;
  for (auto _ : state) {
    for (graph::UnreliableEdgeId e = 0;
         e < static_cast<graph::UnreliableEdgeId>(g.unreliable_edge_count());
         ++e) {
      benchmark::DoNotOptimize(sched.active(e, round));
    }
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.unreliable_edge_count()));
}
BENCHMARK(BM_SchedulerActive);

void BM_SeedBitsTake(benchmark::State& state) {
  SeedBits bits(0x1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.take(7));
  }
}
BENCHMARK(BM_SeedBitsTake);

}  // namespace
}  // namespace dg

BENCHMARK_MAIN();
