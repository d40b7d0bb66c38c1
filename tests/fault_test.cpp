// Tests for the fault-injection subsystem (src/fault/ + the engine seam):
// schedule determinism (same seed => same event stream), engine semantics
// for crashed vertices (no transmit, no receive, idempotent events),
// crash-abort accounting through the LB stack (in-flight broadcast aborted,
// traffic crash-requeue + re-admission), recovery re-initialization (the
// recovered process acks again), spec-checker fault-window masking (clean
// tallies never shrink; tainted windows land in the degradation ledger),
// and the shared fault spec grammar.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "fault/plan.h"
#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"
#include "traffic/source.h"
#include "util/bitmap.h"

namespace dg {
namespace {

using test::reliable_path;
using test::ScriptProcess;
using test::SilentProcess;

// ---- plan schedules ----

/// Replays a plan the way the engine does: serial plan_round calls with the
/// crashed set maintained from the plan's own (non-redundant) events.
std::vector<std::tuple<sim::Round, graph::Vertex, bool>> drive_plan(
    fault::FaultPlan& plan, const graph::DualGraph& g, std::uint64_t seed,
    sim::Round horizon) {
  plan.bind(g, seed);
  Bitmap crashed(g.size());
  std::vector<fault::FaultEvent> events;
  std::vector<std::tuple<sim::Round, graph::Vertex, bool>> log;
  for (sim::Round t = 1; t <= horizon; ++t) {
    events.clear();
    plan.plan_round(t, crashed, events);
    for (const auto& ev : events) {
      const bool crash = ev.kind == fault::FaultKind::kCrash;
      if (crash == crashed.test(ev.vertex)) continue;  // engine idempotence
      if (crash) {
        crashed.set(ev.vertex);
      } else {
        crashed.reset(ev.vertex);
      }
      log.emplace_back(ev.round, ev.vertex, crash);
    }
  }
  return log;
}

TEST(FaultPlan, PoissonScheduleIsSeedDeterministic) {
  const auto g = graph::grid(5, 4, 1.0, 1.5);
  auto run = [&](std::uint64_t seed) {
    fault::PoissonFaultPlan plan(0.5, 10.0);
    return drive_plan(plan, g, seed, 600);
  };
  const auto a = run(7);
  EXPECT_EQ(a, run(7));
  EXPECT_NE(a, run(8));
  // The schedule churns: both crash and recover events occur.
  std::size_t crashes = 0, recoveries = 0;
  for (const auto& [round, v, crash] : a) (crash ? crashes : recoveries)++;
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_LE(recoveries, crashes);
}

TEST(FaultPlan, RegionKillsTheBallAndRecoversItTogether) {
  const auto g = reliable_path(5);  // ball(2, r=1) = {1, 2, 3}
  fault::RegionFaultPlan plan(4, 2, 1, 3);
  const auto log = drive_plan(plan, g, 99, 10);
  const std::vector<std::tuple<sim::Round, graph::Vertex, bool>> expected{
      {4, 1, true},  {4, 2, true},  {4, 3, true},
      {7, 1, false}, {7, 2, false}, {7, 3, false},
  };
  EXPECT_EQ(log, expected);
}

TEST(FaultPlan, AdversaryTargetsTheHighestProgressVertex) {
  const auto g = reliable_path(4);
  fault::AdversaryFaultPlan plan(1, 3, 2);
  plan.bind(g, 5);
  for (int i = 0; i < 3; ++i) plan.note_progress(2);
  plan.note_progress(0);
  Bitmap crashed(g.size());
  std::vector<fault::FaultEvent> events;
  std::vector<std::tuple<sim::Round, graph::Vertex, bool>> log;
  for (sim::Round t = 1; t <= 7; ++t) {
    events.clear();
    plan.plan_round(t, crashed, events);
    for (const auto& ev : events) {
      const bool crash = ev.kind == fault::FaultKind::kCrash;
      if (crash) crashed.set(ev.vertex); else crashed.reset(ev.vertex);
      log.emplace_back(ev.round, ev.vertex, crash);
    }
  }
  // Attack rounds 3 and 6 both pick vertex 2 (3 acks beats 1); it is back
  // up at round 5, in time to be re-targeted.
  const std::vector<std::tuple<sim::Round, graph::Vertex, bool>> expected{
      {3, 2, true}, {5, 2, false}, {6, 2, true}};
  EXPECT_EQ(log, expected);
}

// ---- engine semantics ----

TEST(EngineFaults, CrashedTransmitterFallsSilent) {
  const auto g = reliable_path(2);
  const auto ids = sim::assign_ids(2, 1);
  sim::ConstantScheduler sched(false);
  std::map<sim::Round, std::uint64_t> sends;
  for (sim::Round t = 1; t <= 8; ++t) sends[t] = 10 + t;
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(ids[0], sends));
  procs.push_back(std::make_unique<SilentProcess>(ids[1]));
  sim::Engine engine(g, sched, std::move(procs), 42);
  fault::ScriptFaultPlan plan({{3, 0, fault::FaultKind::kCrash},
                               {5, 0, fault::FaultKind::kRecover}});
  engine.configure(sim::EngineConfig{}.with_fault_plan(&plan));
  engine.run_rounds(8);
  const auto& p1 = dynamic_cast<const SilentProcess&>(engine.process(1));
  std::vector<sim::Round> heard_rounds;
  for (const auto& [round, content] : p1.heard) {
    EXPECT_EQ(content, 10u + static_cast<std::uint64_t>(round));
    heard_rounds.push_back(round);
  }
  EXPECT_EQ(heard_rounds, (std::vector<sim::Round>{1, 2, 5, 6, 7, 8}));
  EXPECT_FALSE(engine.crashed(0));
}

TEST(EngineFaults, CrashedListenerHearsNothing) {
  const auto g = reliable_path(2);
  const auto ids = sim::assign_ids(2, 1);
  sim::ConstantScheduler sched(false);
  std::map<sim::Round, std::uint64_t> sends;
  for (sim::Round t = 1; t <= 6; ++t) sends[t] = 10 + t;
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.push_back(std::make_unique<ScriptProcess>(ids[0], sends));
  procs.push_back(std::make_unique<SilentProcess>(ids[1]));
  sim::Engine engine(g, sched, std::move(procs), 42);
  fault::ScriptFaultPlan plan({{3, 1, fault::FaultKind::kCrash},
                               {4, 1, fault::FaultKind::kRecover}});
  engine.configure(sim::EngineConfig{}.with_fault_plan(&plan));
  engine.run_rounds(6);
  const auto& p1 = dynamic_cast<const SilentProcess&>(engine.process(1));
  std::vector<sim::Round> heard_rounds;
  for (const auto& [round, content] : p1.heard) heard_rounds.push_back(round);
  EXPECT_EQ(heard_rounds, (std::vector<sim::Round>{1, 2, 4, 5, 6}));
}

/// Records the engine's fault callbacks: process hooks and listener, with
/// the listener's crash leg required to precede Process::on_crash.
class FaultProbeProcess final : public sim::Process {
 public:
  explicit FaultProbeProcess(sim::ProcessId id) : sim::Process(id) {}
  std::optional<sim::Packet> transmit(sim::RoundContext&) override {
    return std::nullopt;
  }
  void receive(const std::optional<sim::Packet>&,
               sim::RoundContext&) override {}
  void on_crash(sim::Round round) override { crash_rounds.push_back(round); }
  void on_recover(sim::Round round) override {
    recover_rounds.push_back(round);
  }
  std::vector<sim::Round> crash_rounds, recover_rounds;
};

class CountingListener final : public fault::FaultListener {
 public:
  explicit CountingListener(const FaultProbeProcess* probe) : probe_(probe) {}
  void on_crash(sim::Round round, graph::Vertex v) override {
    crashes.emplace_back(round, v);
    // Ordering contract: the listener sees the pre-crash process (its
    // on_crash has not fired yet), so it can still abort in-flight work.
    EXPECT_LT(probe_->crash_rounds.size(), crashes.size());
  }
  void on_recover(sim::Round round, graph::Vertex v) override {
    recovers.emplace_back(round, v);
    // And the recovery leg talks to an already re-initialized process.
    EXPECT_EQ(probe_->recover_rounds.size(), recovers.size());
  }
  std::vector<std::pair<sim::Round, graph::Vertex>> crashes, recovers;

 private:
  const FaultProbeProcess* probe_;
};

TEST(EngineFaults, RedundantEventsAreIgnoredOnce) {
  const auto g = reliable_path(2);
  const auto ids = sim::assign_ids(2, 1);
  sim::ConstantScheduler sched(false);
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.push_back(std::make_unique<FaultProbeProcess>(ids[0]));
  procs.push_back(std::make_unique<SilentProcess>(ids[1]));
  sim::Engine engine(g, sched, std::move(procs), 42);
  const auto* probe =
      dynamic_cast<const FaultProbeProcess*>(&engine.process(0));
  // Crash twice, recover twice: the redundant second of each pair must be
  // swallowed (plans may emit idempotently).
  fault::ScriptFaultPlan plan({{2, 0, fault::FaultKind::kCrash},
                               {3, 0, fault::FaultKind::kCrash},
                               {5, 0, fault::FaultKind::kRecover},
                               {6, 0, fault::FaultKind::kRecover}});
  CountingListener listener(probe);
  engine.configure(sim::EngineConfig{}.with_fault_plan(&plan, &listener));
  engine.run_rounds(8);
  EXPECT_EQ(probe->crash_rounds, (std::vector<sim::Round>{2}));
  EXPECT_EQ(probe->recover_rounds, (std::vector<sim::Round>{5}));
  const std::vector<std::pair<sim::Round, graph::Vertex>> one_crash{{2, 0}};
  const std::vector<std::pair<sim::Round, graph::Vertex>> one_recover{{5, 0}};
  EXPECT_EQ(listener.crashes, one_crash);
  EXPECT_EQ(listener.recovers, one_recover);
  EXPECT_FALSE(engine.crashed(0));
}

// ---- the LB stack under faults ----

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

TEST(FaultStack, CrashAbortsRequeuesAndTheRecoveredVertexAcksAgain) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 21);
  std::vector<traffic::ScriptSource::Post> posts{{1, 0, 501}, {1, 0, 502}};
  sim->add_traffic(
      std::make_unique<traffic::ScriptSource>(std::move(posts)));
  sim->keep_busy({2});  // a live transmitter for the re-stabilization probe
  fault::ScriptFaultPlan plan({{2, 0, fault::FaultKind::kCrash},
                               {3, 0, fault::FaultKind::kRecover}});
  sim->configure(sim::EngineConfig{}.with_fault_plan(&plan));
  sim->run_phases(12);

  // 501 was in flight at the crash: aborted through the usual path, then
  // crash-requeued at the queue head and re-admitted after recovery.
  const auto& ts = sim->traffic().stats();
  EXPECT_EQ(ts.crash_requeues, 1u);
  EXPECT_EQ(ts.readmitted, 1u);
  EXPECT_GE(ts.aborted, 1u);
  EXPECT_EQ(ts.dropped, 0u);
  const traffic::MessageRecord* first = nullptr;
  const traffic::MessageRecord* second = nullptr;
  for (const auto& rec : sim->traffic().messages()) {
    if (rec.content == 501) first = &rec;
    if (rec.content == 502) second = &rec;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(first->requeued);
  EXPECT_TRUE(first->aborted());
  // Recovery re-init: the resynced process serves the re-admitted message
  // to completion, and the FIFO successor behind it.
  EXPECT_TRUE(first->acked());
  EXPECT_GT(first->ack_round, 3);
  EXPECT_TRUE(second->acked());
  EXPECT_GT(second->admit_round, first->ack_round);

  const auto& led = sim->ledger();
  EXPECT_EQ(led.crashes, 1u);
  EXPECT_EQ(led.recoveries, 1u);
  EXPECT_EQ(led.fault_rounds, 1u);  // down during round 2 only
  EXPECT_GT(led.rounds_observed, led.fault_rounds);
  // Vertex 2 keeps transmitting, so the recovered vertex re-stabilizes.
  EXPECT_EQ(led.restab_count, 1u);
  // The crash-abort is environment-initiated: no spec violation.
  EXPECT_EQ(sim->report().violations, 0u);
  EXPECT_TRUE(sim->report().timely_ack_ok);
}

TEST(FaultChecker, CrashMasksPhaseWindowsIntoTheLedger) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 31);
  sim->keep_busy({0, 1, 2, 3});
  const auto phase_len = sim->params().phase_length();
  // Crash at the first round of phase 2 and stay down: in a clique the
  // taint covers every vertex, so phase 2 contributes no clean trials.
  fault::ScriptFaultPlan plan(
      {{phase_len + 1, 0, fault::FaultKind::kCrash}});
  sim->configure(sim::EngineConfig{}.with_fault_plan(&plan));

  sim->run_phases(1);
  const auto clean_trials = sim->report().progress.trials();
  EXPECT_GT(clean_trials, 0u);
  EXPECT_EQ(sim->ledger().faulty_progress.trials(), 0u);

  sim->run_phases(1);
  EXPECT_EQ(sim->report().progress.trials(), clean_trials);
  EXPECT_GT(sim->ledger().faulty_progress.trials(), 0u);
  EXPECT_EQ(sim->ledger().crashes, 1u);
  EXPECT_EQ(sim->ledger().recoveries, 0u);
  EXPECT_EQ(sim->ledger().fault_rounds,
            static_cast<std::uint64_t>(phase_len));
  EXPECT_EQ(sim->report().violations, 0u);
}

TEST(FaultChecker, NoPlanLeavesTheLedgerUntouched) {
  const auto g = graph::clique_cluster(4);
  auto sim = make_sim(g, 41);
  sim->keep_busy({0, 1});
  sim->run_phases(2);
  const auto& led = sim->ledger();
  EXPECT_EQ(led.crashes, 0u);
  EXPECT_EQ(led.recoveries, 0u);
  EXPECT_EQ(led.fault_rounds, 0u);
  EXPECT_EQ(led.faulty_progress.trials(), 0u);
  EXPECT_EQ(led.faulty_reliability.trials(), 0u);
  EXPECT_EQ(led.restab_count, 0u);
  EXPECT_GT(led.rounds_observed, 0u);
  EXPECT_GT(sim->report().progress.trials(), 0u);
}

// ---- spec grammar ----

TEST(FaultSpec, ParsesEveryKindWithDefaults) {
  fault::FaultSpec s;
  EXPECT_EQ(fault::parse_fault_spec("crash:100:3", s), "");
  EXPECT_EQ(s.kind, fault::FaultSpec::Kind::kCrash);
  EXPECT_EQ(s.round, 100);
  EXPECT_EQ(s.vertex, 3u);
  EXPECT_EQ(s.repair, 0);
  EXPECT_EQ(fault::parse_fault_spec("crash:100:3:50", s), "");
  EXPECT_EQ(s.repair, 50);
  EXPECT_EQ(fault::parse_fault_spec("poisson", s), "");
  EXPECT_EQ(s.kind, fault::FaultSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(s.rate, 0.02);
  EXPECT_DOUBLE_EQ(s.mean_repair, 64.0);
  EXPECT_EQ(fault::parse_fault_spec("poisson:0.1:32", s), "");
  EXPECT_DOUBLE_EQ(s.rate, 0.1);
  EXPECT_DOUBLE_EQ(s.mean_repair, 32.0);
  EXPECT_EQ(fault::parse_fault_spec("region:257:7:2:512", s), "");
  EXPECT_EQ(s.kind, fault::FaultSpec::Kind::kRegion);
  EXPECT_EQ(s.round, 257);
  EXPECT_EQ(s.vertex, 7u);
  EXPECT_EQ(s.radius, 2);
  EXPECT_EQ(s.repair, 512);
  EXPECT_EQ(fault::parse_fault_spec("adversary", s), "");
  EXPECT_EQ(s.kind, fault::FaultSpec::Kind::kAdversary);
  EXPECT_EQ(s.k, 1);
  EXPECT_EQ(s.period, 64);
  EXPECT_EQ(s.repair, 64);
  EXPECT_EQ(fault::parse_fault_spec("adversary:4:128:32", s), "");
  EXPECT_EQ(s.k, 4);
  EXPECT_EQ(s.period, 128);
  EXPECT_EQ(s.repair, 32);
}

TEST(FaultSpec, RejectionsListValidSpecs) {
  fault::FaultSpec s;
  for (const char* bad :
       {"", "crashh:1:0", "crash:0:1", "crash:1", "crash:1:2:3:4",
        "poisson:0", "poisson:2", "poisson:0.5:0.5", "region:1:0",
        "region:1:0:-1", "adversary:0", "adversary:1:0",
        // Integer arguments past 2^31 are rejected, as in the traffic
        // grammar: the double->integer casts would otherwise be undefined.
        "crash:1e20:0", "region:1:0:1e20", "adversary:1e20"}) {
    EXPECT_FALSE(fault::parse_fault_spec(bad, s).empty()) << bad;
  }
  const std::string err = fault::parse_fault_spec("crashh:1:0", s);
  EXPECT_NE(err.find("crash:round:vertex[:repair]"), std::string::npos)
      << err;
  EXPECT_NE(err.find("adversary:k[:period[:repair]]"), std::string::npos)
      << err;
}

TEST(FaultSpec, BuildsTheMatchingPlan) {
  fault::FaultSpec s;
  ASSERT_EQ(fault::parse_fault_spec("crash:5:1:10", s), "");
  EXPECT_STREQ(fault::build_fault_plan(s)->name(), "script");
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.1", s), "");
  EXPECT_STREQ(fault::build_fault_plan(s)->name(), "poisson");
  ASSERT_EQ(fault::parse_fault_spec("region:1:0:1", s), "");
  EXPECT_STREQ(fault::build_fault_plan(s)->name(), "region");
  ASSERT_EQ(fault::parse_fault_spec("adversary:2", s), "");
  EXPECT_STREQ(fault::build_fault_plan(s)->name(), "adversary");
}

}  // namespace
}  // namespace dg
