// Tests for the fault-injection subsystem (src/fault/ + the engine seam):
// schedule determinism (same seed => same event stream), engine semantics
// for crashed vertices (no transmit, no receive, idempotent events),
// crash-abort accounting through the LB stack (in-flight broadcast aborted,
// traffic crash-requeue + re-admission), recovery re-initialization (the
// recovered process acks again), spec-checker fault-window masking (clean
// tallies never shrink; tainted windows land in the degradation ledger),
// the Poisson plan's crash and repair laws, and the shared fault spec
// grammar.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
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

// ---- the Poisson plan's law ----

/// One Poisson run driven like the engine, checking every event against
/// the plan's contract on the way: events carry their round and ascend by
/// vertex, no up vertex recovers, no down vertex crashes again, and the
/// earliest scheduled recovery fires exactly at its round (so, by
/// induction, every one does).  Records per round the up count L at its
/// start and its crashes, and the repair time of every crash of the first
/// `horizon` rounds; the run goes on for `drain` more rounds so those
/// repairs are seen (a repair past 40 means has probability e^-40).
struct PoissonRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rounds;
  std::vector<sim::Round> repairs;
};

PoissonRun drive_poisson(double rate, double mean_repair, std::size_t n,
                         std::uint64_t seed, sim::Round horizon) {
  const auto g = reliable_path(n);
  fault::PoissonFaultPlan plan(rate, mean_repair);
  plan.bind(g, seed);
  Bitmap crashed(n);
  std::vector<sim::Round> crashed_at(n, 0);
  std::vector<fault::FaultEvent> events;
  PoissonRun run;
  const auto drain = static_cast<sim::Round>(40 * mean_repair);
  for (sim::Round t = 1; t <= horizon + drain; ++t) {
    const std::optional<sim::Round> due = plan.next_recovery();
    EXPECT_TRUE(!due || *due >= t) << "overdue recovery at round " << t;
    events.clear();
    plan.plan_round(t, crashed, events);
    const std::uint64_t up = n - crashed.count();
    std::uint64_t crashes = 0;
    bool recovered = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const fault::FaultEvent& ev = events[i];
      EXPECT_EQ(ev.round, t);
      if (i > 0) {
        EXPECT_LT(events[i - 1].vertex, ev.vertex) << "round " << t;
      }
      if (ev.kind == fault::FaultKind::kCrash) {
        EXPECT_FALSE(crashed.test(ev.vertex)) << "round " << t;
        crashed_at[ev.vertex] = t;
        ++crashes;
      } else {
        EXPECT_TRUE(crashed.test(ev.vertex)) << "round " << t;
        if (crashed_at[ev.vertex] <= horizon) {
          run.repairs.push_back(t - crashed_at[ev.vertex]);
        }
        recovered = true;
      }
    }
    EXPECT_EQ(recovered, due && *due == t) << "round " << t;
    for (const fault::FaultEvent& ev : events) {
      if (ev.kind == fault::FaultKind::kCrash) {
        crashed.set(ev.vertex);
      } else {
        crashed.reset(ev.vertex);
      }
    }
    if (t <= horizon) run.rounds.emplace_back(up, crashes);
  }
  return run;
}

/// Crashes per round against Binomial(L, rate/n): the sums of the
/// deviations X = c - Lp and of X^2 - Lpq are martingales, each checked
/// within 5 sigma of zero.
void expect_binomial_crashes(const PoissonRun& run, double p) {
  const double q = 1.0 - p;
  double dev = 0.0, dev_var = 0.0, sq = 0.0, sq_var = 0.0;
  for (const auto& [up, crashes] : run.rounds) {
    const auto L = static_cast<double>(up);
    const double x = static_cast<double>(crashes) - L * p;
    dev += x;
    dev_var += L * p * q;
    sq += x * x - L * p * q;
    // Var(X^2) = mu4 - var^2 = Lpq + (2L^2 - 6L) p^2 q^2.
    sq_var += L * p * q + (2 * L * L - 6 * L) * p * p * q * q;
  }
  EXPECT_GT(dev_var, 1000.0);  // enough crashes to mean something
  EXPECT_LE(std::abs(dev), 5 * std::sqrt(dev_var)) << "mean";
  EXPECT_LE(std::abs(sq), 5 * std::sqrt(sq_var)) << "variance";
}

/// Repair times against max(1, floor(Exp(mean))): the mean, and the
/// frequencies of 1 round, 2 rounds and more than twice the mean, each
/// within 5 sigma.
void expect_floored_exponential(const std::vector<sim::Round>& repairs,
                                double mean) {
  const auto tail = static_cast<sim::Round>(2 * mean);
  // P(d = 1) = P(Exp < 2); P(d = k) = P(k <= Exp < k + 1) for k >= 2.
  const auto cdf = [&](double x) { return 1.0 - std::exp(-x / mean); };
  double m1 = 0.0, m2 = 0.0;
  for (sim::Round k = 1; k < static_cast<sim::Round>(60 * mean); ++k) {
    const double pk = k == 1 ? cdf(2.0) : cdf(k + 1.0) - cdf(k);
    m1 += static_cast<double>(k) * pk;
    m2 += static_cast<double>(k * k) * pk;
  }
  const double N = static_cast<double>(repairs.size());
  ASSERT_GT(N, 1000.0);
  double sum = 0.0, ones = 0.0, twos = 0.0, long_ones = 0.0;
  for (sim::Round d : repairs) {
    ASSERT_GE(d, 1);
    sum += static_cast<double>(d);
    ones += d == 1;
    twos += d == 2;
    long_ones += d > tail;
  }
  EXPECT_LE(std::abs(sum / N - m1), 5 * std::sqrt((m2 - m1 * m1) / N))
      << "mean repair";
  const auto expect_freq = [&](double count, double prob, const char* what) {
    EXPECT_LE(std::abs(count - N * prob), 5 * std::sqrt(N * prob * (1 - prob)))
        << what;
  };
  expect_freq(ones, cdf(2.0), "P(d = 1)");
  expect_freq(twos, cdf(3.0) - cdf(2.0), "P(d = 2)");
  expect_freq(long_ones, 1.0 - cdf(static_cast<double>(tail) + 1.0),
              "P(d > 2 mean)");
}

TEST(FaultPlan, PoissonCrashesAndRepairsFollowTheirLaws) {
  // Dense churn (one vertex in eight crashes each round, about half the
  // network down), then the campaign regime: one crash per round
  // network-wide on 1000 vertices, whose last bitmap word is partial.
  struct Case {
    double rate, mean_repair;
    std::size_t n;
    std::uint64_t seed;
  };
  for (const Case c : {Case{8.0, 6.0, 64, 11}, Case{1.0, 64.0, 1000, 12}}) {
    SCOPED_TRACE(testing::Message() << "rate " << c.rate << " n " << c.n);
    const PoissonRun run = drive_poisson(c.rate, c.mean_repair, c.n, c.seed,
                                         /*horizon=*/20000);
    expect_binomial_crashes(run, c.rate / static_cast<double>(c.n));
    expect_floored_exponential(run.repairs, c.mean_repair);
  }
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
