// Tests for the scenario campaign subsystem (src/scn/): the JSON parser's
// error positions, schema validation (unknown keys, bad channel/scheduler
// specs, empty sweeps, duplicate names -- each with an actionable
// message), matrix expansion (cross product, tags, additive seed offsets,
// dotted-path patches), runner determinism across thread counts, and
// equivalence of the declarative workloads with the direct library calls
// they subsumed.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "graph/generators.h"
#include "lb/measure.h"
#include "scn/campaign.h"
#include "scn/json.h"
#include "scn/scenario.h"
#include "scn/workload.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace dg::scn {
namespace {

// ---- JSON parser ----

TEST(Json, ParsesScalarsArraysObjects) {
  json::Value v;
  const auto err = json::parse(
      R"({"a": 1, "b": [true, null, -2.5e1], "c": {"d": "x\ny"}})", v);
  ASSERT_TRUE(err.ok()) << err.message;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.0);
  const auto& b = v.find("b")->items();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b[0].as_bool());
  EXPECT_EQ(b[1].kind(), json::Value::Kind::null);
  EXPECT_DOUBLE_EQ(b[2].as_number(), -25.0);
  EXPECT_EQ(v.find("c")->find("d")->as_string(), "x\ny");
}

TEST(Json, ReportsLineAndColumn) {
  json::Value v;
  const auto err = json::parse("{\n  \"a\": 1\n  \"b\": 2\n}", v);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.line, 3u);  // the missing-comma position
  EXPECT_NE(err.message.find("','"), std::string::npos);
}

TEST(Json, RejectsDuplicateKeys) {
  json::Value v;
  const auto err = json::parse(R"({"a": 1, "a": 2})", v);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.message.find("duplicate object key 'a'"),
            std::string::npos);
}

TEST(Json, RejectsTrailingContent) {
  json::Value v;
  EXPECT_FALSE(json::parse("{} x", v).ok());
  EXPECT_FALSE(json::parse("", v).ok());
}

TEST(Json, NestingIsCappedWithAPositionedError) {
  json::Value v;
  const std::string ok_text =
      std::string(json::kMaxDepth, '[') + std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::parse(ok_text, v).ok());

  const std::string deeper = "[" + ok_text + "]";
  auto err = json::parse(deeper, v);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.line, 1u);
  EXPECT_EQ(err.col, json::kMaxDepth + 1);  // the first '[' past the cap
  EXPECT_NE(err.message.find("nesting deeper than"), std::string::npos)
      << err.message;

  // The hostile file that used to overflow the stack: 200 000 '['.  It
  // fails with the usual file:line:col.
  const CampaignParse deep =
      parse_campaign_text(std::string(200'000, '['), "deep.json");
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.error.rfind("deep.json:1:257: nesting deeper than", 0), 0u)
      << deep.error;
  // Objects count toward the same cap.
  err = json::parse("{\"a\": " + std::string(300, '['), v);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.col, 7u + json::kMaxDepth - 1);
}

TEST(Json, ValuesRememberPositions) {
  json::Value v;
  ASSERT_TRUE(json::parse("{\n  \"k\": 7\n}", v).ok());
  const json::Value* k = v.find("k");
  EXPECT_EQ(k->line(), 2u);
  EXPECT_EQ(k->col(), 8u);
}

TEST(Json, FormatNumberIntegersBareDoublesRoundTrip) {
  EXPECT_EQ(json::format_number(42.0), "42");
  EXPECT_EQ(json::format_number(-3.0), "-3");
  EXPECT_EQ(json::format_number(0.0), "0");
  for (double d : {0.1, 1.0 / 3.0, 2.5, 1e-9, 123456.789}) {
    const std::string s = json::format_number(d);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), d) << s;
  }
}

TEST(Json, SetPathCreatesAndReplaces) {
  json::Value v = json::Value::make_object();
  EXPECT_TRUE(v.set_path("topology.k", json::Value::make_number(8)));
  EXPECT_DOUBLE_EQ(v.find("topology")->find("k")->as_number(), 8.0);
  EXPECT_TRUE(v.set_path("topology.k", json::Value::make_number(9)));
  EXPECT_DOUBLE_EQ(v.find("topology")->find("k")->as_number(), 9.0);
  // Stepping through a non-object fails.
  EXPECT_FALSE(v.set_path("topology.k.deep", json::Value::make_number(1)));
}

// ---- campaign schema validation ----

CampaignParse parse(const std::string& text) {
  return parse_campaign_text(text, "test.json");
}

std::string minimal_scenario(const std::string& extra = "") {
  return R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "lb_progress", "senders": [1], "receiver": 0},
      "trials": 2, "seed": 7)" +
         extra + "}]}";
}

TEST(CampaignSchema, MinimalScenarioParses) {
  const auto p = parse(minimal_scenario());
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_EQ(p.campaign.variants.size(), 1u);
  const ScenarioSpec& s = p.campaign.variants[0];
  EXPECT_EQ(s.name, "s");
  EXPECT_EQ(s.topology.k, 4u);
  EXPECT_EQ(s.trials, 2u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.scheduler, "bernoulli:0.5");  // default
  EXPECT_FALSE(s.channel_spec.is_sinr);
}

TEST(CampaignSchema, UnknownScenarioKeyIsActionable) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4}, "trils": 3}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("unknown key 'trils'"), std::string::npos);
  EXPECT_NE(p.error.find("valid keys:"), std::string::npos);
  EXPECT_NE(p.error.find("trials"), std::string::npos);  // suggestion list
  EXPECT_NE(p.error.find("scenarios[0]"), std::string::npos);
  EXPECT_NE(p.error.find("test.json:"), std::string::npos);
}

TEST(CampaignSchema, UnknownTopologyKeyNamesThePath) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4, "sides": 2}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("scenarios[0].topology"), std::string::npos);
  EXPECT_NE(p.error.find("unknown key 'sides'"), std::string::npos);
}

TEST(CampaignSchema, BadChannelSpecsAreActionable) {
  for (const char* chan : {"laser", "sinr:x", "sinr:1,2,3,4", "sinr:0,2,1",
                           "sinr:3,0.5,1"}) {
    const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
        "topology": {"type": "geometric", "n": 8, "side": 2.0},
        "channel": ")" +
                         std::string(chan) + R"("}]})");
    ASSERT_FALSE(p.ok()) << chan;
    EXPECT_NE(p.error.find("scenarios[0].channel"), std::string::npos)
        << p.error;
  }
}

TEST(CampaignSchema, BadSchedulerSpecsAreActionable) {
  for (const char* sched :
       {"bernouli:0.5", "bernoulli:1.5", "flicker:4:9", "burst:0:0.5",
        "anti:0", "bernoulli:0.5:1"}) {
    const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
        "topology": {"type": "clique", "k": 4},
        "scheduler": ")" +
                         std::string(sched) + R"("}]})");
    ASSERT_FALSE(p.ok()) << sched;
    EXPECT_NE(p.error.find("scenarios[0].scheduler"), std::string::npos)
        << p.error;
  }
}

TEST(CampaignSchema, EmptySweepAxisIsAnError) {
  const auto p = parse(minimal_scenario(R"(, "matrix": {"delta": []})"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("empty sweep axis"), std::string::npos);
  EXPECT_NE(p.error.find("matrix.delta"), std::string::npos);
}

TEST(CampaignSchema, DuplicateScenarioNamesAreAnError) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [
      {"name": "s", "topology": {"type": "clique", "k": 4}},
      {"name": "s", "topology": {"type": "clique", "k": 8}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("duplicate scenario name 's'"), std::string::npos);
}

TEST(CampaignSchema, DuplicateAxisTagsAreAnError) {
  const auto p = parse(minimal_scenario(
      R"(, "matrix": {"delta": [
          {"tag": "a", "set": {"topology.k": 4}},
          {"tag": "a", "set": {"topology.k": 8}}]})"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("duplicate tag 'a'"), std::string::npos);
}

TEST(CampaignSchema, WorkloadTopologyMismatchesAreErrors) {
  // deployment topology needs abstraction_fidelity.
  auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "deployment", "n": 8, "side": 2.0},
      "algorithm": {"type": "lb_progress"}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("deployment"), std::string::npos);

  // abstraction_fidelity needs an SINR channel.
  p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "deployment", "n": 8, "side": 2.0},
      "algorithm": {"type": "abstraction_fidelity"}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("sinr"), std::string::npos);

  // SINR reception needs an embedded topology.
  p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4}, "channel": "sinr"}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("embedded topology"), std::string::npos);
}

TEST(CampaignSchema, VertexBoundsAreChecked) {
  auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "lb_progress", "receiver": 4}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("receiver 4 out of range"), std::string::npos);

  p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "lb_progress", "senders": [9]}}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("sender 9 out of range"), std::string::npos);
}

TEST(CampaignSchema, TrialsMustBePositiveIntegers) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4}, "trials": 0}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("trials"), std::string::npos);
}

// ---- matrix expansion ----

TEST(CampaignExpansion, CrossProductOrderTagsAndSeeds) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "trials": 1, "seed": 100,
      "matrix": {
        "a": [{"tag": "x", "seed_offset": 1, "set": {"topology.k": 5}},
              {"tag": "y", "seed_offset": 2, "set": {"topology.k": 6}}],
        "b": [{"tag": "p", "seed_offset": 10},
              {"tag": "q", "seed_offset": 20,
               "set": {"scheduler": "full-g"}}]
      }}]})");
  ASSERT_TRUE(p.ok()) << p.error;
  const auto& vs = p.campaign.variants;
  ASSERT_EQ(vs.size(), 4u);
  // Declaration order, last axis fastest.
  EXPECT_EQ(vs[0].name, "s/x/p");
  EXPECT_EQ(vs[1].name, "s/x/q");
  EXPECT_EQ(vs[2].name, "s/y/p");
  EXPECT_EQ(vs[3].name, "s/y/q");
  // Offsets add across axes on top of the base seed.
  EXPECT_EQ(vs[0].seed, 111u);
  EXPECT_EQ(vs[1].seed, 121u);
  EXPECT_EQ(vs[2].seed, 112u);
  EXPECT_EQ(vs[3].seed, 122u);
  // Patches land; unpatched fields keep the base value.
  EXPECT_EQ(vs[0].topology.k, 5u);
  EXPECT_EQ(vs[2].topology.k, 6u);
  EXPECT_EQ(vs[0].scheduler, "bernoulli:0.5");
  EXPECT_EQ(vs[1].scheduler, "full-g");
}

TEST(CampaignExpansion, PatchedValuesAreValidated) {
  // A matrix patch writing garbage is caught by the same schema pass.
  const auto p = parse(minimal_scenario(
      R"(, "matrix": {"a": [{"tag": "x", "set": {"topology.k": "big"}}]})"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("'k'"), std::string::npos);
  EXPECT_NE(p.error.find("{a=x}"), std::string::npos);  // variant path
}

// ---- runner ----

Campaign tiny_campaign() {
  const auto p = parse(R"({"campaign": "tiny", "scenarios": [
      {"name": "progress",
       "topology": {"type": "clique", "k": 4},
       "algorithm": {"type": "lb_progress", "r": 1.5, "senders": [1],
                     "receiver": 0, "horizon_phases": 4},
       "trials": 4, "seed": 231,
       "matrix": {"d": [{"tag": "4", "seed_offset": 0},
                        {"tag": "8", "seed_offset": 4,
                         "set": {"topology.k": 8}}]}},
      {"name": "seed_check",
       "topology": {"type": "grid", "cols": 3, "rows": 3},
       "scheduler": "full-gprime",
       "algorithm": {"type": "seed_agreement"},
       "trials": 3, "seed": 5}]})");
  EXPECT_TRUE(p.ok()) << p.error;
  return p.campaign;
}

TEST(CampaignRunner, CountersAreByteIdenticalAcrossThreadCounts) {
  const Campaign c = tiny_campaign();
  RunOptions one;
  one.threads = 1;
  RunOptions many;
  many.threads = 4;
  const std::string a = counters_json(run_campaign(c, one));
  const std::string b = counters_json(run_campaign(c, many));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"per_trial\""), std::string::npos);
}

TEST(CampaignRunner, CountersAreByteIdenticalAcrossRoundThreads) {
  // The sharded-round analogue of the trial-thread guarantee: forcing the
  // engine's round_threads onto every variant must not move a single
  // counter byte (the sharded loop replays observers serially in vertex
  // order, so the per-trial metrics are identical).
  const Campaign c = tiny_campaign();
  RunOptions serial;
  serial.threads = 1;
  serial.round_threads = 1;
  RunOptions sharded;
  sharded.threads = 1;
  sharded.round_threads = 8;
  const std::string a = counters_json(run_campaign(c, serial));
  const std::string b = counters_json(run_campaign(c, sharded));
  EXPECT_EQ(a, b);
}

TEST(ScenarioSchema, RoundThreadsValueValidation) {
  // The shared flag grammar for dglab/dgcampaign --round-threads: digits
  // only, >= 1 ("run serial" is spelled 1, not 0).
  std::size_t out = 0;
  EXPECT_EQ(validate_round_threads_value("1", out), "");
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(validate_round_threads_value("8", out), "");
  EXPECT_EQ(out, 8u);
  for (const char* bad : {"", "0", "-3", "4x", "x", " 2", "+2"}) {
    std::size_t ignored = 0;
    EXPECT_NE(validate_round_threads_value(bad, ignored), "") << bad;
  }
}

TEST(ScenarioSchema, RoundThreadsKeyParsesAndRejectsZero) {
  const auto ok = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "seed_agreement"},
      "trials": 1, "seed": 7, "round_threads": 4}]})");
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.campaign.variants[0].round_threads, 4u);

  const auto absent = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "seed_agreement"},
      "trials": 1, "seed": 7}]})");
  ASSERT_TRUE(absent.ok()) << absent.error;
  EXPECT_EQ(absent.campaign.variants[0].round_threads, 0u);  // engine default

  const auto zero = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "seed_agreement"},
      "trials": 1, "seed": 7, "round_threads": 0}]})");
  EXPECT_FALSE(zero.ok());
}

TEST(CampaignRunner, FilterAndMaxTrials) {
  const Campaign c = tiny_campaign();
  RunOptions options;
  options.threads = 2;
  options.filter = "seed_check";
  options.max_trials = 2;
  const auto result = run_campaign(c, options);
  ASSERT_EQ(result.variants.size(), 1u);
  EXPECT_EQ(result.variants[0].spec.name, "seed_check");
  EXPECT_EQ(result.variants[0].trials.size(), 2u);
  // The clamped prefix equals the unclamped run's first trials (same
  // seeds), so reduced nightly runs stay comparable per trial.
  RunOptions full;
  full.threads = 2;
  full.filter = "seed_check";
  const auto all = run_campaign(c, full);
  EXPECT_EQ(all.variants[0].trials[0], result.variants[0].trials[0]);
  EXPECT_EQ(all.variants[0].trials[1], result.variants[0].trials[1]);
}

TEST(CampaignRunner, LbProgressMatchesDirectLibraryCall) {
  // The declarative lb_progress workload must reproduce the direct
  // lb::progress_latency measurement from the same seeds -- the bench
  // porting guarantee (E3's trial body, one sweep point).
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "e3",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "lb_progress", "eps1": 0.1, "r": 1.5,
                    "ack_scale": 0.02, "senders": [1], "receiver": 0,
                    "horizon_phases": 12},
      "trials": 3, "seed": 231}]})");
  ASSERT_TRUE(p.ok()) << p.error;
  RunOptions options;
  options.threads = 2;
  const auto result = run_campaign(p.campaign, options);
  ASSERT_EQ(result.variants.size(), 1u);
  const auto& trials = result.variants[0].trials;
  ASSERT_EQ(trials.size(), 3u);

  const auto g = graph::clique_cluster(4);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  for (std::size_t t = 0; t < 3; ++t) {
    const auto latency = lb::progress_latency(
        g, std::make_unique<sim::BernoulliScheduler>(0.5), params, {1}, 0,
        12, derive_seed(231, t));
    EXPECT_DOUBLE_EQ(trials[t][0], static_cast<double>(latency)) << t;
    EXPECT_DOUBLE_EQ(trials[t][1],
                     static_cast<double>(params.phase_length()));
  }
}

TEST(CampaignReports, SanitizeAndShapes) {
  EXPECT_EQ(sanitize_filename("e6/decay/anti"), "e6_decay_anti");
  EXPECT_EQ(sanitize_filename("ok_name-1.2"), "ok_name-1.2");

  const Campaign c = tiny_campaign();
  RunOptions options;
  options.threads = 2;
  const auto result = run_campaign(c, options);
  const std::string report =
      variant_report_json(result.variants[0], "testsha");
  EXPECT_NE(report.find("\"elapsed_ms\""), std::string::npos);
  EXPECT_NE(report.find("\"git_sha\": \"testsha\""), std::string::npos);
  EXPECT_NE(report.find("\"columns\": [\"trial\""), std::string::npos);
  const std::string rollup = rollup_json(result, "testsha");
  EXPECT_NE(rollup.find("\"campaign\": \"tiny\""), std::string::npos);
  EXPECT_NE(rollup.find("\"variant_count\": 3"), std::string::npos);
}

TEST(CampaignReports, ObsVariantReportEmbedsTimingDomain) {
  const auto p = parse(R"({"campaign": "o", "scenarios": [
      {"name": "progress",
       "topology": {"type": "clique", "k": 4},
       "algorithm": {"type": "lb_progress", "r": 1.5, "senders": [1],
                     "receiver": 0, "horizon_phases": 2},
       "trials": 2, "seed": 231, "obs": true}]})");
  ASSERT_TRUE(p.ok()) << p.error;
  const auto result = run_campaign(p.campaign, RunOptions{});
  const std::string report =
      variant_report_json(result.variants[0], "testsha");
  EXPECT_NE(report.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(report.find("\"timing\": {"), std::string::npos);
  EXPECT_NE(report.find("\"engine.dispatch.pool_jobs\""), std::string::npos);
  // Without obs there is no registry to embed.
  const auto plain = run_campaign(tiny_campaign(), RunOptions{});
  EXPECT_EQ(variant_report_json(plain.variants[0], "testsha").find(
                "\"metrics\": {"),
            std::string::npos);
}

TEST(SchedulerSpecs, AllValidKindsBuild) {
  for (const char* spec :
       {"bernoulli:0.5", "bernoulli:0", "bernoulli:1", "full-g",
        "full-gprime", "flicker:8:4", "burst:16:0.5", "anti",
        "anti:7:0.0625"}) {
    EXPECT_EQ(validate_scheduler_spec(spec), "") << spec;
    EXPECT_NE(build_scheduler(spec), nullptr) << spec;
  }
}

// ---- the traffic axis ----

std::string traffic_scenario(const std::string& traffic,
                             const std::string& algo_extra = "") {
  return R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "traffic": ")" +
         traffic +
         R"(",
      "algorithm": {"type": "traffic_latency", "horizon_phases": 2)" +
         algo_extra + R"(},
      "trials": 1, "seed": 7}]})";
}

TEST(TrafficAxis, ParsesAndRunsEveryKind) {
  for (const char* spec :
       {"saturate:2", "poisson:0.5", "burst:8:2:1", "hotspot:0.5:0.5:1"}) {
    const auto p = parse(traffic_scenario(spec));
    ASSERT_TRUE(p.ok()) << spec << ": " << p.error;
    const ScenarioSpec& s = p.campaign.variants[0];
    EXPECT_EQ(s.traffic, spec);
    const auto names = metric_names(s);
    const auto row = run_trial(s, 123);
    ASSERT_EQ(row.size(), names.size()) << spec;
    EXPECT_EQ(names.front(), "offered");
    EXPECT_EQ(row, run_trial(s, 123)) << "trial must be seed-deterministic";
  }
}

TEST(TrafficAxis, BadSpecsAreActionable) {
  const auto p = parse(traffic_scenario("poison:0.5"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("unknown traffic 'poison'"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("saturate[:count]"), std::string::npos) << p.error;
  EXPECT_NE(p.error.find(".traffic"), std::string::npos) << p.error;
}

TEST(TrafficAxis, TrafficLatencyNeedsATrafficSpec) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "traffic_latency"},
      "trials": 1, "seed": 7}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("needs a \"traffic\" spec"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("poisson:rate"), std::string::npos) << p.error;
}

TEST(TrafficAxis, OtherWorkloadsRejectTrafficListingValidKinds) {
  const auto p = parse(minimal_scenario(R"(, "traffic": "poisson:0.5")"));
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("only consumed by algorithm 'traffic_latency'"),
            std::string::npos)
      << p.error;
  // The rejection lists every valid workload kind (the actionable style).
  for (const char* kind :
       {"lb_progress", "decay_progress", "seed_agreement",
        "seed_then_progress", "abstraction_fidelity", "traffic_latency"}) {
    EXPECT_NE(p.error.find(kind), std::string::npos) << kind;
  }
}

TEST(TrafficAxis, UnknownAlgorithmListsTrafficLatency) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "traffic_latncy"},
      "trials": 1, "seed": 7}]})");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("unknown algorithm type"), std::string::npos);
  EXPECT_NE(p.error.find("traffic_latency"), std::string::npos) << p.error;
}

TEST(TrafficAxis, VertexBoundsAreChecked) {
  {
    const auto p = parse(traffic_scenario("saturate:9"));
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("9 sender(s)"), std::string::npos) << p.error;
    EXPECT_NE(p.error.find("4 vertices"), std::string::npos) << p.error;
  }
  {
    const auto p = parse(traffic_scenario("hotspot:0.5:0.5:4"));
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("hot vertex 4 out of range"), std::string::npos)
        << p.error;
  }
}

TEST(TrafficAxis, SweepableInMatrixAxes) {
  const auto p = parse(R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "traffic": "poisson:0.1",
      "algorithm": {"type": "traffic_latency", "horizon_phases": 2},
      "trials": 1, "seed": 7,
      "matrix": {"load": [
        {"tag": "lo", "seed_offset": 1, "set": {"traffic": "poisson:0.1"}},
        {"tag": "hi", "seed_offset": 2, "set": {"traffic": "saturate:2"}}
      ]}}]})");
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_EQ(p.campaign.variants.size(), 2u);
  EXPECT_EQ(p.campaign.variants[0].traffic, "poisson:0.1");
  EXPECT_EQ(p.campaign.variants[1].traffic, "saturate:2");
  EXPECT_EQ(p.campaign.variants[1].seed, 9u);
}

}  // namespace
}  // namespace dg::scn
