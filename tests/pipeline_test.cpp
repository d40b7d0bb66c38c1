// Negative and differential tests for the composable round pipeline:
// the splice grammar (sim/splice.h), the load-time write-set validator,
// the scenario-level "stages" key (scn/scenario.cpp), and the runtime
// contract that spliced stages preserve -- a noop splice is byte-free and
// a dedup splice is byte-identical at every thread count.
//
// The error-message assertions here are deliberately string-y: the
// validator's whole job is an *actionable* rejection (name the stage, the
// slab, the owning core stage, the valid alternatives), so the wording is
// part of the contract the CLIs and scenario loader surface to users.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_peer.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "scn/scenario.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "sim/slab.h"
#include "sim/splice.h"
#include "util/rng.h"

namespace dg::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 3, 8};

SpliceSpec parse_ok(const std::string& text) {
  SpliceSpec spec;
  std::string error;
  const bool ok = parse_splice_spec(text, spec, error);
  EXPECT_TRUE(ok) << text << ": " << error;
  return spec;
}

std::string parse_error(const std::string& text) {
  SpliceSpec spec;
  std::string error;
  EXPECT_FALSE(parse_splice_spec(text, spec, error)) << text;
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

// ---- the splice grammar ----

TEST(SpliceGrammar, AcceptedFormsAndDefaults) {
  const SpliceSpec noop = parse_ok("noop");
  EXPECT_EQ(noop.kind, SpliceSpec::Kind::kNoop);

  const SpliceSpec dedup = parse_ok("dedup");
  EXPECT_EQ(dedup.kind, SpliceSpec::Kind::kDedup);
  EXPECT_EQ(dedup.window, 8u);
  EXPECT_EQ(dedup.mask_slab, Slab::kDeliveryMask);

  EXPECT_EQ(parse_ok("dedup:16").window, 16u);
  EXPECT_EQ(parse_ok("dedup:1:delivery_mask").mask_slab, Slab::kDeliveryMask);

  const SpliceSpec tap = parse_ok("tap:transmit_bitmap:0,5,63");
  EXPECT_EQ(tap.kind, SpliceSpec::Kind::kTap);
  EXPECT_EQ(tap.tap_slab, Slab::kTransmitBitmap);
  EXPECT_EQ(tap.vertices, (std::vector<std::uint32_t>{0, 5, 63}));
  EXPECT_TRUE(parse_ok("tap:heard_words").vertices.empty());
}

TEST(SpliceGrammar, UnknownStageKindListsValidKinds) {
  const std::string error = parse_error("dedupe");
  EXPECT_NE(error.find("unknown stage 'dedupe'"), std::string::npos) << error;
  EXPECT_NE(error.find(valid_splice_kinds()), std::string::npos) << error;
}

TEST(SpliceGrammar, BadDedupWindowIsActionable) {
  for (const char* text : {"dedup:0", "dedup:-3", "dedup:2.5", "dedup:x",
                           "dedup:5000"}) {
    const std::string error = parse_error(text);
    EXPECT_NE(error.find("bad window"), std::string::npos)
        << text << ": " << error;
  }
  EXPECT_NE(parse_error("dedup:4:delivery_mask:9").find("too many arguments"),
            std::string::npos);
}

TEST(SpliceGrammar, UnknownSlabListsValidSlabNames) {
  for (const char* text : {"dedup:4:heard_wordz", "tap:bitmap"}) {
    const std::string error = parse_error(text);
    EXPECT_NE(error.find("unknown slab"), std::string::npos)
        << text << ": " << error;
    EXPECT_NE(error.find(valid_slab_names()), std::string::npos)
        << text << ": " << error;
  }
}

TEST(SpliceGrammar, TapArgumentErrors) {
  EXPECT_NE(parse_error("tap").find("missing slab"), std::string::npos);
  EXPECT_NE(parse_error("tap:packet_slab").find("not tappable"),
            std::string::npos);
  // The frontier's activity mask is engine-internal scratch whose contents
  // are a dispatch decision, not protocol state; it is not tappable.
  EXPECT_NE(parse_error("tap:activity_mask").find("not tappable"),
            std::string::npos);
  EXPECT_NE(parse_error("tap:heard_words:1,x").find("bad vertex 'x'"),
            std::string::npos);
  EXPECT_NE(parse_error("noop:1").find("takes no arguments"),
            std::string::npos);
}

// ---- the write-set validator ----

TEST(SpliceValidator, OverlappingWriteSetsNameBothStagesAndTheSlab) {
  const std::vector<SpliceSpec> specs = {parse_ok("dedup"),
                                         parse_ok("dedup:4")};
  EXPECT_EQ(validate_splice_specs(specs),
            "stages 'dedup' and 'dedup' both write slab(s): delivery_mask");
}

TEST(SpliceValidator, CoreOwnedSlabWriteNamesTheOwner) {
  // A dedup pointed at a core-owned slab must be rejected naming the
  // owning core stage, for each ownership class in the catalog.
  struct Case {
    const char* text;
    const char* slab;
    const char* owner;
  };
  for (const Case& c :
       {Case{"dedup:4:heard_words", "heard_words", "compute"},
        Case{"dedup:4:transmit_bitmap", "transmit_bitmap", "transmit"},
        Case{"dedup:4:crashed_bitmap", "crashed_bitmap", "fault"},
        Case{"dedup:4:activity_mask", "activity_mask", "frontier"}}) {
    const std::vector<SpliceSpec> specs = {parse_ok(c.text)};
    const std::string error = validate_splice_specs(specs);
    EXPECT_NE(error.find(std::string("writes slab '") + c.slab + "'"),
              std::string::npos)
        << c.text << ": " << error;
    EXPECT_NE(error.find(std::string("owned by core stage '") + c.owner + "'"),
              std::string::npos)
        << c.text << ": " << error;
  }
}

TEST(SpliceValidator, ReadOnlyStagesComposeFreely) {
  // Taps and noops write nothing, so any number of them composes with one
  // mask writer.
  const std::vector<SpliceSpec> specs = {
      parse_ok("noop"), parse_ok("tap:transmit_bitmap"),
      parse_ok("tap:heard_words"), parse_ok("dedup:4"),
      parse_ok("tap:crashed_bitmap")};
  EXPECT_EQ(validate_splice_specs(specs), "");
}

// ---- Engine::splice_stage install-time rejection ----

/// Coin-flip transmitter that retransmits ONE fixed packet (same content
/// key every time), so a dedup cache has duplicates to suppress; ledgers
/// deliveries vs null indicators so suppression is process-visible.
class RepeatProcess final : public Process {
 public:
  explicit RepeatProcess(ProcessId id) : Process(id) {}

  std::optional<Packet> transmit(RoundContext& ctx) override {
    if (!ctx.rng().chance(0.5)) return std::nullopt;
    return Packet{id(), DataPayload{MessageId{id(), 1}, id() * 11ULL}};
  }
  void receive(const std::optional<Packet>& packet,
               RoundContext& ctx) override {
    if (packet.has_value() && packet->is_data()) {
      ++deliveries_;
      heard_hash_ = splitmix64(heard_hash_ ^ packet->data().content ^
                               static_cast<std::uint64_t>(ctx.round()));
    } else {
      ++nulls_;
    }
  }
  bool shard_safe() const override { return true; }

  std::uint64_t heard_hash() const noexcept { return heard_hash_; }
  std::uint64_t deliveries() const noexcept { return deliveries_; }
  std::uint64_t nulls() const noexcept { return nulls_; }

 private:
  std::uint64_t deliveries_ = 0;
  std::uint64_t nulls_ = 0;
  std::uint64_t heard_hash_ = 0x9e3779b97f4a7c15ULL;
};

std::vector<std::unique_ptr<Process>> repeat_procs(std::size_t n,
                                                   std::uint64_t id_seed) {
  const auto ids = assign_ids(n, id_seed);
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<RepeatProcess>(ids[v]));
  }
  return procs;
}

TEST(EngineSplice, ConflictingSpliceRejectedAtInstallPipelineUntouched) {
  const auto g = graph::grid(8, 8, 1.0, 1.5);
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, repeat_procs(g.size(), 0x1157ULL), 0x1157);

  EXPECT_EQ(engine.splice_stage(parse_ok("dedup")), "");
  ASSERT_EQ(engine.splices().size(), 1u);

  const std::string error = engine.splice_stage(parse_ok("dedup:4"));
  EXPECT_NE(error.find("both write slab(s): delivery_mask"),
            std::string::npos)
      << error;
  EXPECT_EQ(engine.splices().size(), 1u) << "failed splice must not install";

  engine.run_rounds(8);  // the surviving pipeline still runs
  EXPECT_EQ(engine.round(), 8u);
}

// ---- the scenario-level "stages" key ----

std::string stages_campaign(const std::string& stages_json) {
  return R"({"campaign": "t", "scenarios": [{"name": "s",
      "topology": {"type": "clique", "k": 4},
      "algorithm": {"type": "decay_progress", "log_delta": 4,
                    "horizon_rounds": 64, "receiver": 0},
      "trials": 1, "seed": 7, "stages": )" +
         stages_json + "}]}";
}

TEST(CampaignStages, ValidStagesRoundTrip) {
  const auto p = scn::parse_campaign_text(
      stages_campaign(R"(["noop", "dedup:4", "tap:heard_words"])"),
      "test.json");
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_EQ(p.campaign.variants.size(), 1u);
  EXPECT_EQ(p.campaign.variants[0].stages,
            (std::vector<std::string>{"noop", "dedup:4", "tap:heard_words"}));
}

TEST(CampaignStages, BadStageSpecNamesFileAndElementPath) {
  const auto p = scn::parse_campaign_text(stages_campaign(R"(["dedupe"])"),
                                          "test.json");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("test.json:"), std::string::npos) << p.error;
  EXPECT_NE(p.error.find("scenarios[0].stages[0]"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("unknown stage 'dedupe'"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find(valid_splice_kinds()), std::string::npos) << p.error;
}

TEST(CampaignStages, UnknownSlabInStageSpecIsActionable) {
  const auto p = scn::parse_campaign_text(
      stages_campaign(R"(["tap:heard_wordz"])"), "test.json");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("scenarios[0].stages[0]"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("unknown slab 'heard_wordz'"), std::string::npos)
      << p.error;
}

TEST(CampaignStages, NonStringElementRejected) {
  const auto p = scn::parse_campaign_text(stages_campaign(R"([7])"),
                                          "test.json");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("scenarios[0].stages[0]"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("stage spec must be a string"), std::string::npos)
      << p.error;
}

TEST(CampaignStages, NonArrayStagesRejected) {
  const auto p = scn::parse_campaign_text(stages_campaign(R"("dedup")"),
                                          "test.json");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("an array of stage spec strings"), std::string::npos)
      << p.error;
}

TEST(CampaignStages, ConflictingStagesRejectedAtLoadTime) {
  const auto p = scn::parse_campaign_text(
      stages_campaign(R"(["dedup", "dedup:4"])"), "test.json");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error.find("scenarios[0].stages"), std::string::npos)
      << p.error;
  EXPECT_NE(p.error.find("both write slab(s): delivery_mask"),
            std::string::npos)
      << p.error;
}

// ---- runtime contract: splices across thread counts ----

/// Records every event as a formatted line (same idiom as
/// engine_shard_test.cpp): vectors compare with exact failure positions.
class StreamObserver final : public Observer {
 public:
  const std::vector<std::string>& events() const noexcept { return events_; }
  std::size_t tx_events() const noexcept { return tx_; }

  void on_round_begin(Round round) override {
    line() << "begin " << round;
    push();
  }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override {
    line() << "tx " << round << ' ' << v << ' ' << p.sender;
    ++tx_;
    push();
  }
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet& p) override {
    line() << "rx " << round << ' ' << u << ' ' << from << ' ' << p.sender;
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
  std::ostringstream& line() {
    os_.str("");
    return os_;
  }
  void push() { events_.push_back(os_.str()); }

  std::ostringstream os_;
  std::vector<std::string> events_;
  std::size_t tx_ = 0;
};

struct SplicedRun {
  std::vector<std::string> events;
  std::vector<std::uint64_t> heard;      ///< per-vertex process hash
  std::vector<std::uint64_t> delivered;  ///< per-vertex delivery count
  std::string logical_json;              ///< registry dump, timing excluded
  std::uint64_t suppressed = 0;          ///< stage.dedup.suppressed
  std::size_t tx_events = 0;
};

SplicedRun run_spliced(const graph::DualGraph& g, std::size_t round_threads,
                       const std::vector<std::string>& stages, Round rounds,
                       std::uint64_t master_seed) {
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, repeat_procs(g.size(), master_seed ^ 0x5eedULL),
                master_seed);
  obs::Registry registry;
  EngineConfig config;
  config.with_round_threads(round_threads).with_telemetry(&registry);
  for (const std::string& text : stages) config.with_splice(parse_ok(text));
  engine.configure(config);
  EngineTestPeer::always_shard(engine);

  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(rounds);

  SplicedRun result;
  result.events = stream.events();
  result.tx_events = stream.tx_events();
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    const auto& proc =
        dynamic_cast<const RepeatProcess&>(engine.process(v));
    result.heard.push_back(proc.heard_hash());
    result.delivered.push_back(proc.deliveries());
  }
  result.logical_json = registry.json(/*include_timing=*/false);
  result.suppressed =
      registry.counter("stage.dedup.suppressed", obs::Domain::kLogical);
  return result;
}

TEST(EngineSplice, NoopSpliceIsByteFree) {
  // The CI campaign gate diffs COUNTERS/METRICS for --splice=noop; this is
  // the same property at the engine level, including the observer stream.
  const auto g = graph::grid(12, 12, 1.0, 1.5);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const SplicedRun plain = run_spliced(g, threads, {}, 32, 0xABCD);
    const SplicedRun spliced = run_spliced(g, threads, {"noop"}, 32, 0xABCD);
    EXPECT_EQ(plain.events, spliced.events) << threads << " threads";
    EXPECT_EQ(plain.heard, spliced.heard) << threads << " threads";
    EXPECT_EQ(plain.logical_json, spliced.logical_json)
        << threads << " threads";
  }
}

TEST(EngineSplice, DedupByteIdenticalAcrossThreadCounts) {
  // The dedup stage runs block-parallel in sharded rounds (it declares
  // vertex-disjoint writes); its mask -- and therefore the null-indicator
  // deliveries it forces -- must be byte-identical at every thread count.
  const auto g = graph::grid(16, 16, 1.0, 1.5);  // n=256: 2+ real blocks
  const SplicedRun serial =
      run_spliced(g, 1, {"dedup:6", "tap:heard_words"}, 48, 0xD0D0);
  // RepeatProcess retransmits one fixed packet, so the cache must actually
  // suppress -- otherwise this fixture proves nothing.
  EXPECT_GT(serial.suppressed, 0u);
  EXPECT_NE(serial.logical_json.find("stage.dedup.suppressed"),
            std::string::npos);
  EXPECT_NE(serial.logical_json.find("stage.tap.heard_words"),
            std::string::npos);

  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const SplicedRun sharded =
        run_spliced(g, threads, {"dedup:6", "tap:heard_words"}, 48, 0xD0D0);
    ASSERT_EQ(serial.events.size(), sharded.events.size())
        << threads << " threads";
    for (std::size_t i = 0; i < serial.events.size(); ++i) {
      ASSERT_EQ(serial.events[i], sharded.events[i])
          << threads << " threads, event " << i;
    }
    ASSERT_EQ(serial.heard, sharded.heard) << threads << " threads";
    ASSERT_EQ(serial.delivered, sharded.delivered) << threads << " threads";
    ASSERT_EQ(serial.logical_json, sharded.logical_json)
        << threads << " threads";
  }
}

TEST(EngineSplice, DedupSuppressionIsProcessVisible) {
  // Suppressed deliveries arrive as null indicators: total deliveries with
  // the dedup splice must drop below the unspliced run's, by exactly the
  // suppressed count.
  const auto g = graph::grid(12, 12, 1.0, 1.5);
  const SplicedRun plain = run_spliced(g, 1, {}, 48, 0xFACE);
  const SplicedRun deduped = run_spliced(g, 1, {"dedup:6"}, 48, 0xFACE);
  std::uint64_t plain_total = 0;
  std::uint64_t dedup_total = 0;
  for (const std::uint64_t d : plain.delivered) plain_total += d;
  for (const std::uint64_t d : deduped.delivered) dedup_total += d;
  EXPECT_GT(deduped.suppressed, 0u);
  EXPECT_EQ(plain_total, dedup_total + deduped.suppressed);
}

TEST(EngineSplice, TapCounterMatchesObserverStream) {
  // stage.tap.transmit_bitmap tallies the transmit-bitmap population every
  // round, which is exactly the number of on_transmit events fanned out.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  const SplicedRun run =
      run_spliced(g, 1, {"tap:transmit_bitmap"}, 32, 0xBEEF);
  const SplicedRun sharded =
      run_spliced(g, 8, {"tap:transmit_bitmap"}, 32, 0xBEEF);
  EXPECT_NE(run.logical_json.find("stage.tap.transmit_bitmap"),
            std::string::npos);
  EXPECT_GT(run.tx_events, 0u);
  EXPECT_EQ(run.logical_json, sharded.logical_json);
  // The exact counter value needs direct registry access (run_spliced only
  // keeps the dump), so repeat the serial run with a local registry.
  BernoulliScheduler sched(0.5);
  Engine engine(g, sched, repeat_procs(g.size(), 0xBEEF ^ 0x5eedULL), 0xBEEF);
  obs::Registry registry;
  engine.configure(EngineConfig()
                       .with_telemetry(&registry)
                       .with_splice(parse_ok("tap:transmit_bitmap")));
  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(32);
  EXPECT_EQ(
      registry.counter("stage.tap.transmit_bitmap", obs::Domain::kLogical),
      stream.tx_events());
}

// ---- EngineConfig composition ----

TEST(EngineConfigApi, SplitConfigureMatchesOneCall) {
  // Each piece of a config applies only if set, so configuring the thread
  // cap and the telemetry in two calls equals one combined call.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  const auto run = [&](bool split) {
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, repeat_procs(g.size(), 0xC0FFEEULL), 0xC0FFEE);
    obs::Registry registry;
    if (split) {
      engine.configure(EngineConfig().with_round_threads(3));
      engine.configure(EngineConfig().with_telemetry(&registry));
    } else {
      engine.configure(
          EngineConfig().with_round_threads(3).with_telemetry(&registry));
    }
    EXPECT_EQ(engine.round_threads(), 3u);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(24);
    return std::make_pair(stream.events(),
                          registry.json(/*include_timing=*/false));
  };
  const auto split = run(true);
  const auto combined = run(false);
  EXPECT_EQ(split.first, combined.first);
  EXPECT_EQ(split.second, combined.second);
}

}  // namespace
}  // namespace dg::sim
