// dgcampaign -- driver for declarative scenario campaigns (src/scn/).
//
//   dgcampaign run      <campaign.json | dir> [--flags]   execute + reports
//   dgcampaign list     <campaign.json | dir> [--filter=] expanded variants
//   dgcampaign validate <campaign.json | dir>...          parse/schema check
//
// Flags:
//   --threads=N     trial worker cap, N >= 1 (omit the flag to use hardware
//                   concurrency; an explicit 0 is rejected).  Changes
//                   scheduling only: the counters artifact is byte-identical
//                   for any value (stats::run_trials derives per-trial seeds
//                   from the trial index, never the worker).
//   --filter=SUBSTR run/list only variants whose name contains SUBSTR
//   --max-trials=N  clamp per-variant trial counts (nightly CI reduction)
//   --round-threads=N  force the engine's sharded-round thread cap onto
//                   every variant, N >= 1 (omit to honor each variant's
//                   spec / the DG_ROUND_THREADS default).  Like --threads
//                   this never moves results: counters are byte-identical
//                   at every value.
//   --splice=SPEC   splice an extra stage into every variant's round
//                   pipeline, after any stages the variant declares (see
//                   sim/splice.h: noop | dedup[:window[:slab]] |
//                   tap:slab[:v1,...]).  Validated up front; a write-set
//                   conflict with a variant's own stages names the variant
//                   and exits 2.
//   --out=DIR       report directory (default bench_out); per variant
//                   SCN_<variant>.json, plus COUNTERS_<campaign>.json (the
//                   seed-deterministic gating file) and
//                   CAMPAIGN_<campaign>.json (roll-up)
//   --quiet         suppress progress lines
//
// A directory argument expands to every *.json directly inside it (sorted;
// subdirectories like campaigns/golden/ are not descended into).
//
// Exit status: 0 ok; 1 execution/write failure; 2 usage or validation
// error.  Unknown --flags are rejected.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "scn/campaign.h"
#include "scn/scenario.h"
#include "scn/workload.h"
#include "sim/splice.h"

namespace {

using namespace dg;

struct FlagInfo {
  const char* name;
  bool takes_value;
};
constexpr FlagInfo kValidFlags[] = {
    {"threads", true},   {"filter", true}, {"max-trials", true},
    {"round-threads", true}, {"splice", true}, {"out", true},
    {"quiet", false},
};

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const auto eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      const auto* info =
          std::find_if(std::begin(kValidFlags), std::end(kValidFlags),
                       [&](const FlagInfo& f) { return key == f.name; });
      if (info == std::end(kValidFlags)) {
        errors_.push_back("unknown flag '" + arg + "'");
        continue;
      }
      if (info->takes_value && eq == std::string::npos) {
        // Catch "--out DIR": the space form would silently drop the value
        // and misread DIR as a campaign path.
        errors_.push_back("flag '" + arg + "' needs a value (--" + key +
                          "=...)");
        continue;
      }
      values_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
      // Numeric flags are validated here so a typo like --threads=4x
      // errors instead of silently parsing as 0.
      if (key == "threads" || key == "max-trials") {
        const std::string& v = values_[key];
        char* end = nullptr;
        const auto parsed = std::strtoull(v.c_str(), &end, 10);
        // strtoull legally wraps "-1" to ULLONG_MAX; the leading '-'
        // check keeps negatives in the rejection path.
        if (v.empty() || v[0] == '-' || end == nullptr || *end != '\0') {
          errors_.push_back("flag '--" + key +
                            "' needs a non-negative integer; got '" + v +
                            "'");
        } else if (key == "threads" && parsed == 0) {
          // An explicit 0 is almost always a typo'd worker count; the
          // "use hardware concurrency" spelling is omitting the flag.
          errors_.push_back(
              "flag '--threads' needs a worker count >= 1; omit the flag "
              "to use hardware concurrency");
        }
      } else if (key == "round-threads") {
        // Shared validator (scn/scenario.h) so dglab rejects identically.
        std::size_t parsed = 0;
        const std::string err =
            scn::validate_round_threads_value(values_[key], parsed);
        if (!err.empty()) errors_.push_back("flag '--round-threads': " + err);
      } else if (key == "splice") {
        // Shared grammar (sim/splice.h) so dglab rejects identically.
        sim::SpliceSpec spec;
        std::string err;
        if (!sim::parse_splice_spec(values_[key], spec, err)) {
          errors_.push_back("flag '--splice': " + err);
        }
      }
    }
  }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  std::uint64_t uint(const std::string& key, std::uint64_t dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

/// Expands a positional argument: a file names itself; a directory names
/// every *.json directly inside it, sorted for stable run order.
std::vector<std::string> expand_paths(const std::string& arg) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  if (fs::is_directory(arg)) {
    for (const auto& entry : fs::directory_iterator(arg)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        out.push_back(entry.path().string());
      }
    }
    std::sort(out.begin(), out.end());
  } else {
    out.push_back(arg);
  }
  return out;
}

const char* git_sha() {
#ifdef DG_GIT_SHA
  return DG_GIT_SHA;
#else
  return "unknown";
#endif
}

int cmd_validate(const std::vector<std::string>& args) {
  bool all_ok = true;
  for (const std::string& arg : args) {
    for (const std::string& path : expand_paths(arg)) {
      const auto parsed = scn::parse_campaign_file(path);
      if (parsed.ok()) {
        std::cout << path << ": OK (campaign '" << parsed.campaign.name
                  << "', " << parsed.campaign.variants.size()
                  << " variants)\n";
      } else {
        std::cout << parsed.error << "\n";
        all_ok = false;
      }
    }
  }
  return all_ok ? 0 : 2;
}

int cmd_list(const std::vector<std::string>& args, const Flags& flags) {
  const std::string filter = flags.str("filter", "");
  std::size_t matched = 0;
  for (const std::string& arg : args) {
    for (const std::string& path : expand_paths(arg)) {
      const auto parsed = scn::parse_campaign_file(path);
      if (!parsed.ok()) {
        std::cerr << parsed.error << "\n";
        return 2;
      }
      std::cout << path << ": campaign '" << parsed.campaign.name << "'\n";
      for (const auto& v : parsed.campaign.variants) {
        if (!filter.empty() && v.name.find(filter) == std::string::npos) {
          continue;
        }
        ++matched;
        std::cout << "  " << v.name << ": " << v.topology.type << " x "
                  << v.scheduler << " x " << v.channel << " x "
                  << v.algorithm.type << ", trials " << v.trials << ", seed "
                  << v.seed << "\n";
      }
    }
  }
  // An over-narrow filter must not look like an empty-but-healthy listing
  // (the same zero-match policy as `run`): a typo like --filter=e3_progess
  // would otherwise exit 0 with nothing listed.
  if (!filter.empty() && matched == 0) {
    std::cerr << "dgcampaign: no variants matched filter '" << filter
              << "'\n";
    return 1;
  }
  return 0;
}

int cmd_run(const std::vector<std::string>& args, const Flags& flags) {
  scn::RunOptions options;
  options.threads = static_cast<std::size_t>(flags.uint("threads", 0));
  options.filter = flags.str("filter", "");
  options.max_trials = static_cast<std::size_t>(flags.uint("max-trials", 0));
  options.round_threads =
      static_cast<std::size_t>(flags.uint("round-threads", 0));
  options.splice = flags.str("splice", "");
  if (!flags.flag("quiet")) options.progress = &std::cout;
  const std::string out_dir = flags.str("out", "bench_out");

  for (const std::string& arg : args) {
    for (const std::string& path : expand_paths(arg)) {
      const auto parsed = scn::parse_campaign_file(path);
      if (!parsed.ok()) {
        std::cerr << parsed.error << "\n";
        return 2;
      }
      if (!options.splice.empty()) {
        // The forced stage must compose with every variant's own stages:
        // re-validate each variant with it appended, so a conflict dies
        // here, naming the variant, instead of contract-aborting
        // mid-campaign.
        for (scn::ScenarioSpec v : parsed.campaign.variants) {
          v.stages.push_back(options.splice);
          const scn::ScenarioError err = scn::validate_scenario(v);
          if (!err.ok()) {
            std::cerr << "dgcampaign: --splice=" << options.splice
                      << " conflicts with variant '" << v.name
                      << "': " << err.message << "\n";
            return 2;
          }
        }
      }
      if (!flags.flag("quiet")) {
        std::cout << path << ": campaign '" << parsed.campaign.name
                  << "'\n";
      }
      const auto result = scn::run_campaign(parsed.campaign, options);
      if (result.variants.empty()) {
        std::cerr << "dgcampaign: no variants matched"
                  << (options.filter.empty()
                          ? ""
                          : " filter '" + options.filter + "'")
                  << " in " << path << "\n";
        return 1;
      }
      const std::string err =
          scn::write_reports(result, out_dir, git_sha());
      if (!err.empty()) {
        std::cerr << "dgcampaign: " << err << "\n";
        return 1;
      }
      if (!flags.flag("quiet")) {
        std::cout << "  -> " << out_dir << "/COUNTERS_"
                  << scn::sanitize_filename(result.name) << ".json ("
                  << result.variants.size() << " variants, "
                  << static_cast<long>(result.elapsed_ms) << " ms)\n";
      }
    }
  }
  return 0;
}

void usage() {
  std::cout
      << "usage: dgcampaign <run|list|validate> <campaign.json|dir>... "
         "[--flags]\n"
         "  --threads=N --filter=SUBSTR --max-trials=N --round-threads=N "
         "--splice=SPEC --out=DIR --quiet\n"
         "see the header of tools/dgcampaign.cpp for details\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  if (!flags.errors().empty()) {
    for (const std::string& message : flags.errors()) {
      std::cerr << "dgcampaign: " << message << "\n";
    }
    std::cerr << "valid flags:";
    for (const FlagInfo& f : kValidFlags) std::cerr << " --" << f.name;
    std::cerr << "\n";
    return 2;
  }
  if (flags.positional().empty()) {
    std::cerr << "dgcampaign: " << cmd
              << " needs at least one campaign file or directory\n";
    usage();
    return 2;
  }
  if (cmd == "validate") return cmd_validate(flags.positional());
  if (cmd == "list") return cmd_list(flags.positional(), flags);
  if (cmd == "run") return cmd_run(flags.positional(), flags);
  usage();
  return 2;
}
