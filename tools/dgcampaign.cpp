// dgcampaign -- driver for declarative scenario campaigns (src/scn/).
//
//   dgcampaign run      <campaign.json | dir> [--flags]   execute + reports
//   dgcampaign list     <campaign.json | dir> [--filter=] expanded variants
//   dgcampaign validate <campaign.json | dir>...          parse/schema check
//
// `validate` takes no flags, `list` reads only --filter, and `run` reads
// all of them; kFlags below is the table (tools/cli_flags.h).  Any other
// flag, a flag the subcommand does not read, a valued flag without '=', a
// switch given a value, or a flag given twice exits 2.
//
// Flags:
//   --threads=N     trial worker cap, N >= 1 (omit the flag to use hardware
//                   concurrency; an explicit 0 is rejected).  Changes
//                   scheduling only: the counters artifact is byte-identical
//                   for any value (stats::run_trials derives per-trial seeds
//                   from the trial index, never the worker).
//   --filter=SUBSTR run/list only variants whose name contains SUBSTR
//   --max-trials=N  clamp per-variant trial counts (nightly CI reduction;
//                   0, the default, leaves them as declared)
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
// error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "scn/campaign.h"
#include "scn/scenario.h"
#include "scn/workload.h"
#include "sim/splice.h"

namespace {

using namespace dg;
using cli::Flags;

constexpr cli::FlagSpec kFlags[] = {
    {"threads", true, "run"},       {"filter", true, "list run"},
    {"max-trials", true, "run"},    {"round-threads", true, "run"},
    {"splice", true, "run"},        {"out", true, "run"},
    {"quiet", false, "run"},
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
  // An explicit --threads=0 is almost always a typo'd worker count; the
  // "use hardware concurrency" spelling is omitting the flag.
  options.threads = flags.integer("threads", 0, 1);
  options.filter = flags.str("filter", "");
  options.max_trials = flags.integer("max-trials", 0);
  options.round_threads = flags.integer("round-threads", 0, 1);
  options.splice = flags.str("splice", "");
  if (flags.has("splice")) {
    // Shared grammar (sim/splice.h) so dglab rejects identically.
    sim::SpliceSpec spec;
    std::string err;
    if (!sim::parse_splice_spec(options.splice, spec, err)) {
      flags.fail("--splice: " + err);
    }
  }
  if (!flags.has("quiet")) options.progress = &std::cout;
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
      if (!flags.has("quiet")) {
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
      if (!flags.has("quiet")) {
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
  if (cmd != "validate" && cmd != "list" && cmd != "run") {
    usage();
    return 2;
  }
  const Flags flags("dgcampaign", kFlags, cmd, argc, argv, 2);
  flags.exit_on_errors();
  if (flags.positional().empty()) {
    std::cerr << "dgcampaign: " << cmd
              << " needs at least one campaign file or directory\n";
    usage();
    return 2;
  }
  if (cmd == "validate") return cmd_validate(flags.positional());
  if (cmd == "list") return cmd_list(flags.positional(), flags);
  return cmd_run(flags.positional(), flags);
}
