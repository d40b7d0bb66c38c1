#include "scn/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "scn/json.h"
#include "scn/workload.h"
#include "stats/montecarlo.h"

namespace dg::scn {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

double VariantResult::metric_sum(std::size_t metric) const {
  double sum = 0;
  for (const auto& row : trials) sum += row[metric];
  return sum;
}

CampaignResult run_campaign(const Campaign& campaign,
                            const RunOptions& options) {
  CampaignResult result;
  result.name = campaign.name;
  const auto campaign_start = Clock::now();
  for (const ScenarioSpec& spec : campaign.variants) {
    if (!options.filter.empty() &&
        spec.name.find(options.filter) == std::string::npos) {
      continue;
    }
    VariantResult vr;
    vr.spec = spec;
    if (options.max_trials != 0 && vr.spec.trials > options.max_trials) {
      vr.spec.trials = options.max_trials;
    }
    if (options.round_threads != 0) {
      vr.spec.round_threads = options.round_threads;
    }
    if (!options.splice.empty()) {
      vr.spec.stages.push_back(options.splice);
    }
    vr.metrics = metric_names(vr.spec);
    if (options.progress != nullptr) {
      *options.progress << "  " << vr.spec.name << ": " << vr.spec.trials
                        << " trials (seed " << vr.spec.seed << ") ..."
                        << std::flush;
    }
    const auto start = Clock::now();
    // The sharding seam: work-stealing trial scheduler, trial-ordered
    // results, per-trial seeds independent of the claiming worker.  With
    // obs enabled each trial fills its own pre-allocated registry slot
    // (no sharing across workers); the fold below runs in TRIAL order, so
    // the merged registry is independent of which worker ran what.
    std::vector<obs::Registry> trial_registries(
        vr.spec.obs ? vr.spec.trials : 0);
    vr.trials = stats::run_trials(
        vr.spec.trials, vr.spec.seed,
        [&vr, &trial_registries](std::size_t trial,
                                 std::uint64_t trial_seed) {
          obs::Registry* reg =
              vr.spec.obs ? &trial_registries[trial] : nullptr;
          return run_trial(vr.spec, trial_seed, reg);
        },
        options.threads);
    for (const obs::Registry& reg : trial_registries) {
      vr.registry.merge(reg);
    }
    vr.elapsed_ms = ms_since(start);
    if (options.progress != nullptr) {
      *options.progress << " done (" << static_cast<long>(vr.elapsed_ms)
                        << " ms)\n";
    }
    result.variants.push_back(std::move(vr));
  }
  result.elapsed_ms = ms_since(campaign_start);
  return result;
}

std::string counters_json(const CampaignResult& result) {
  std::ostringstream os;
  os << "{\n  \"format\": \"dg-campaign-counters-v1\",\n  \"campaign\": \""
     << json::escape(result.name) << "\",\n  \"variants\": [";
  for (std::size_t i = 0; i < result.variants.size(); ++i) {
    const VariantResult& v = result.variants[i];
    os << (i ? ",\n" : "\n") << "    {\n      \"name\": \""
       << json::escape(v.spec.name) << "\",\n      \"seed\": " << v.spec.seed
       << ",\n      \"trials\": " << v.trials.size()
       << ",\n      \"metrics\": [";
    for (std::size_t m = 0; m < v.metrics.size(); ++m) {
      os << (m ? ", " : "") << '"' << json::escape(v.metrics[m]) << '"';
    }
    os << "],\n      \"per_trial\": [";
    for (std::size_t t = 0; t < v.trials.size(); ++t) {
      os << (t ? ",\n                    " : "") << '[';
      for (std::size_t m = 0; m < v.trials[t].size(); ++m) {
        os << (m ? ", " : "") << json::format_number(v.trials[t][m]);
      }
      os << ']';
    }
    os << "],\n      \"sums\": [";
    for (std::size_t m = 0; m < v.metrics.size(); ++m) {
      os << (m ? ", " : "") << json::format_number(v.metric_sum(m));
    }
    os << "]\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string metrics_json(const CampaignResult& result) {
  std::ostringstream os;
  os << "{\n  \"format\": \"dg-campaign-metrics-v1\",\n  \"campaign\": \""
     << json::escape(result.name) << "\",\n  \"variants\": [";
  obs::Registry merged;
  bool first = true;
  for (const VariantResult& v : result.variants) {
    if (!v.spec.obs) continue;
    os << (first ? "\n" : ",\n") << "    {\n      \"name\": \""
       << json::escape(v.spec.name) << "\",\n      \"metrics\": ";
    v.registry.write_json(os, /*include_timing=*/false, "      ");
    os << "\n    }";
    merged.merge(v.registry);  // variant order, matching the file order
    first = false;
  }
  os << "\n  ],\n  \"campaign_metrics\": ";
  merged.write_json(os, /*include_timing=*/false, "  ");
  os << "\n}\n";
  return os.str();
}

namespace {

/// Shared provenance preamble of the timing-carrying reports (matches the
/// bench_support.h stamps bench_diff.py keys on).
void stamp(std::ostream& os, double elapsed_ms, const std::string& git_sha) {
  os << "{\n  \"elapsed_ms\": " << elapsed_ms
     << ",\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n  \"git_sha\": \""
     << json::escape(git_sha) << "\",\n";
}

std::string describe(const ScenarioSpec& s) {
  std::ostringstream os;
  os << "topology " << s.topology.type << ", scheduler " << s.scheduler
     << ", channel " << s.channel << ", algorithm " << s.algorithm.type
     << ", seed " << s.seed;
  return os.str();
}

}  // namespace

std::string variant_report_json(const VariantResult& v,
                                const std::string& git_sha) {
  std::ostringstream os;
  stamp(os, v.elapsed_ms, git_sha);
  if (v.spec.obs) {
    os << "  \"metrics\": ";
    v.registry.write_json(os, /*include_timing=*/true, "  ");
    os << ",\n";
  }
  os << "  \"sections\": [\n    {\n      \"experiment\": \"scenario "
     << json::escape(v.spec.name) << "\",\n      \"claim\": \""
     << json::escape(describe(v.spec)) << "\",\n      \"tables\": [";
  // Table 1: per-trial metric rows.
  os << "\n        {\n          \"columns\": [\"trial\"";
  for (const auto& m : v.metrics) os << ", \"" << json::escape(m) << '"';
  os << "],\n          \"rows\": [";
  for (std::size_t t = 0; t < v.trials.size(); ++t) {
    os << (t ? ",\n" : "\n") << "            {\"trial\": " << t;
    for (std::size_t m = 0; m < v.trials[t].size(); ++m) {
      os << ", \"" << json::escape(v.metrics[m])
         << "\": " << json::format_number(v.trials[t][m]);
    }
    os << '}';
  }
  os << "\n          ]\n        },";
  // Table 2: per-metric aggregates.
  os << "\n        {\n          \"columns\": [\"metric\", \"sum\", "
        "\"mean\", \"min\", \"max\"],\n          \"rows\": [";
  for (std::size_t m = 0; m < v.metrics.size(); ++m) {
    double lo = 0, hi = 0;
    if (!v.trials.empty()) {
      lo = hi = v.trials[0][m];
      for (const auto& row : v.trials) {
        lo = std::min(lo, row[m]);
        hi = std::max(hi, row[m]);
      }
    }
    const double sum = v.metric_sum(m);
    const double mean =
        v.trials.empty() ? 0 : sum / static_cast<double>(v.trials.size());
    os << (m ? ",\n" : "\n") << "            {\"metric\": \""
       << json::escape(v.metrics[m])
       << "\", \"sum\": " << json::format_number(sum)
       << ", \"mean\": " << json::format_number(mean)
       << ", \"min\": " << json::format_number(lo)
       << ", \"max\": " << json::format_number(hi) << '}';
  }
  os << "\n          ]\n        }\n      ]\n    }\n  ]\n}\n";
  return os.str();
}

std::string rollup_json(const CampaignResult& result,
                        const std::string& git_sha) {
  std::size_t total_trials = 0;
  for (const auto& v : result.variants) total_trials += v.trials.size();
  std::ostringstream os;
  stamp(os, result.elapsed_ms, git_sha);
  os << "  \"campaign\": \"" << json::escape(result.name)
     << "\",\n  \"variant_count\": " << result.variants.size()
     << ",\n  \"total_trials\": " << total_trials << ",\n  \"variants\": [";
  for (std::size_t i = 0; i < result.variants.size(); ++i) {
    const VariantResult& v = result.variants[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": \""
       << json::escape(v.spec.name) << "\", \"trials\": " << v.trials.size()
       << ", \"seed\": " << v.spec.seed
       << ", \"elapsed_ms\": " << v.elapsed_ms << ", \"sums\": {";
    for (std::size_t m = 0; m < v.metrics.size(); ++m) {
      os << (m ? ", " : "") << '"' << json::escape(v.metrics[m])
         << "\": " << json::format_number(v.metric_sum(m));
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string sanitize_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    out += ok ? c : '_';
  }
  return out;
}

std::string write_reports(const CampaignResult& result,
                          const std::string& out_dir,
                          const std::string& git_sha) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return out_dir + ": cannot create directory: " + ec.message();
  const auto write = [&](const std::string& file,
                         const std::string& content) -> bool {
    std::ofstream os(out_dir + "/" + file);
    if (!os) return false;
    os << content;
    return static_cast<bool>(os);
  };
  bool any_obs = false;
  for (const VariantResult& v : result.variants) {
    const std::string file =
        "SCN_" + sanitize_filename(v.spec.name) + ".json";
    if (!write(file, variant_report_json(v, git_sha))) {
      return out_dir + "/" + file + ": write failed";
    }
    if (v.spec.obs) {
      any_obs = true;
      const std::string mfile =
          "METRICS_" + sanitize_filename(v.spec.name) + ".json";
      // Logical domain only: the byte-comparable artifact.
      if (!write(mfile, v.registry.json(/*include_timing=*/false))) {
        return out_dir + "/" + mfile + ": write failed";
      }
    }
  }
  const std::string stem = sanitize_filename(result.name);
  if (!write("COUNTERS_" + stem + ".json", counters_json(result))) {
    return out_dir + "/COUNTERS_" + stem + ".json: write failed";
  }
  if (!write("CAMPAIGN_" + stem + ".json", rollup_json(result, git_sha))) {
    return out_dir + "/CAMPAIGN_" + stem + ".json: write failed";
  }
  if (any_obs &&
      !write("METRICS_" + stem + ".json", metrics_json(result))) {
    return out_dir + "/METRICS_" + stem + ".json: write failed";
  }
  return "";
}

}  // namespace dg::scn
