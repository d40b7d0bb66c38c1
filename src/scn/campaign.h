// CampaignRunner: executes an expanded campaign, sharded across threads.
//
// Each variant's trials run through stats::run_trials (work-stealing over
// a shared atomic trial index, results in trial order), so the output is
// deterministic for a given campaign file regardless of --threads: the
// counters document is byte-identical for 1 thread and N threads, which
// is what lets CI gate on it (tools/bench_diff.py --counters-only against
// a checked-in golden).
//
// Artifacts per run (write_reports):
//   SCN_<variant>.json      per-variant bench_support.h-style report
//                           (elapsed_ms + machine stamps + metric tables)
//   COUNTERS_<campaign>.json seed-deterministic counters only -- no
//                           timing, no machine stamps; the gating file
//   CAMPAIGN_<campaign>.json roll-up (variant list, totals, wall time)
//   METRICS_<variant>.json  (variants with "obs": true) the variant's
//                           merged obs::Registry, logical domain only --
//                           gateable exactly like the counters file
//   METRICS_<campaign>.json campaign metrics roll-up embedding every obs
//                           variant's logical dump plus the campaign-wide
//                           merge (variant order)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "scn/scenario.h"

namespace dg::scn {

struct RunOptions {
  std::size_t threads = 0;     ///< trial worker cap; 0 = hardware
  std::string filter;          ///< substring filter on variant names
  std::size_t max_trials = 0;  ///< clamp per-variant trials (0 = off);
                               ///< nightly CI runs campaigns reduced
  /// Engine round-thread cap forced onto every variant (0 = keep each
  /// variant's own spec / engine default).  Counters are byte-identical
  /// for every value -- the flag moves wall clock, never results.
  std::size_t round_threads = 0;
  /// Extra stage spliced into every variant's round pipeline, after any
  /// stages the variant declares itself (see sim/splice.h for the
  /// grammar).  Empty = none.  Must be a valid spec whose write set does
  /// not conflict with any variant's own stages -- the CLI validates
  /// before running.
  std::string splice;
  std::ostream* progress = nullptr;  ///< optional per-variant status lines
};

struct VariantResult {
  ScenarioSpec spec;                        ///< concrete expanded spec
  std::vector<std::string> metrics;         ///< column names
  std::vector<std::vector<double>> trials;  ///< [trial][metric], trial order
  double elapsed_ms = 0;                    ///< wall clock (non-gating)
  /// Merged obs telemetry (only populated when spec.obs): per-trial
  /// registries folded in TRIAL order -- not completion order -- so the
  /// logical domain is byte-identical at every --threads/--round-threads.
  obs::Registry registry;

  /// Sum of one metric column over all trials, accumulated in trial order
  /// (the deterministic aggregate the counters file records).
  double metric_sum(std::size_t metric) const;
};

struct CampaignResult {
  std::string name;
  std::vector<VariantResult> variants;
  double elapsed_ms = 0;
};

/// Runs every variant matching options.filter, in campaign order.
CampaignResult run_campaign(const Campaign& campaign,
                            const RunOptions& options);

/// The gating counters document: pure function of (campaign file, filter,
/// max_trials) -- byte-identical across thread counts and machines.
std::string counters_json(const CampaignResult& result);

/// One variant's bench_support.h-shaped report (elapsed_ms,
/// hardware_concurrency, git_sha, sections/tables).  An obs variant's
/// report also embeds its full registry dump, timing domain included, as
/// "metrics" (e.g. engine.dispatch.pool_jobs).  Never gated.
std::string variant_report_json(const VariantResult& variant,
                                const std::string& git_sha);

/// Campaign roll-up: totals + per-variant timing and counter sums.
std::string rollup_json(const CampaignResult& result,
                        const std::string& git_sha);

/// Campaign metrics roll-up (format "dg-campaign-metrics-v1"): embeds each
/// obs variant's logical registry dump, plus "campaign" -- all variant
/// registries merged in VARIANT order.  Pure function of the campaign
/// inputs (no timing domain, no stamps), gateable like counters_json.
std::string metrics_json(const CampaignResult& result);

/// Writes the three artifact kinds into out_dir (created if needed).
/// Returns "" on success, else an error message.
std::string write_reports(const CampaignResult& result,
                          const std::string& out_dir,
                          const std::string& git_sha);

/// Variant name -> filesystem-safe stem ('/' and other non [A-Za-z0-9_.-]
/// become '_').
std::string sanitize_filename(const std::string& name);

}  // namespace dg::scn
