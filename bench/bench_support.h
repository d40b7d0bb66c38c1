// Shared helpers for the experiment benches (E1..E13 and B-goodness).
//
// Every bench binary regenerates one of the paper's quantitative claims as
// a printed table: a header states the claim being reproduced, the rows are
// the measured sweep.
//
// Machine-readable output: when the environment variable DG_BENCH_JSON
// names a file path, the same headers and tables that go to stdout are
// mirrored into that file as a JSON document at process exit, including the
// bench's wall-clock time.  tools/run_benches.sh uses this to sweep every
// bench binary into BENCH_<name>.json files.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/dual_graph.h"
#include "graph/generators.h"
#include "lb/measure.h"
#include "lb/simulation.h"
#include "scn/json.h"
#include "sim/scheduler.h"
#include "stats/probes.h"
#include "stats/summary.h"
#include "util/table.h"

namespace dg::bench {

namespace detail {

/// True when the formatted cell can be emitted as a bare JSON number.
/// Deliberately stricter than strtod: "nan", "inf", and hex forms parse as
/// doubles but are not valid JSON numbers, so they stay quoted strings.
inline bool json_numeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      digit = true;
    } else if (c != '.' && c != '+' && c != '-' && c != 'e' && c != 'E') {
      return false;
    }
  }
  if (!digit) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Collects the (experiment, claim, tables) sections a bench prints and, if
/// DG_BENCH_JSON is set, writes them as one JSON document when the process
/// exits.  print_header() starts a new section; print_table() appends to the
/// latest one.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void begin_section(const std::string& experiment, const std::string& claim) {
    sections_.push_back(Section{experiment, claim, {}});
  }

  void add_table(const Table& table) {
    if (sections_.empty()) sections_.push_back(Section{});
    sections_.back().tables.push_back(
        Captured{table.headers(), table.rows()});
  }

  ~JsonReport() {
    const char* path = std::getenv("DG_BENCH_JSON");
    if (path == nullptr || *path == '\0' || sections_.empty()) return;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench_support: cannot open DG_BENCH_JSON path " << path
                << '\n';
      return;
    }
    const auto elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    // Machine/build provenance: timings are only comparable on the same
    // hardware and source revision, and tools/bench_diff.py refuses
    // cross-machine diffs based on these stamps.
#ifdef DG_GIT_SHA
    const char* git_sha = DG_GIT_SHA;
#else
    const char* git_sha = "unknown";
#endif
    os << "{\n  \"elapsed_ms\": " << elapsed
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"git_sha\": \""
       << scn::json::escape(git_sha) << "\",\n  \"sections\": [";
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const auto& s = sections_[i];
      os << (i ? ",\n" : "\n") << "    {\n      \"experiment\": \""
         << scn::json::escape(s.experiment) << "\",\n      \"claim\": \""
         << scn::json::escape(s.claim) << "\",\n      \"tables\": [";
      for (std::size_t t = 0; t < s.tables.size(); ++t) {
        const auto& tab = s.tables[t];
        // Row objects are keyed by column header; duplicate headers would
        // collide as JSON keys (parsers keep only the last), so repeats get
        // a ".2", ".3", ... suffix.
        std::vector<std::string> keys;
        keys.reserve(tab.headers.size());
        for (std::size_t c = 0; c < tab.headers.size(); ++c) {
          std::size_t copies = 1;
          for (std::size_t p = 0; p < c; ++p) {
            if (tab.headers[p] == tab.headers[c]) ++copies;
          }
          keys.push_back(copies > 1
                             ? tab.headers[c] + "." + std::to_string(copies)
                             : tab.headers[c]);
        }
        os << (t ? ",\n" : "\n") << "        {\n          \"columns\": [";
        for (std::size_t c = 0; c < tab.headers.size(); ++c) {
          os << (c ? ", " : "") << '"' << scn::json::escape(tab.headers[c])
             << '"';
        }
        os << "],\n          \"rows\": [";
        for (std::size_t r = 0; r < tab.rows.size(); ++r) {
          os << (r ? ",\n" : "\n") << "            {";
          const auto& row = tab.rows[r];
          for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c ? ", " : "") << '"'
               << scn::json::escape(c < keys.size() ? keys[c]
                                                    : std::to_string(c))
               << "\": ";
            if (json_numeric(row[c])) {
              os << row[c];
            } else {
              os << '"' << scn::json::escape(row[c]) << '"';
            }
          }
          os << '}';
        }
        os << "\n          ]\n        }";
      }
      os << "\n      ]\n    }";
    }
    os << "\n  ]\n}\n";
  }

 private:
  struct Captured {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Section {
    std::string experiment;
    std::string claim;
    std::vector<Captured> tables;
  };

  JsonReport() = default;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::vector<Section> sections_;
};

}  // namespace detail

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  detail::JsonReport::instance().begin_section(experiment, claim);
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

inline void print_table(const Table& table) {
  detail::JsonReport::instance().add_table(table);
  table.print(std::cout);
  std::cout << std::flush;
}

/// Locates a checked-in scenario file for the campaign-ported benches:
/// $DG_CAMPAIGN_DIR (env) wins, else the configure-time campaigns/
/// directory baked in by bench/CMakeLists.txt.
inline std::string campaign_file(const std::string& name) {
  const char* dir = std::getenv("DG_CAMPAIGN_DIR");
  if (dir == nullptr || *dir == '\0') {
#ifdef DG_CAMPAIGN_DIR
    dir = DG_CAMPAIGN_DIR;
#else
    dir = "campaigns";
#endif
  }
  return std::string(dir) + "/" + name;
}

// The shared workload topologies and measurements moved into the library
// (graph/generators.h, lb/measure.h) when the scenario subsystem (src/scn/)
// started running the same workloads declaratively; these aliases keep the
// bench binaries' historical spellings working.
using graph::contention_star;
using graph::disjoint_cliques;

inline sim::Round lb_progress_latency(
    const graph::DualGraph& g, std::unique_ptr<sim::LinkScheduler> scheduler,
    const lb::LbParams& params, const std::vector<graph::Vertex>& senders,
    graph::Vertex receiver, std::int64_t horizon_phases, std::uint64_t seed) {
  return lb::progress_latency(g, std::move(scheduler), params, senders,
                              receiver, horizon_phases, seed);
}

}  // namespace dg::bench
