// Test-only access to the round engine's internals.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "sim/engine.h"

namespace dg::sim {

struct EngineTestPeer {
  /// Lowers the shard guard to "any work at all" and lifts the hardware
  /// bound on the pool, so test-sized networks take the sharded dispatch,
  /// on a pool of round_threads threads, whenever the thread cap, the
  /// processes' consent and the vertex count allow it (one-thread hosts
  /// included).  Both only choose the dispatch, so executions stay
  /// byte-identical either way.
  static void always_shard(Engine& engine) {
    engine.shard_min_words_ = 0;
    engine.pool_cap_ = std::numeric_limits<std::size_t>::max();
  }

  /// Inserts a test-only stage after the named anchor stage (and any
  /// splices chained behind it), bypassing the splice validator, and gives
  /// it a profiler row when telemetry is installed.  The stage must
  /// declare its slabs and vertex-disjointness truthfully.
  static void insert_stage(Engine& engine, const std::string& anchor,
                           std::unique_ptr<RoundStage> stage) {
    engine.pipeline_.insert_after(anchor, std::move(stage));
    if (engine.registry_ != nullptr) engine.rebuild_profiler();
  }

  /// The installed RoundHooks, so a test can chain a recorder in front.
  static RoundHooks* round_hooks(Engine& engine) { return engine.hooks_; }
};

}  // namespace dg::sim
