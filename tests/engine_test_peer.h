// Test-only access to the round engine's internals.
#pragma once

#include <cstddef>
#include <limits>

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

  /// The installed RoundHooks, so a test can chain a recorder in front.
  static RoundHooks* round_hooks(Engine& engine) { return engine.hooks_; }
};

}  // namespace dg::sim
