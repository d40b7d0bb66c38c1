// Machine-checkable form of the Seed(delta, eps) specification (Section 3.1).
//
// The two non-probabilistic conditions (well-formedness, consistency) are
// checked per execution.  The agreement condition -- for each vertex u, at
// most delta distinct owners appear in decide outputs across
// N_G'(u) u {u}, with probability >= 1 - eps -- is evaluated per execution
// here and aggregated into frequencies by the Monte Carlo harnesses.  The
// independence condition is distributional; `owner_seeds` exposes the raw
// material (owner -> seed draws) that the statistical tests consume.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/dual_graph.h"
#include "seed/seed_alg.h"
#include "sim/packet.h"

namespace dg::seed {

/// One execution's worth of decide outputs: decisions[v] is the decide at
/// graph vertex v.
using DecisionVector = std::vector<std::optional<SeedDecision>>;

struct SeedSpecResult {
  /// Condition 1: exactly one decide output (*, *)_u per vertex.
  bool well_formed = false;
  /// Condition 2: equal owners imply equal seeds.
  bool consistent = false;
  /// Supplementary sanity (implied by the algorithm, Lemma B.1): every
  /// committed owner is the id of a vertex in N_G'(u) u {u}.
  bool owners_local = false;
  /// max over u of |{owners committed in N_G'(u) u {u}}| -- the quantity the
  /// agreement condition bounds by delta.
  std::size_t max_neighborhood_owners = 0;
  /// Number of distinct owners overall (diagnostics).
  std::size_t distinct_owners = 0;

  /// The event B_{u,delta} held for every u.
  bool agreement(std::size_t delta) const {
    return max_neighborhood_owners <= delta;
  }
};

/// Validates one execution's decisions against the spec.  `ids[v]` is the
/// ProcessId at vertex v (the id() mapping the checker, unlike processes,
/// is allowed to see).
SeedSpecResult check_seed_spec(const graph::DualGraph& g,
                               const std::vector<sim::ProcessId>& ids,
                               const DecisionVector& decisions);

/// Unique owners committed within N_G'(u) u {u} for one vertex (the random
/// variable inside B_{u,delta}).
std::size_t neighborhood_owner_count(const graph::DualGraph& g,
                                     const std::vector<sim::ProcessId>& ids,
                                     const DecisionVector& decisions,
                                     graph::Vertex u);

/// owner id -> committed seed value, for the independence statistics.
std::unordered_map<sim::ProcessId, std::uint64_t> owner_seeds(
    const DecisionVector& decisions);

}  // namespace dg::seed
