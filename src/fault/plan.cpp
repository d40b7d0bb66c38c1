#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/assert.h"

namespace dg::fault {

// ---- ScriptFaultPlan ----

ScriptFaultPlan::ScriptFaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  DG_EXPECTS(std::is_sorted(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.round < b.round; }));
}

void ScriptFaultPlan::bind(const graph::DualGraph& g,
                           std::uint64_t master_seed) {
  (void)master_seed;
  for (const FaultEvent& ev : events_) {
    DG_EXPECTS(ev.vertex < g.size());
    DG_EXPECTS(ev.round >= 1);
  }
  next_ = 0;
}

void ScriptFaultPlan::plan_round(sim::Round round, const Bitmap& crashed,
                                 std::vector<FaultEvent>& out) {
  (void)crashed;
  while (next_ < events_.size() && events_[next_].round <= round) {
    if (events_[next_].round == round) out.push_back(events_[next_]);
    ++next_;
  }
}

// ---- RecoveryCalendar ----

void RecoveryCalendar::schedule(sim::Round round, graph::Vertex v) {
  heap_.emplace_back(round, v);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<sim::Round> RecoveryCalendar::next() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().first;
}

void RecoveryCalendar::pop_due(sim::Round round, const Bitmap& crashed,
                               std::vector<FaultEvent>& out) {
  while (!heap_.empty() && heap_.front().first <= round) {
    DG_ASSERT(crashed.test(heap_.front().second));
    out.push_back({round, heap_.front().second, FaultKind::kRecover});
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

// ---- PoissonFaultPlan ----

PoissonFaultPlan::PoissonFaultPlan(double rate, double mean_repair)
    : rate_(rate), mean_repair_(mean_repair) {
  DG_EXPECTS(rate > 0.0);
  DG_EXPECTS(mean_repair >= 1.0);
}

void PoissonFaultPlan::bind(const graph::DualGraph& g,
                            std::uint64_t master_seed) {
  DG_EXPECTS(g.size() > 0);
  per_vertex_prob_ = rate_ / static_cast<double>(g.size());
  log_keep_ = std::log1p(-std::min(per_vertex_prob_, 1.0));
  rng_ = Rng(master_seed, kFaultStream);
  calendar_.clear();
  gap_ = draw_gap();
}

std::uint64_t PoissonFaultPlan::draw_gap() {
  // floor(log(u) / log(1 - p)) with u in (0, 1] is Geometric(p): the
  // number of failed trials before the first success (always 0 at p = 1).
  const double u = 1.0 - rng_.uniform();
  const double gap = std::floor(std::log(u) / log_keep_);
  constexpr double kFar = 0x1p62;  // far past any round's trial count
  return gap < kFar ? static_cast<std::uint64_t>(gap)
                    : static_cast<std::uint64_t>(kFar);
}

void PoissonFaultPlan::plan_round(sim::Round round, const Bitmap& crashed,
                                  std::vector<FaultEvent>& out) {
  due_.clear();
  calendar_.pop_due(round, crashed, due_);
  // This round's n trials, ascending by vertex: skip `gap_` of them, then
  // a success, which crashes its vertex unless that vertex is already down.
  crashes_.clear();
  const std::uint64_t n = crashed.size();
  std::uint64_t left = n;  // trials left in this round
  while (gap_ < left) {
    const auto v = static_cast<graph::Vertex>(n - left + gap_);
    left -= gap_ + 1;
    if (!crashed.test(v)) {
      crashes_.push_back({round, v, FaultKind::kCrash});
      // Exponential repair time, floored to a whole round >= 1.  The clamp
      // keeps -log(u) finite for the (measure-zero) u == 0 draw.
      const double u = std::max(rng_.uniform(), 1e-12);
      const double repair = -mean_repair_ * std::log(u);
      calendar_.schedule(
          round + std::max<sim::Round>(1, static_cast<sim::Round>(repair)), v);
    }
    gap_ = draw_gap();
  }
  gap_ -= left;
  std::merge(due_.begin(), due_.end(), crashes_.begin(), crashes_.end(),
             std::back_inserter(out),
             [](const FaultEvent& a, const FaultEvent& b) {
               return a.vertex < b.vertex;
             });
}

// ---- RegionFaultPlan ----

RegionFaultPlan::RegionFaultPlan(sim::Round round, graph::Vertex center,
                                 int radius, sim::Round repair)
    : kill_round_(round), center_(center), radius_(radius), repair_(repair) {
  DG_EXPECTS(round >= 1);
  DG_EXPECTS(radius >= 0);
  DG_EXPECTS(repair >= 0);
}

void RegionFaultPlan::bind(const graph::DualGraph& g,
                           std::uint64_t master_seed) {
  (void)master_seed;
  DG_EXPECTS(center_ < g.size());
  // BFS ball of `radius_` hops around the center over the reliable graph G
  // (the topology every generator guarantees; geometry is optional).
  std::vector<int> dist(g.size(), -1);
  std::vector<graph::Vertex> frontier{center_};
  dist[center_] = 0;
  region_.clear();
  region_.push_back(center_);
  for (int hop = 1; hop <= radius_ && !frontier.empty(); ++hop) {
    std::vector<graph::Vertex> next;
    for (graph::Vertex v : frontier) {
      for (graph::Vertex w : g.g_neighbors(v)) {
        if (dist[w] != -1) continue;
        dist[w] = hop;
        next.push_back(w);
        region_.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  std::sort(region_.begin(), region_.end());
}

void RegionFaultPlan::plan_round(sim::Round round, const Bitmap& crashed,
                                 std::vector<FaultEvent>& out) {
  (void)crashed;
  if (round == kill_round_) {
    for (graph::Vertex v : region_) out.push_back({round, v, FaultKind::kCrash});
  } else if (repair_ > 0 && round == kill_round_ + repair_) {
    for (graph::Vertex v : region_) {
      out.push_back({round, v, FaultKind::kRecover});
    }
  }
}

// ---- AdversaryFaultPlan ----

AdversaryFaultPlan::AdversaryFaultPlan(int k, sim::Round period,
                                       sim::Round repair)
    : k_(k), period_(period), repair_(repair) {
  DG_EXPECTS(k >= 1);
  DG_EXPECTS(period >= 1);
  DG_EXPECTS(repair >= 1);
}

void AdversaryFaultPlan::bind(const graph::DualGraph& g,
                              std::uint64_t master_seed) {
  (void)master_seed;
  progress_.assign(g.size(), 0);
  calendar_.clear();
}

void AdversaryFaultPlan::note_progress(graph::Vertex v) {
  DG_ASSERT(v < progress_.size());
  ++progress_[v];
}

void AdversaryFaultPlan::plan_round(sim::Round round, const Bitmap& crashed,
                                    std::vector<FaultEvent>& out) {
  calendar_.pop_due(round, crashed, out);
  if (round % period_ != 0) return;
  // The k up vertices with the most acks; ties toward the lower vertex
  // (stable under the ascending scan), so the choice is a pure function of
  // the execution so far -- seed-deterministic like the adaptive jammer.
  // A vertex with a scheduled recovery is still down in `crashed`.
  const auto n = static_cast<graph::Vertex>(progress_.size());
  std::vector<graph::Vertex> targets;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (!crashed.test(v)) targets.push_back(v);
  }
  const std::size_t k = std::min<std::size_t>(targets.size(),
                                              static_cast<std::size_t>(k_));
  std::partial_sort(targets.begin(), targets.begin() + k, targets.end(),
                    [&](graph::Vertex a, graph::Vertex b) {
                      if (progress_[a] != progress_[b]) {
                        return progress_[a] > progress_[b];
                      }
                      return a < b;
                    });
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back({round, targets[i], FaultKind::kCrash});
    calendar_.schedule(round + repair_, targets[i]);
  }
}

}  // namespace dg::fault
