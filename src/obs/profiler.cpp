#include "obs/profiler.h"

#include <algorithm>
#include <string>

#include "util/assert.h"

namespace dg::obs {

PhaseProfiler::PhaseProfiler(Registry& registry) : registry_(&registry) {
  round_ns_ = &registry.counter("engine.round.ns", Domain::kTiming);
  parallel_ns_ = &registry.counter("engine.pool.parallel.ns",
                                   Domain::kTiming);
  round_us_ = &registry.histogram(
      "engine.round.us", Domain::kTiming,
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000,
       50000, 100000});
}

std::size_t PhaseProfiler::register_stage(const std::string& name) {
  const std::size_t slot = names_.size();
  names_.push_back(name);
  phase_ns_.push_back(&registry_->counter("engine.phase." + name + ".ns",
                                          Domain::kTiming));
  current_.push_back(0);
  last_.push_back(0);
  return slot;
}

void PhaseProfiler::begin_round(std::int64_t round) {
  round_ = round;
  std::fill(current_.begin(), current_.end(), std::uint64_t{0});
  current_parallel_ns_ = 0;
  round_start_ = Clock::now();
}

void PhaseProfiler::add_phase_ns(std::size_t slot, std::uint64_t ns) {
  DG_ASSERT(slot < current_.size());
  current_[slot] += ns;
}

void PhaseProfiler::add_parallel_ns(std::uint64_t ns) {
  current_parallel_ns_ += ns;
}

void PhaseProfiler::end_round(TraceSink* sink) {
  const auto round_ns =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now() - round_start_)
              .count());
  for (std::size_t p = 0; p < current_.size(); ++p) {
    *phase_ns_[p] += current_[p];
  }
  *round_ns_ += round_ns;
  *parallel_ns_ += current_parallel_ns_;
  round_us_->record(static_cast<double>(round_ns) / 1000.0);
  last_ = current_;
  if (sink != nullptr) sink->round_phases(round_, names_, current_);
}

}  // namespace dg::obs
