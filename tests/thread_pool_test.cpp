// util::ThreadPool: the block-parallel hand-off under the sharded round
// engine.  Every block of every job must run exactly once, inside its own
// job (a straggler from job j must never run job j+1's closure), across
// back-to-back jobs, empty and single-block jobs, pool destruction while
// the workers spin or park, and an oversubscribed process whose pools
// therefore park without spinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dg::util {
namespace {

/// Runs `jobs` back-to-back jobs of 1..64 blocks on `pool`; each block
/// records the job its closure belongs to.  Returns the number of blocks
/// that ran a wrong number of times or saw another job's closure.
std::size_t run_tagged_jobs(ThreadPool& pool, std::size_t jobs) {
  constexpr std::size_t kMaxBlocks = 64;
  std::vector<std::atomic<std::uint32_t>> runs(kMaxBlocks);
  std::vector<std::uint64_t> tag(kMaxBlocks, 0);
  std::size_t errors = 0;
  for (std::size_t job = 1; job <= jobs; ++job) {
    const std::size_t blocks = 1 + (job * 7919) % kMaxBlocks;
    pool.for_blocks(blocks, [&runs, &tag, job](std::size_t b) {
      runs[b].fetch_add(1, std::memory_order_relaxed);
      tag[b] = job;
    });
    for (std::size_t b = 0; b < kMaxBlocks; ++b) {
      const std::uint32_t want = b < blocks ? 1 : 0;
      if (runs[b].exchange(0, std::memory_order_relaxed) != want) ++errors;
      if (b < blocks && tag[b] != job) ++errors;
    }
  }
  return errors;
}

TEST(ThreadPool, BackToBackJobsRunEveryBlockOnceInItsOwnJob) {
  ThreadPool pool(4);
  EXPECT_EQ(run_tagged_jobs(pool, 100'000), 0u);
}

TEST(ThreadPool, EmptyAndSingleBlockJobsRunInline) {
  ThreadPool pool(4);
  std::size_t calls = 0;
  pool.for_blocks(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.for_blocks(1, [&](std::size_t b) {
    EXPECT_EQ(b, 0u);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, caller);
  // And interleaved with real jobs, which must still see every block.
  EXPECT_EQ(run_tagged_jobs(pool, 100), 0u);
  pool.for_blocks(0, [&](std::size_t) { ++calls; });
  pool.for_blocks(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(run_tagged_jobs(pool, 100), 0u);
}

TEST(ThreadPool, DestroyWhileWorkersSpin) {
  // Destroyed right after a job: the workers are still inside their
  // spin window, waiting for the next generation.
  for (int i = 0; i < 200; ++i) {
    ThreadPool pool(3);
    EXPECT_EQ(run_tagged_jobs(pool, 3), 0u);
  }
}

TEST(ThreadPool, DestroyWhileWorkersParkAndWakeFromPark) {
  // Well past the spin window every worker is parked; a new job must wake
  // them, and destruction must too.
  const auto past_spin = ThreadPool::kSpin * 50;
  for (int i = 0; i < 5; ++i) {
    ThreadPool pool(3);
    EXPECT_EQ(run_tagged_jobs(pool, 2), 0u);
    std::this_thread::sleep_for(past_spin);
    EXPECT_EQ(run_tagged_jobs(pool, 2), 0u);
    std::this_thread::sleep_for(past_spin);
  }
}

TEST(ThreadPool, OversubscribedPoolsParkAndStayCorrect) {
  // Two live pools of hardware_concurrency threads each: together they
  // outnumber the hardware threads, so every wait parks at once.  Both
  // run jobs concurrently from their own callers.
  const std::size_t width =
      std::max<std::size_t>(ThreadPool::hardware_threads(), 2);
  ThreadPool a(width);
  ThreadPool b(width);
  std::size_t errors_b = 0;
  std::thread other([&] { errors_b = run_tagged_jobs(b, 2'000); });
  const std::size_t errors_a = run_tagged_jobs(a, 2'000);
  other.join();
  EXPECT_EQ(errors_a, 0u);
  EXPECT_EQ(errors_b, 0u);
}

}  // namespace
}  // namespace dg::util
