// Persistent worker pool for deterministic block-parallel loops.
//
// The sharded round engine runs each group of vertex-disjoint stages of a
// round as one loop over disjoint vertex blocks.  Blocks are claimed
// dynamically (atomic counter), so the *assignment* of blocks to threads is
// racy -- determinism comes from the blocks writing disjoint state, never
// from execution order.  Workers are spawned lazily on the first parallel
// loop and persist across rounds; a Monte Carlo run pays thread creation
// once, not once per round.
//
// Hand-off: one 32-bit state word holds a generation counter (bumped per
// job), a closed flag and the number of workers inside the current job.
// A worker joins a job by incrementing that count while the job is open,
// runs blocks, and leaves by decrementing it; the caller drains blocks
// too, then closes the job and waits only for the workers inside.  A
// worker that wakes late finds the job closed and goes back to waiting,
// so a descheduled worker never holds up a job it did not join.  Waiting
// threads spin for a bounded time (kSpin of wall clock, not a pause
// count) and then park (std::atomic::wait), so rounds posted back to back
// hand off without a syscall while an idle pool costs no CPU.  Spinning
// is skipped altogether while the process's live pool threads (callers
// included) outnumber the hardware threads -- e.g. concurrent trials that
// each shard their rounds -- since a spinner then only steals the core the
// thread it waits for needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

namespace dg::util {

class ThreadPool {
 public:
  /// How long a waiting thread spins before it parks.
  static constexpr std::chrono::nanoseconds kSpin{20'000};

  /// `threads` counts the caller: a pool of k runs loops on the calling
  /// thread plus k-1 lazily created workers.  threads <= 1 never spawns.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// std::thread::hardware_concurrency(), at least 1, read once.
  static std::size_t hardware_threads();

  /// Runs fn(block) for every block in [0, blocks) across the caller and
  /// the workers, returning only after every block completed.  fn must
  /// confine its writes to per-block state; any shared reads must be
  /// immutable for the duration of the loop.  Not reentrant.
  template <typename Fn>
  void for_blocks(std::size_t blocks, Fn&& fn) {
    if (blocks <= 1 || threads_ <= 1) {
      for (std::size_t b = 0; b < blocks; ++b) fn(b);
      return;
    }
    run_blocks(
        blocks,
        [](void* obj, std::size_t block) {
          (*static_cast<std::remove_reference_t<Fn>*>(obj))(block);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  using BlockFn = void (*)(void* obj, std::size_t block);

  void run_blocks(std::size_t blocks, BlockFn fn, void* obj);
  void drain();
  void worker_loop();
  void leave();
  void ensure_workers();

  std::size_t threads_;
  std::vector<std::thread> workers_;

  // state_ layout: generation << 16 | kClosed | workers inside the job.
  static constexpr std::uint32_t kGeneration = 1U << 16;
  static constexpr std::uint32_t kClosed = 1U << 15;
  static constexpr std::uint32_t kInside = kClosed - 1;
  std::atomic<std::uint32_t> state_{kClosed};
  /// Bumped by the last worker to leave a closed job; the caller parks on
  /// it.
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> stop_{false};

  // Current job: written by the caller while the previous job is closed
  // and empty, published to joining workers by the generation bump.
  BlockFn fn_ = nullptr;
  void* obj_ = nullptr;
  std::size_t blocks_ = 0;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed block
};

}  // namespace dg::util
