#include "util/thread_pool.h"

#include <algorithm>

#include "util/assert.h"

namespace dg::util {

namespace {

/// Threads of every pool that has spawned its workers, callers included.
std::atomic<std::size_t> g_live_threads{0};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `done` for up to ThreadPool::kSpin of wall clock, or just once
/// while the process's pool threads outnumber the hardware threads.
/// Returns whether `done` became true; the caller parks otherwise.
template <typename Done>
bool spin_until(Done done) {
  if (g_live_threads.load(std::memory_order_relaxed) >
      ThreadPool::hardware_threads()) {
    return done();
  }
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpin;
  for (unsigned i = 1;; ++i) {
    if (done()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
  }
}

}  // namespace

std::size_t ThreadPool::hardware_threads() {
  static const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return hw;
}

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  DG_EXPECTS(threads >= 1);
  DG_EXPECTS(threads - 1 <= kInside);  // the workers-inside count fits
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  // Every job is closed and empty (run_blocks waits for that), so the
  // workers are all waiting for the next generation: this one stops them.
  stop_.store(true, std::memory_order_relaxed);
  state_.fetch_add(kGeneration, std::memory_order_release);
  state_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  g_live_threads.fetch_sub(threads_, std::memory_order_relaxed);
}

void ThreadPool::ensure_workers() {
  if (!workers_.empty() || threads_ <= 1) return;
  g_live_threads.fetch_add(threads_, std::memory_order_relaxed);
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::run_blocks(std::size_t blocks, BlockFn fn, void* obj) {
  ensure_workers();
  // The previous job is closed and empty, so no worker reads these fields
  // until it joins the generation opened below.
  fn_ = fn;
  obj_ = obj;
  blocks_ = blocks;
  next_.store(0, std::memory_order_relaxed);
  const std::uint32_t open =
      (state_.load(std::memory_order_relaxed) & ~(kClosed | kInside)) +
      kGeneration;
  state_.store(open, std::memory_order_release);
  state_.notify_all();
  drain();  // the caller is one of the pool's threads

  // Every block is claimed; close the job and wait for the workers still
  // inside (their acq_rel leaves chain their block writes to the acquire
  // that sees the count reach zero).
  std::uint32_t done = done_.load(std::memory_order_relaxed);
  std::uint32_t state =
      state_.fetch_or(kClosed, std::memory_order_acq_rel) | kClosed;
  if ((state & kInside) == 0) return;
  if (spin_until([&] {
        return (state_.load(std::memory_order_acquire) & kInside) == 0;
      })) {
    return;
  }
  while ((state_.load(std::memory_order_acquire) & kInside) != 0) {
    done_.wait(done, std::memory_order_acquire);
    done = done_.load(std::memory_order_relaxed);
  }
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t block = next_.fetch_add(1, std::memory_order_relaxed);
    if (block >= blocks_) return;
    fn_(obj_, block);
  }
}

void ThreadPool::leave() {
  const std::uint32_t after =
      state_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if ((after & kClosed) != 0 && (after & kInside) == 0) {
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

void ThreadPool::worker_loop() {
  std::uint32_t seen = 0;  // generation bits of the last job looked at
  for (;;) {
    std::uint32_t state = state_.load(std::memory_order_acquire);
    const auto fresh = [&] { return (state & ~(kClosed | kInside)) != seen; };
    if (!fresh()) {
      spin_until([&] {
        state = state_.load(std::memory_order_acquire);
        return fresh();
      });
      while (!fresh()) {
        state_.wait(state, std::memory_order_acquire);
        state = state_.load(std::memory_order_acquire);
      }
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = state & ~(kClosed | kInside);
    // Join the job unless it closed (or a newer one opened) meanwhile.
    while ((state & kClosed) == 0 && (state & ~(kClosed | kInside)) == seen) {
      if (state_.compare_exchange_weak(state, state + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_acquire)) {
        drain();
        leave();
        break;
      }
    }
  }
}

}  // namespace dg::util
