// Fork-join worker pool with a blocking parallel_for_indexed.
//
// Conv2D splits its batch over it. A pool of width P is the thread that
// dispatches a region plus P − 1 helper threads. A region is published as one
// atomic word (epoch, chunk count, next chunk) from which every participant
// claims chunk indices, so dispatch allocates nothing and a helper that is
// late or asleep never holds a region up: the caller claims whatever is
// left. The region ends when an atomic count of finished chunks reaches the
// chunk count. Idle helpers spin with `pause` for a fixed time, then park on
// a condition variable.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vcdl {

class ThreadPool {
 public:
  /// A pool of `threads` participants: the dispatching thread plus
  /// threads − 1 helpers, so width 1 starts no thread. 0 means
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// True on this pool's helper threads, and on any thread while it runs a
  /// chunk of one of this pool's regions. parallel_for_indexed uses this to
  /// run nested invocations inline: one region runs at a time, so a chunk
  /// that dispatched another and waited for it would wait for itself.
  bool on_worker_thread() const;

  /// Runs fn(chunk, lo, hi) over [begin, end), split into max_chunks(end -
  /// begin) contiguous chunks [lo, hi). The caller and the helpers claim
  /// chunks until none is left, then the caller blocks until all of them
  /// finish. Exceptions from fn propagate to the caller (first one wins) —
  /// only after every chunk has completed, so fn can never dangle. Called
  /// from a participant of this pool, or while another thread's region runs
  /// on it, the whole range runs inline on the caller as chunk 0.
  ///
  /// The chunk index (0 <= chunk < max_chunks) lets callers keep per-chunk
  /// scratch buffers without sharing or locks. It should pick scratch only:
  /// any participant may claim any chunk, so a body whose results follow
  /// from [lo, hi) alone gives the same bits at any pool width, nested or
  /// not.
  void parallel_for_indexed(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Number of chunks parallel_for_indexed splits an n-element range into.
  std::size_t max_chunks(std::size_t n) const {
    return std::min(n, std::max<std::size_t>(1, size()));
  }

 private:
  using Body = std::function<void(std::size_t, std::size_t, std::size_t)>;

  void helper_loop();
  // Stops the helpers and joins them.
  void stop_and_join();
  // Claims and runs chunks of the published region until a claim comes back
  // empty; returns the region word that claim read.
  std::uint64_t run_chunks();

  std::size_t size_;

  // The region: (epoch << 32) | (chunk count << 16) | next chunk. Only the
  // thread holding busy_ publishes one, and it writes the descriptor below
  // first; a participant reads the descriptor only after a claim succeeds.
  alignas(64) std::atomic<std::uint64_t> region_{0};
  const Body* fn_ = nullptr;
  std::size_t begin_ = 0, end_ = 0, chunk_ = 0;
  std::atomic<bool> busy_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // the first exception; set by whoever wins failed_
  // Chunks of the current region that have finished, on their own line so
  // the claims do not bounce it.
  alignas(64) std::atomic<std::size_t> done_{0};

  // Parking. parked_ counts helpers waiting on work_cv_; caller_parked_ is
  // set while the dispatcher waits on done_cv_ for the last chunks.
  alignas(64) std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stop_{false};  // written under mutex_

  // Last, so the helpers start after, and are joined before, what they use.
  std::vector<std::thread> helpers_;
};

}  // namespace vcdl
