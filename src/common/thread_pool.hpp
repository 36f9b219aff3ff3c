// Fixed-size worker pool with a blocking parallel_for.
//
// Used by the tensor kernels (GEMM tiling) and by the concurrent store
// benchmarks. The pool is intentionally simple: a single mutex-protected
// queue is more than enough for the coarse-grained tasks VCDL submits
// (thousands of FLOPs each), and keeps the implementation obviously correct.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vcdl {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers. parallel_for
  /// uses this to run nested invocations inline: a worker that blocked on
  /// nested chunks would deadlock, because those chunks sit in the queue
  /// behind the very task that is waiting for them.
  bool on_worker_thread() const;

  /// Runs fn(i) for i in [begin, end), splitting the range into roughly
  /// `size()` contiguous chunks. The caller executes chunk 0 itself while the
  /// workers take the rest (so the dispatching thread contributes a core
  /// instead of sleeping), then blocks until all chunks finish. Exceptions
  /// from fn propagate to the caller (first one wins) — only after every
  /// chunk has completed, so fn can never dangle. Called from a worker of
  /// this pool, the whole range runs inline on the caller (see above).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// parallel_for variant that also hands the body its chunk index
  /// (0 <= chunk < max_chunks(end - begin)), letting callers keep per-chunk
  /// scratch buffers without sharing or locks. The index should pick scratch
  /// only: a nested call runs the whole range as chunk 0, so a body whose
  /// results follow from [lo, hi) alone gives the same bits at any pool
  /// width, nested or not.
  void parallel_for_indexed(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Number of chunks parallel_for* splits an n-element range into.
  std::size_t max_chunks(std::size_t n) const {
    return std::min(n, std::max<std::size_t>(1, size()));
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace vcdl
