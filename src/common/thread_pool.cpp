#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vcdl {
namespace {
// Which pool (if any) the current thread is a worker of. Set once per worker
// at startup; read by on_worker_thread() to detect nested parallel_for calls.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  auto fut = pt.get_future();
  {
    std::lock_guard lock(mutex_);
    VCDL_CHECK(!stop_, "submit() on a stopped ThreadPool");
    tasks_.push(std::move(pt));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_indexed(
      begin, end,
      [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
}

void ThreadPool::parallel_for_indexed(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = max_chunks(n);
  // Single chunk, or a nested call from one of our own workers: run inline.
  // Queued nested chunks would sit behind the blocked caller — deadlock.
  if (chunks == 1 || on_worker_thread()) {
    fn(0, begin, end);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(submit([&fn, c, lo, hi] { fn(c, lo, hi); }));
  }
  // The caller runs chunk 0 itself instead of blocking on the futures: on a
  // host with as many cores as workers, a sleeping dispatcher thread would
  // otherwise leave the pool oversubscribed by one during every parallel
  // region. Chunk boundaries are unchanged, so results are too.
  std::exception_ptr first;
  try {
    fn(0, begin, std::min(end, begin + chunk));
  } catch (...) {
    first = std::current_exception();
  }
  // Drain EVERY future before returning, even after a failure: `fn` lives in
  // the caller's frame, so unwinding while a chunk is still queued or running
  // would leave that chunk a dangling reference. First failure wins.
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

}  // namespace vcdl
