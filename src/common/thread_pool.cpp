#include "common/thread_pool.hpp"

#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace vcdl {
namespace {

// How long an idle helper, or a dispatcher waiting for the last chunks,
// spins before it parks. A 4-thread training step at the quickstart shapes
// opens about 20 regions in 2.4 ms, so a helper spinning this long catches
// the next one without a wake-up; a pool left idle longer costs this much
// CPU per helper and then sleeps.
constexpr std::chrono::microseconds kSpinTime{100};

// The region word: epoch in the high 32 bits, then the chunk count and the
// next chunk to claim in 16 bits each. Each participant makes at most one
// failed claim per published region, so `next` stays at most
// count + P + 1 <= 2^15 + 1 and never carries into the count.
constexpr std::size_t kMaxThreads = std::size_t{1} << 14;

std::uint64_t pack(std::uint64_t epoch, std::size_t count) {
  return (epoch << 32) | (static_cast<std::uint64_t>(count) << 16);
}
std::uint32_t epoch_of(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32);
}
std::size_t count_of(std::uint64_t w) { return (w >> 16) & 0xffff; }
std::size_t next_of(std::uint64_t w) { return w & 0xffff; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Spins until ready() holds or kSpinTime has passed; returns ready().
template <typename Pred>
bool spin_until(const Pred& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinTime;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

// The pool whose chunks the current thread runs: set for good on a helper,
// and for the length of a region on its dispatcher. on_worker_thread() reads
// it to detect nested parallel_for_indexed calls.
thread_local const ThreadPool* t_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  VCDL_CHECK(threads <= kMaxThreads,
             "ThreadPool: at most " + std::to_string(kMaxThreads) + " threads");
  size_ = threads;
  helpers_.reserve(threads - 1);
  try {
    for (std::size_t i = 1; i < threads; ++i) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  } catch (...) {
    stop_and_join();  // the helpers already started
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (auto& h : helpers_) h.join();
}

bool ThreadPool::on_worker_thread() const { return t_pool == this; }

void ThreadPool::parallel_for_indexed(std::size_t begin, std::size_t end,
                                      const Body& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = max_chunks(n);
  // One chunk, a nested call from a participant, or a region that another
  // thread is running on this pool: run the whole range inline. One region
  // runs at a time, so a nested region would wait on its own chunk.
  if (chunks == 1 || on_worker_thread() ||
      busy_.exchange(true, std::memory_order_acquire)) {
    fn(0, begin, end);
    return;
  }
  fn_ = &fn;
  begin_ = begin;
  end_ = end;
  chunk_ = (n + chunks - 1) / chunks;
  // Trailing chunks that would start past `end` are not run at all.
  const std::size_t count = (n + chunk_ - 1) / chunk_;
  done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  // Publish, then wake parked helpers. A helper parks only after it counted
  // itself in parked_ and saw the old epoch, both under mutex_; with both
  // sides seq_cst, either it sees this word or this load sees it parked.
  const std::uint64_t epoch =
      epoch_of(region_.load(std::memory_order_relaxed)) + 1;
  region_.store(pack(epoch, count), std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard lock(mutex_);
    work_cv_.notify_all();
  }

  const ThreadPool* outer = t_pool;
  t_pool = this;
  run_chunks();
  // Every chunk is claimed; wait for those other participants still run.
  const auto finished = [&] {
    return done_.load(std::memory_order_seq_cst) == count;
  };
  if (!spin_until(finished)) {
    std::unique_lock lock(mutex_);
    caller_parked_.store(true, std::memory_order_seq_cst);
    done_cv_.wait(lock, finished);
    caller_parked_.store(false, std::memory_order_relaxed);
  }
  t_pool = outer;
  std::exception_ptr error = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

std::uint64_t ThreadPool::run_chunks() {
  for (;;) {
    // A claim that lands on a newer region than the one its caller saw
    // published is a claim on that region; the descriptor is read after it.
    const std::uint64_t w = region_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t count = count_of(w);
    const std::size_t c = next_of(w);
    if (c >= count) return w;
    const std::size_t lo = begin_ + c * chunk_;
    try {
      (*fn_)(c, lo, std::min(end_, lo + chunk_));
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
    }
    // The last chunk to finish wakes a dispatcher that stopped spinning.
    // Mirror of the publish handshake: the dispatcher sets caller_parked_
    // before it reads done_ under mutex_.
    if (done_.fetch_add(1, std::memory_order_seq_cst) + 1 == count &&
        caller_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(mutex_);
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::helper_loop() {
  t_pool = this;
  // Epoch 0 is the empty word the pool starts with, so a helper that starts
  // after the first region was published still joins it.
  std::uint32_t seen = 0;
  const auto has_work = [&] {
    return epoch_of(region_.load(std::memory_order_seq_cst)) != seen ||
           stop_.load(std::memory_order_relaxed);
  };
  for (;;) {
    if (!spin_until(has_work)) {
      std::unique_lock lock(mutex_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      work_cv_.wait(lock, has_work);
      parked_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = epoch_of(run_chunks());
  }
}

}  // namespace vcdl
