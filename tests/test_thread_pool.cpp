#include "common/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace vcdl {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, SubmitManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRange) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(10, 13, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 10 + 11 + 12);
}

TEST(ThreadPool, SubmitExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(2);
  ThreadPool b(2);
  EXPECT_FALSE(a.on_worker_thread());  // the test thread is not a worker
  bool inside_a = false, a_inside_b = false;
  a.submit([&] {
    inside_a = a.on_worker_thread();
    a_inside_b = b.on_worker_thread();
  }).get();
  EXPECT_TRUE(inside_a);
  EXPECT_FALSE(a_inside_b);  // membership is per pool, not global
}

// Regression: parallel_for from inside a worker used to deadlock — the
// nested chunks queued behind the very task blocking on them. Nested calls
// now run inline on the calling worker.
TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 8, [&, i](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) ++hits[i * 8 + j];
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DeeplyNestedSubmitFromWorkerStillInline) {
  ThreadPool pool(1);  // one worker: any queued nested work would deadlock
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 4, [&](std::size_t jlo, std::size_t jhi) {
        total += static_cast<int>(jhi - jlo);
      });
    }
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ParallelForIndexedChunksAreDeterministic) {
  ThreadPool pool(3);
  const std::size_t n = 100;
  ASSERT_EQ(pool.max_chunks(n), 3u);
  ASSERT_EQ(pool.max_chunks(2), 2u);  // never more chunks than items
  std::vector<std::atomic<int>> owner(n);
  for (auto& o : owner) o = -1;
  pool.parallel_for_indexed(
      0, n, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          owner[i] = static_cast<int>(chunk);
        }
      });
  // Chunk boundaries are a pure function of (range, pool size): ceil(100/3)
  // = 34 per chunk, in index order.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(owner[i].load(), static_cast<int>(i / 34));
  }
}

TEST(ThreadPool, ConcurrentSubmitters) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::future<void>> fs;
      for (int i = 0; i < 50; ++i) fs.push_back(pool.submit([&] { ++count; }));
      for (auto& f : fs) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(count.load(), 200);
}

}  // namespace
}  // namespace vcdl
