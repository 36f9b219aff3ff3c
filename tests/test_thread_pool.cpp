#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <latch>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vcdl {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// The Threads: count of /proc/self/status; 0 when it cannot be read.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

// A pool of width P is its caller plus P − 1 helper threads: width 1 starts
// none.
TEST(ThreadPool, WidthPStartsPMinusOneThreads) {
  std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "no Threads: line in /proc/self/status";
  // A thread an earlier test joined leaves the count a moment after join()
  // returns, so wait until two reads 1 ms apart agree.
  for (std::size_t prev = 0; prev != before;) {
    prev = before;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    before = thread_count();
  }
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::size_t helpers = 0;
  for (const std::size_t width : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<ThreadPool>(width));
    helpers += width - 1;
    EXPECT_EQ(thread_count(), before + helpers) << "with a pool of " << width;
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_indexed(
      0, hits.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_indexed(
      5, 5, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRange) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for_indexed(
      10, 13, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
      });
  EXPECT_EQ(sum.load(), 10 + 11 + 12);
}

TEST(ThreadPool, ParallelForExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_indexed(
          0, 100,
          [&](std::size_t, std::size_t lo, std::size_t) {
            if (lo == 0) throw std::runtime_error("chunk failed");
          }),
      std::runtime_error);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(2);
  ThreadPool b(2);
  EXPECT_FALSE(a.on_worker_thread());  // the test thread is not a worker
  std::atomic<bool> inside_a{true}, a_inside_b{false};
  a.parallel_for_indexed(0, 2, [&](std::size_t, std::size_t, std::size_t) {
    if (!a.on_worker_thread()) inside_a = false;
    if (b.on_worker_thread()) a_inside_b = true;
  });
  EXPECT_TRUE(inside_a.load());
  EXPECT_FALSE(a_inside_b.load());  // membership is per pool, not global
}

// Regression: parallel_for_indexed from inside a worker used to deadlock — the
// nested chunks queued behind the very task blocking on them. Nested calls
// now run inline on the calling worker.
TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_indexed(0, 8, [&](std::size_t, std::size_t lo,
                                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for_indexed(
          0, 8, [&, i](std::size_t, std::size_t jlo, std::size_t jhi) {
            for (std::size_t j = jlo; j < jhi; ++j) ++hits[i * 8 + j];
          });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRegionOnWidthOnePoolRunsInline) {
  ThreadPool pool(1);  // the caller alone: every region runs inline on it
  std::atomic<int> total{0};
  pool.parallel_for_indexed(0, 4, [&](std::size_t, std::size_t lo,
                                       std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for_indexed(
          0, 4, [&](std::size_t, std::size_t jlo, std::size_t jhi) {
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

// --- Fork-join regions --------------------------------------------------------

// Runs one region over [0, n) and checks the split: every index once, each
// chunk the contiguous range the chunk index names.
void expect_region_covers(ThreadPool& pool, std::size_t n,
                          std::vector<std::atomic<int>>& hits) {
  for (std::size_t i = 0; i < n; ++i) hits[i] = 0;
  const std::size_t chunks = pool.max_chunks(n);
  const std::size_t per = (n + chunks - 1) / chunks;
  std::atomic<int> bad_chunks{0};
  pool.parallel_for_indexed(
      0, n, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        if (chunk >= chunks || lo != chunk * per ||
            hi != std::min(n, lo + per)) {
          ++bad_chunks;
        }
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
  EXPECT_EQ(bad_chunks.load(), 0) << "n = " << n;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPool, ManyBackToBackRegionsCoverEveryIndexOnce) {
  ThreadPool pool(4);
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> size(1, 97);
  std::vector<std::atomic<int>> hits(97);
  for (int region = 0; region < 10000; ++region) {
    expect_region_covers(pool, size(rng), hits);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// Whichever chunk throws, and whichever participant runs it, the exception
// reaches the caller once every other chunk has finished, and the next
// region runs normally.
TEST(ThreadPool, ExceptionFromAnyChunkReachesCallerAfterTheRest) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(40);
  for (std::size_t thrower = 0; thrower < 4; ++thrower) {
    std::atomic<int> finished{0};
    try {
      pool.parallel_for_indexed(
          0, 40, [&](std::size_t chunk, std::size_t, std::size_t) {
            if (chunk == thrower) throw std::runtime_error("chunk failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++finished;
          });
      ADD_FAILURE() << "no exception from chunk " << thrower;
    } catch (const std::runtime_error&) {
      EXPECT_EQ(finished.load(), 3) << "thrower " << thrower;
    }
    expect_region_covers(pool, 40, hits);
  }
}

// With every participant held inside its first chunk until all four chunks
// have started, the caller and each of the three helpers run exactly one.
// Each then opens a nested region, which runs inline on that thread as one
// chunk over its whole range.
TEST(ThreadPool, NestedRegionsRunInlineFromCallerAndHelperChunks) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> entered{0}, inline_nested{0}, on_caller{0};
  std::atomic<bool> all_entered{false};
  pool.parallel_for_indexed(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    ++entered;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (entered.load() == 4) all_entered = true;
    const auto self = std::this_thread::get_id();
    if (self == caller) ++on_caller;
    pool.parallel_for_indexed(
        0, 8, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          if (chunk == 0 && lo == 0 && hi == 8 &&
              std::this_thread::get_id() == self) {
            ++inline_nested;
          }
        });
  });
  EXPECT_TRUE(all_entered.load());
  EXPECT_EQ(on_caller.load(), 1);
  EXPECT_EQ(inline_nested.load(), 4);
  EXPECT_FALSE(pool.on_worker_thread());  // only while it runs a chunk
}

// Two threads that are not part of the pool dispatch regions on it at once.
TEST(ThreadPool, TwoExternalThreadsDispatchAtTheSameTime) {
  ThreadPool pool(4);
  std::latch start(2);
  std::vector<std::thread> dispatchers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    dispatchers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(11 + t));
      std::uniform_int_distribution<std::size_t> size(1, 64);
      std::vector<std::atomic<int>> hits(64);
      start.arrive_and_wait();
      for (int region = 0; region < 2000; ++region) {
        const std::size_t n = size(rng);
        for (std::size_t i = 0; i < n; ++i) hits[i] = 0;
        pool.parallel_for_indexed(
            0, n, [&](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) ++hits[i];
            });
        for (std::size_t i = 0; i < n; ++i) {
          if (hits[i].load() != 1) ++failures;
        }
      }
    });
  }
  for (auto& d : dispatchers) d.join();
  EXPECT_EQ(failures.load(), 0);
}

// Destroyed right after a region, the helpers are still spinning.
TEST(ThreadPool, DestroyedWhileHelpersSpin) {
  for (int i = 0; i < 50; ++i) {
    std::atomic<int> sum{0};
    {
      ThreadPool pool(4);
      pool.parallel_for_indexed(
          0, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
            sum += static_cast<int>(hi - lo);
          });
    }
    EXPECT_EQ(sum.load(), 4);
  }
}

// Destroyed after idling far longer than the spin bound, the helpers are
// parked; the destructor must wake and join them.
TEST(ThreadPool, DestroyedWhileHelpersParked) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    pool.parallel_for_indexed(
        0, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
          sum += static_cast<int>(hi - lo);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Parked helpers wake for the next region, too.
    pool.parallel_for_indexed(
        0, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
          sum += static_cast<int>(hi - lo);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(sum.load(), 8);
}

}  // namespace
}  // namespace vcdl
