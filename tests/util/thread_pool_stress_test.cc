// Stress tests for the ThreadPool concurrency contract (thread_pool.h).
// Labeled `tsan` in tests/CMakeLists.txt: tools/check.sh runs them under
// -fsanitize=thread, where a racing Submit/Wait/shutdown shows up as a
// report instead of a rare hang.
#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace deepjoin {
namespace {

TEST(ThreadPoolStressTest, SubmitFromInsideTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  // Wait must cover grandchildren: every child is registered before its
  // parent finishes, so in_flight_ never dips to zero early.
  pool.Wait();
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForAndWaitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &sum] {
      for (int round = 0; round < 25; ++round) {
        pool.ParallelFor(64, [&sum](size_t) { sum.fetch_add(1); });
        pool.Wait();
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(sum.load(), 4L * 25 * 64);
}

TEST(ThreadPoolStressTest, ConsumerParallelForsBesideUnrelatedSubmits) {
  ThreadPool pool(4);
  std::atomic<long> unrelated{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &unrelated, &bad, t] {
      for (int round = 0; round < 25; ++round) {
        pool.Submit([&unrelated] { unrelated.fetch_add(1); });
        // Plain (non-atomic) rows: the consumer reads what fn wrote on a
        // worker, so TSan checks the chunk handoff's happens-before.
        const size_t n = 64 + static_cast<size_t>(t * 7 + round);
        std::vector<size_t> rows(n, 0);
        size_t next = 0;
        pool.ParallelFor(
            n, [&rows](size_t i) { rows[i] = i + 1; },
            [&rows, &next, &bad](size_t lo, size_t hi) {
              if (lo != next) bad.fetch_add(1);
              for (size_t i = lo; i < hi; ++i) {
                if (rows[i] != i + 1) bad.fetch_add(1);
              }
              next = hi;
            });
        if (next != n) bad.fetch_add(1);
      }
    });
  }
  for (auto& d : drivers) d.join();
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(unrelated.load(), 4L * 25);
}

TEST(ThreadPoolStressTest, ParallelForDoesNotWaitOnUnrelatedTasks) {
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> hits{0};
  // A long-running unrelated task must not stall ParallelFor's return
  // (each ParallelFor tracks its own batch, not global in-flight count).
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.ParallelFor(32, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 32);
  release.store(true);
  pool.Wait();
}

TEST(ThreadPoolStressTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  pool.ParallelFor(8, [&pool, &hits](size_t) {
    pool.ParallelFor(8, [&hits](size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolStressTest, SubmitRacingShutdownNeverLosesTheTask) {
  std::atomic<int> count{0};
  std::atomic<bool> in_task{false};
  {
    ThreadPool pool(2);
    pool.Submit([&pool, &count, &in_task] {
      in_task.store(true);
      // Let the destructor begin; the nested Submit then lands either
      // before stop_ (drained by the worker) or after (run inline) — in
      // both interleavings it must execute exactly once.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pool.Submit([&count] { count.fetch_add(1); });
    });
    while (!in_task.load()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolStressTest, ShutdownDrainsQueuedWorkThatSpawnsMore) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&pool, &count] {
        pool.Submit([&count] { count.fetch_add(1); });
      });
    }
    // Destructor runs while children are still being spawned.
  }
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace deepjoin
