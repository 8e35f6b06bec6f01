#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace deepjoin {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(5, [&order](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

using Chunks = std::vector<std::pair<size_t, size_t>>;

// Runs ParallelFor over [0, n) with a consumer that records every chunk it
// gets, checking that each call runs on the calling thread after fn(i) of
// every index in its chunk.
Chunks RunWithConsumer(ThreadPool& pool, size_t n) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> ran(n, 0);
  Chunks chunks;
  bool on_caller = true;
  bool after_fn = true;
  pool.ParallelFor(
      n, [&ran](size_t i) { ran[i] += 1; },
      [&](size_t lo, size_t hi) {
        on_caller &= std::this_thread::get_id() == caller;
        for (size_t i = lo; i < hi; ++i) after_fn &= ran[i] == 1;
        chunks.emplace_back(lo, hi);
      });
  EXPECT_TRUE(on_caller);
  EXPECT_TRUE(after_fn);
  for (int r : ran) EXPECT_EQ(r, 1);
  return chunks;
}

TEST(ThreadPoolTest, ConsumerGetsAscendingChunksCoveringRangeOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  const Chunks chunks = RunWithConsumer(pool, n);
  ASSERT_GT(chunks.size(), 1u);
  size_t next = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, next);
    EXPECT_LT(lo, hi);
    next = hi;
  }
  EXPECT_EQ(next, n);
}

TEST(ThreadPoolTest, ConsumerRunsWhileLaterChunksStillRun) {
  ThreadPool pool(4);
  const size_t n = 64;
  std::atomic<bool> first_consumed{false};
  std::atomic<bool> saw_overlap{false};
  pool.ParallelFor(
      n,
      [&](size_t i) {
        if (i != n - 1) return;
        // The last index holds its chunk open until the consumer has taken
        // the first chunk (bounded, so a consumer that waits for the whole
        // batch fails the test instead of hanging it).
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!first_consumed.load() &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        saw_overlap.store(first_consumed.load());
      },
      [&](size_t lo, size_t) {
        if (lo == 0) first_consumed.store(true);
      });
  EXPECT_TRUE(saw_overlap.load());
}

TEST(ThreadPoolTest, InlineFallbacksCallConsumerOnce) {
  ThreadPool single(1);
  EXPECT_EQ(RunWithConsumer(single, 5), (Chunks{{0, 5}}));
  ThreadPool pool(4);
  EXPECT_EQ(RunWithConsumer(pool, 1), (Chunks{{0, 1}}));
  EXPECT_EQ(RunWithConsumer(pool, 0), Chunks{});
  // Nested: a ParallelFor issued from one of the pool's own workers runs
  // inline on that worker, consumer included.
  std::atomic<int> nested_ok{0};
  pool.ParallelFor(4, [&](size_t) {
    if (RunWithConsumer(pool, 8) == Chunks{{0, 8}}) nested_ok.fetch_add(1);
  });
  EXPECT_EQ(nested_ok.load(), 4);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace deepjoin
