// Concurrency stress for the lock-rank runtime (label: tsan): many threads
// hammering correctly-ordered ranked locks must produce zero enforcement
// aborts and zero data races in the hook bookkeeping (TLS held stacks,
// the shared LockOrderGraph). Like every test binary it links dj_guard, so
// the hooks are on.
#include <atomic>

#include <gtest/gtest.h>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace {

TEST(LockRankStressTest, ManyThreadsUphillNoFalsePositives) {
  Mutex low("stress.uphill.low", 81);
  Mutex high("stress.uphill.high", 82);
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lo(low);
        MutexLock hi(high);
        ++counter;
      }
    });
  }
  pool.Wait();
  MutexLock lo(low);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(LockRankStressTest, ConcurrentTryLockDownhillNeverAborts) {
  // TryLock skips rank enforcement (it cannot block), so a downhill
  // try-acquire under contention must never trip the validator — only
  // succeed or fail.
  Mutex low("stress.try.low", 83);
  Mutex high("stress.try.high", 84);
  std::atomic<int> acquired{0};
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock hi(high);
        if (low.TryLock()) {
          acquired.fetch_add(1, std::memory_order_relaxed);
          low.Unlock();
        }
      }
    });
  }
  pool.Wait();
  EXPECT_GT(acquired.load(), 0);
}

TEST(LockRankStressTest, CondVarPingPongUnderRankChecks) {
  // Producer/consumer handoff through a ranked mutex: every Wait pops and
  // every wakeup re-validates, thousands of times, across threads.
  Mutex mu("stress.cv.state", 85);
  CondVar cv;
  int turn = 0;  // even: ping's move, odd: pong's move
  constexpr int kRounds = 4000;
  ThreadPool pool(2);
  for (int who = 0; who < 2; ++who) {
    pool.Submit([&, who] {
      for (int r = 0; r < kRounds / 2; ++r) {
        MutexLock lock(mu);
        while (turn % 2 != who && turn < kRounds) cv.Wait(mu);
        if (turn >= kRounds) break;
        ++turn;
        cv.NotifyOne();
      }
    });
  }
  pool.Wait();
  MutexLock lock(mu);
  EXPECT_EQ(turn, kRounds);
}

}  // namespace
}  // namespace deepjoin
