// Batcher state-machine tests (DESIGN.md §13): flush-on-size /
// flush-on-wait / flush-on-drain, deadline handling at the admission and
// queued stages, backpressure, and the allocation-free dispatch contract.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "util/alloc_guard.h"

namespace deepjoin {
namespace serve {
namespace {

void NoopDone(Request*) {}

Request MakeRequest() {
  Request r;
  r.done = &NoopDone;
  return r;
}

class ServeBatcherTest : public ::testing::Test {
 protected:
  // Collects with generous caps into the fixture arrays.
  size_t Collect(Batcher* b, size_t* num_expired) {
    batch_.assign(64, nullptr);
    expired_.assign(64, nullptr);
    return b->CollectBatch(batch_.data(), batch_.size(), expired_.data(),
                           expired_.size(), num_expired);
  }

  std::vector<Request*> batch_;
  std::vector<Request*> expired_;
};

TEST_F(ServeBatcherTest, FlushesOnBatchSize) {
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_ms = 10000;  // wait flush must not be what fires
  Batcher b(cfg);
  std::vector<Request> reqs(6, MakeRequest());
  for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
  size_t num_expired = 0;
  // 6 queued >= max_batch: collect returns immediately with exactly
  // max_batch in FIFO order, leaving the remainder queued.
  size_t n = Collect(&b, &num_expired);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(num_expired, 0u);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(batch_[i], &reqs[i]);
  EXPECT_EQ(b.depth(), 2u);
}

TEST_F(ServeBatcherTest, FlushesOnMaxWait) {
  BatcherConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 5;
  Batcher b(cfg);
  Request r = MakeRequest();
  ASSERT_TRUE(b.Submit(&r).ok());
  size_t num_expired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  size_t n = Collect(&b, &num_expired);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(batch_[0], &r);
  // A lone request flushes once it has waited ~max_wait_ms, not at the
  // (much larger) idle tick and not immediately.
  EXPECT_GE(waited_ms, 1.0);
  EXPECT_LT(waited_ms, 1000.0);
}

TEST_F(ServeBatcherTest, StopDrainsQueuedRequestsThenReturnsEmpty) {
  BatcherConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait_ms = 10000;
  Batcher b(cfg);
  std::vector<Request> reqs(3, MakeRequest());
  for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
  b.Stop();
  EXPECT_TRUE(b.stopped());
  // Stopped: everything queued flushes immediately in FIFO batches...
  size_t num_expired = 0;
  EXPECT_EQ(Collect(&b, &num_expired), 2u);
  EXPECT_EQ(Collect(&b, &num_expired), 1u);
  EXPECT_EQ(batch_[0], &reqs[2]);
  // ...then CollectBatch reports fully drained without blocking.
  EXPECT_EQ(Collect(&b, &num_expired), 0u);
  EXPECT_EQ(num_expired, 0u);
  // And new admissions are refused.
  Request late = MakeRequest();
  EXPECT_EQ(b.Submit(&late).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeBatcherTest, ExpiredAtSubmitIsRejectedWithoutQueueing) {
  Batcher b(BatcherConfig{});
  Request r = MakeRequest();
  r.deadline = Deadline::AfterMillis(-1);  // already past
  EXPECT_EQ(b.Submit(&r).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(b.depth(), 0u);
}

TEST_F(ServeBatcherTest, QueuedExpiryIsOutlistedNotBatched) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ms = 10000;
  Batcher b(cfg);
  Request expires = MakeRequest();
  expires.deadline = Deadline::AfterMillis(2);
  Request keeps = MakeRequest();
  ASSERT_TRUE(b.Submit(&expires).ok());
  ASSERT_TRUE(b.Submit(&keeps).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The expired node comes back through the expired list; the live one is
  // flushed (its presence behind an expiry must not strand it).
  size_t num_expired = 0;
  size_t n = Collect(&b, &num_expired);
  ASSERT_EQ(num_expired, 1u);
  EXPECT_EQ(expired_[0], &expires);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(batch_[0], &keeps);
  EXPECT_EQ(b.depth(), 0u);
}

TEST_F(ServeBatcherTest, NeverWaitsPastEarliestDeadline) {
  BatcherConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 10000;  // the wait flush alone would sit for 10s
  cfg.idle_poll_ms = 10000;
  Batcher b(cfg);
  Request r = MakeRequest();
  r.deadline = Deadline::AfterMillis(20);
  ASSERT_TRUE(b.Submit(&r).ok());
  size_t num_expired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  size_t n = Collect(&b, &num_expired);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // The collect wakes at the request's deadline (~20ms), orders of
  // magnitude before max_wait/idle tick, and hands it back as expired.
  EXPECT_LT(waited_ms, 2000.0);
  EXPECT_EQ(n, 0u);
  ASSERT_EQ(num_expired, 1u);
  EXPECT_EQ(expired_[0], &r);
}

TEST_F(ServeBatcherTest, BackpressurePastMaxQueue) {
  BatcherConfig cfg;
  cfg.max_queue = 3;
  Batcher b(cfg);
  std::vector<Request> reqs(4, MakeRequest());
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(b.Submit(&reqs[i]).ok());
  EXPECT_EQ(b.Submit(&reqs[3]).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.depth(), 3u);
  // Draining one batch frees admission again.
  size_t num_expired = 0;
  (void)Collect(&b, &num_expired);
  EXPECT_TRUE(b.Submit(&reqs[3]).ok());
}

// The steady-state dispatch path allocates nothing: Submit threads the
// caller-owned node into the intrusive queue, CollectBatch moves pointers
// into a caller-provided array. One thread runs Submit, CollectBatch and
// TryCollect under an allocation ban (the binary links dj_guard, so any
// allocation aborts).
TEST_F(ServeBatcherTest, DispatchPathIsAllocationFree) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  Batcher b(cfg);
  std::vector<Request> reqs(8, MakeRequest());
  Request* batch[8];
  Request* expired[8];
  size_t num_expired = 0;
  // Warm-up round: the first mutex acquisition on a thread allocates the
  // lock-rank TLS held-stack — one-time cost, not part of the steady
  // state the ban covers.
  ASSERT_TRUE(b.Submit(&reqs[0]).ok());
  ASSERT_EQ(b.CollectBatch(batch, 8, expired, 8, &num_expired), 1u);
  alloc_guard::ScopedAllocCount tally;
  {
    alloc_guard::ScopedAllocBan ban("serve dispatch steady state");
    for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
    ASSERT_EQ(b.CollectBatch(batch, 8, expired, 8, &num_expired), 8u);
    size_t try_expired = 0;
    // TryCollect shares the pointer-surgery-only contract.
    for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
    ASSERT_EQ(b.TryCollect(batch, 8, expired, 8, &try_expired), 8u);
  }
  EXPECT_EQ(tally.allocations(), 0u);
}

// TryCollect is the streaming dispatcher's boarding call: whatever is
// queued comes back immediately — no flush-window wait (the scan it
// boards onto is already running).
TEST_F(ServeBatcherTest, TryCollectTakesImmediatelyWithoutWaiting) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ms = 10000;  // a blocking collect would sit here
  cfg.idle_poll_ms = 10000;
  Batcher b(cfg);
  std::vector<Request> reqs(3, MakeRequest());
  for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
  batch_.assign(64, nullptr);
  expired_.assign(64, nullptr);
  size_t num_expired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = b.TryCollect(batch_.data(), batch_.size(),
                                expired_.data(), expired_.size(),
                                &num_expired);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited_ms, 1000.0);  // no 10s flush window
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(num_expired, 0u);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(batch_[i], &reqs[i]);  // FIFO
  EXPECT_EQ(b.depth(), 0u);
}

TEST_F(ServeBatcherTest, TryCollectEmptyQueueReturnsZeroImmediately) {
  Batcher b(BatcherConfig{});
  batch_.assign(4, nullptr);
  expired_.assign(4, nullptr);
  size_t num_expired = 7;
  EXPECT_EQ(b.TryCollect(batch_.data(), batch_.size(), expired_.data(),
                         expired_.size(), &num_expired),
            0u);
  EXPECT_EQ(num_expired, 0u);
}

TEST_F(ServeBatcherTest, TryCollectSweepsQueuedExpirations) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  Batcher b(cfg);
  Request expires = MakeRequest();
  expires.deadline = Deadline::AfterMillis(2);
  Request keeps = MakeRequest();
  ASSERT_TRUE(b.Submit(&expires).ok());
  ASSERT_TRUE(b.Submit(&keeps).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  batch_.assign(8, nullptr);
  expired_.assign(8, nullptr);
  size_t num_expired = 0;
  const size_t n = b.TryCollect(batch_.data(), batch_.size(),
                                expired_.data(), expired_.size(),
                                &num_expired);
  ASSERT_EQ(num_expired, 1u);
  EXPECT_EQ(expired_[0], &expires);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(batch_[0], &keeps);
}

TEST_F(ServeBatcherTest, TryCollectRespectsBatchCap) {
  BatcherConfig cfg;
  cfg.max_batch = 8;
  Batcher b(cfg);
  std::vector<Request> reqs(5, MakeRequest());
  for (auto& r : reqs) ASSERT_TRUE(b.Submit(&r).ok());
  batch_.assign(8, nullptr);
  expired_.assign(8, nullptr);
  size_t num_expired = 0;
  // The cap models the scan's free capacity (max_batch - active riders).
  EXPECT_EQ(b.TryCollect(batch_.data(), 2, expired_.data(), expired_.size(),
                         &num_expired),
            2u);
  EXPECT_EQ(b.depth(), 3u);
}

}  // namespace
}  // namespace serve
}  // namespace deepjoin
