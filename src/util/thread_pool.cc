#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "util/metrics.h"

namespace deepjoin {

thread_local ThreadPool* ThreadPool::current_pool_ = nullptr;

namespace {

metrics::Gauge* QueueDepthGauge() {
  static metrics::Gauge* const g =
      metrics::MetricsRegistry::Global().GetGauge("dj_threadpool_queue_depth");
  return g;
}

metrics::Counter* TasksTotalCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter(
          "dj_threadpool_tasks_total");
  return c;
}

metrics::Histogram* TaskLatencyHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_threadpool_task_ms");
  return h;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    // Notify under the lock: a waiter between its predicate check and its
    // sleep cannot miss the wakeup, and the cv cannot be destroyed between
    // an unlocked notify and the waiters draining.
    task_cv_.NotifyAll();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (!stop_) {
      tasks_.push(std::move(task));
      ++in_flight_;
      TasksTotalCounter()->Increment();
      QueueDepthGauge()->Set(static_cast<double>(tasks_.size()));
      task_cv_.NotifyOne();
      return;
    }
  }
  // Shutdown has begun: the queue may never be drained again, so enqueuing
  // would lose the task or deadlock a later Wait(). Run it here instead.
  task();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) done_cv_.Wait(mu_);
}

std::function<void()> ThreadPool::TakeTaskLocked() {
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop();
  return task;
}

void ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t)>& fn,
    const std::function<void(size_t, size_t)>& on_chunk) {
  if (n == 0) return;
  const size_t threads = workers_.size();
  if (threads <= 1 || n < 2 || current_pool_ == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    if (on_chunk) on_chunk(0, n);
    return;
  }

  // Per-call batch state: ParallelFor must not return early when an
  // unrelated Submit finishes, nor block on unrelated in-flight tasks.
  struct Batch {
    Mutex mu{"threadpool.batch", rank::kPoolBatch};
    CondVar cv;
    size_t pending DJ_GUARDED_BY(mu) = 0;
    /// done[c] != 0 once chunk c has finished; sized only for a consumer.
    std::vector<u8> done DJ_GUARDED_BY(mu);
  };
  auto batch = std::make_shared<Batch>();

  const size_t chunks = std::min(threads * 4, n);
  const size_t per = (n + chunks - 1) / chunks;
  // Chunks that start below n: never more than `chunks`, since per * chunks
  // >= n.
  const size_t live = (n + per - 1) / per;
  {
    MutexLock lk(batch->mu);
    batch->pending = live;
    if (on_chunk) batch->done.assign(live, 0);
  }
  for (size_t c = 0; c < live; ++c) {
    const size_t lo = c * per;
    const size_t hi = std::min(n, lo + per);
    // `fn` is captured by reference: this call blocks on the batch below,
    // so the referent outlives every chunk.
    Submit([c, lo, hi, &fn, batch] {
      for (size_t i = lo; i < hi; ++i) fn(i);
      MutexLock lk(batch->mu);
      const bool has_consumer = !batch->done.empty();
      if (has_consumer) batch->done[c] = 1;
      if (--batch->pending == 0 || has_consumer) batch->cv.NotifyAll();
    });
  }
  if (!on_chunk) {
    MutexLock lk(batch->mu);
    while (batch->pending != 0) batch->cv.Wait(batch->mu);
    return;
  }
  // Hand each run of finished chunks to the consumer in order, outside the
  // batch lock (the consumer may take its own locks, e.g. index inserts).
  for (size_t next = 0; next < live;) {
    size_t ready = next;
    {
      MutexLock lk(batch->mu);
      while (batch->done[next] == 0) batch->cv.Wait(batch->mu);
      while (ready < live && batch->done[ready] != 0) ++ready;
    }
    for (; next < ready; ++next) {
      on_chunk(next * per, std::min(n, next * per + per));
    }
  }
}

void ThreadPool::WorkerLoop() {
  current_pool_ = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (IdleLocked()) task_cv_.Wait(mu_);
      if (DrainedLocked()) break;
      task = TakeTaskLocked();
      QueueDepthGauge()->Set(static_cast<double>(tasks_.size()));
    }
    if (metrics::Enabled()) {
      const auto start = std::chrono::steady_clock::now();
      task();
      TaskLatencyHistogram()->Record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
    } else {
      task();
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
  current_pool_ = nullptr;
}

}  // namespace deepjoin
