// Fixed-size thread pool with a ParallelFor helper. Stands in for the GPU in
// the paper's "DeepJoin (GPU)" rows: query encoding is embarrassingly
// parallel across queries, so batching over a pool reproduces the shape of
// the accelerated path (see DESIGN.md, substitution table).
//
// Concurrency contract (annotated via util/mutex.h and checked at compile
// time under -Wthread-safety; exercised by thread_pool_stress_test under
// TSan):
//  - Submit/Wait/ParallelFor may be called from any thread, including from
//    inside tasks running on this pool.
//  - Submit racing pool destruction never touches a dead queue: once
//    shutdown has begun, Submit runs the task inline on the calling thread.
//  - ParallelFor called from inside one of this pool's own tasks runs
//    inline (queuing chunks and blocking would deadlock once every worker
//    did the same).
#ifndef DEEPJOIN_UTIL_THREAD_POOL_H_
#define DEEPJOIN_UTIL_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/mutex.h"

namespace deepjoin {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw. If the pool is shutting down,
  /// the task runs inline on the calling thread instead of being enqueued.
  void Submit(std::function<void()> task) DJ_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have finished, including tasks
  /// submitted by other threads while this call is waiting.
  void Wait() DJ_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n), partitioned into contiguous chunks across
  /// the pool, and blocks until done — without waiting on unrelated tasks
  /// (each call tracks its own batch). Falls back to inline execution for a
  /// single-thread pool, tiny n, or when called from a worker of this pool.
  ///
  /// `on_chunk`, if set, is the consumer of finished work: on_chunk(lo, hi)
  /// runs on the calling thread, in ascending order over contiguous chunks
  /// that cover [0, n) exactly once, as soon as fn(i) has returned for
  /// every i < hi — so the caller works through finished chunks while later
  /// ones still run, instead of sleeping. It runs with no pool or batch lock
  /// held, and ParallelFor returns after the last call. The inline
  /// fallbacks call on_chunk(0, n) once, after every fn(i).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::function<void(size_t, size_t)>& on_chunk = {})
      DJ_EXCLUDES(mu_);

 private:
  void WorkerLoop() DJ_EXCLUDES(mu_);

  /// True once shutdown has begun and the queue has drained — the worker's
  /// exit condition.
  bool DrainedLocked() const DJ_REQUIRES(mu_) {
    return stop_ && tasks_.empty();
  }

  /// True while a worker should keep sleeping on task_cv_.
  bool IdleLocked() const DJ_REQUIRES(mu_) {
    return !stop_ && tasks_.empty();
  }

  /// Pops the next task; the queue must be non-empty.
  std::function<void()> TakeTaskLocked() DJ_REQUIRES(mu_);

  /// The pool whose worker thread we are currently on, or nullptr.
  static thread_local ThreadPool* current_pool_;

  std::vector<std::thread> workers_;
  // Rank: workers touch the metrics registry (first-use registration)
  // while holding the queue lock, so kPool must stay below kMetrics.
  Mutex mu_{"threadpool.queue", rank::kPool};
  CondVar task_cv_;
  CondVar done_cv_;
  std::queue<std::function<void()>> tasks_ DJ_GUARDED_BY(mu_);
  size_t in_flight_ DJ_GUARDED_BY(mu_) = 0;
  bool stop_ DJ_GUARDED_BY(mu_) = false;
};

}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_THREAD_POOL_H_
