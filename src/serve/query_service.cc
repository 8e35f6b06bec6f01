#include "serve/query_service.h"

#include <chrono>
#include <utility>

#include "util/metrics.h"

namespace deepjoin {
namespace serve {

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---- SLO accounting (DESIGN.md §13) ----
// Function-local statics: the registry lookups allocate once per process,
// before the steady state the alloc-ban tests cover.

metrics::Counter* AdmittedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
          "dj_serve_admitted_total");
  return c;
}

metrics::Counter* RejectedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_rejected_total");
  return c;
}

metrics::Counter* ExpiredCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_expired_total");
  return c;
}

metrics::Counter* CompletedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_completed_total");
  return c;
}

metrics::Counter* BatchesCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_batches_total");
  return c;
}

metrics::Histogram* BatchSizeHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "dj_serve_batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

metrics::Histogram* QueueWaitHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "dj_serve_queue_wait_ms");
  return h;
}

metrics::Histogram* ExecuteHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_serve_execute_ms");
  return h;
}

metrics::Histogram* TotalHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_serve_total_ms");
  return h;
}

/// Completion event for the blocking Query() wrapper. One per client
/// thread (a thread has at most one blocking query in flight), reused
/// across calls.
struct Waiter {
  Mutex mu{"serve.completion", rank::kServeCompletion};
  CondVar cv;
  bool done DJ_GUARDED_BY(mu) = false;
};

void SignalWaiter(Request* r) {
  auto* const w = static_cast<Waiter*>(r->ctx);
  MutexLock lock(w->mu);
  w->done = true;
  w->cv.NotifyAll();
}

}  // namespace

QueryService::QueryService(core::EmbeddingSearcher* searcher,
                           const QueryServiceConfig& config)
    : searcher_(searcher), config_(config), batcher_(config.batcher) {
  // Dispatch arrays sized once here; the dispatcher never allocates.
  batch_.resize(config_.batcher.max_batch);
  expired_.resize(config_.batcher.max_queue);
  group_.resize(config_.batcher.max_batch);
  rider_meta_.resize(config_.batcher.max_batch);
  done_.reserve(config_.batcher.max_batch);
}

QueryService::~QueryService() { Stop(); }

void QueryService::Start() {
  {
    MutexLock lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

void QueryService::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  batcher_.Stop();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Never started: drain whatever queued inline (the stopped batcher
    // flushes immediately, so this terminates once the queue empties).
    DispatcherLoop();
  }
}

Status QueryService::Submit(Request* r) {
  // Per-query trace trees are incompatible with batched dispatch; latency
  // accounting happens through the dj_serve_* histograms instead.
  r->options.collect_stats = false;
  // A reused node must not carry its previous query's latency record: a
  // completion that never executes (expiry, no index) writes no exec_ms,
  // and Complete files the record as it stands.
  r->queue_ms = 0.0;
  r->exec_ms = 0.0;
  r->total_ms = 0.0;
  Status st = batcher_.Submit(r);
  if (st.ok()) {
    AdmittedCounter()->Increment();
  } else if (st.code() == StatusCode::kResourceExhausted) {
    RejectedCounter()->Increment();
  } else if (st.code() == StatusCode::kDeadlineExceeded) {
    ExpiredCounter()->Increment();
  }
  return st;
}

Status QueryService::Query(Request* req) {
  thread_local Waiter waiter;
  {
    MutexLock lock(waiter.mu);
    waiter.done = false;
  }
  req->done = &SignalWaiter;
  req->ctx = &waiter;
  DJ_RETURN_IF_ERROR(Submit(req));
  // Even an expired request completes (with DeadlineExceeded) rather than
  // being abandoned, so this wait always terminates; the bound is a
  // re-check tick, not a timeout.
  MutexLock lock(waiter.mu);
  while (!waiter.done) {
    (void)waiter.cv.WaitFor(waiter.mu, std::chrono::milliseconds(10));
  }
  return req->status;
}

Status QueryService::Query(const lake::Column& query,
                           const core::SearchOptions& options,
                           Deadline deadline,
                           core::EmbeddingSearcher::SearchResult* out) {
  Request req;
  req.query = &query;
  req.options = options;
  req.deadline = deadline;
  Status st = Query(&req);
  *out = std::move(req.result);
  return st;
}

void QueryService::DispatcherLoop() {
  for (;;) {
    size_t num_expired = 0;
    const size_t n =
        batcher_.CollectBatch(batch_.data(), batch_.size(), expired_.data(),
                              expired_.size(), &num_expired);
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < num_expired; ++i) {
      // Queue-stage expiry: completes without touching encode or the ANN
      // index (the metrics-visible short-circuit the tests assert).
      Request* const r = expired_[i];
      r->queue_ms = Ms(now - r->admit_time);
      Complete(r, Status::DeadlineExceeded("deadline expired in queue"));
    }
    if (n == 0) {
      if (num_expired == 0) break;  // stopped and fully drained
      continue;
    }
    core::EmbeddingSearcher::StreamScan scan = searcher_->NewStreamScan();
    if (!scan.valid()) {
      const auto now = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; ++i) {
        Request* const r = batch_[i];
        r->queue_ms = Ms(now - r->admit_time);
        Complete(r, Status::FailedPrecondition(
                        "query before the searcher has an index"));
      }
      continue;
    }
    RunStreamScan(&scan, batch_.data(), n);
  }
}

size_t QueryService::BoardGroup(core::EmbeddingSearcher::StreamScan* scan,
                                Request** batch, size_t n) {
  const auto now = std::chrono::steady_clock::now();
  size_t boarded = 0;
  for (size_t i = 0; i < n; ++i) {
    Request* const r = batch[i];
    r->queue_ms = Ms(now - r->admit_time);
    // Batched-stage expiry: the deadline passed between collection and
    // boarding — short-circuit before the encode stage.
    if (r->deadline.expired(now)) {
      Complete(r,
               Status::DeadlineExceeded("deadline expired before execution"));
      continue;
    }
    batch[boarded] = r;
    group_[boarded] = {r->query, r->options};
    ++boarded;
  }
  if (boarded == 0) return 0;
  scan->Board(group_.data(), boarded, config_.encode_pool);
  for (size_t i = 0; i < boarded; ++i) {
    const size_t slot = group_[i].slot;
    if (slot >= rider_meta_.size()) rider_meta_.resize(slot + 1);
    rider_meta_[slot] = RiderMeta{batch[i], now};
  }
  // Each boarding group is one "batch" in SLO terms: the cohort encoded
  // together (and, on flat, sharing its corpus stream).
  BatchesCounter()->Increment();
  BatchSizeHistogram()->Record(static_cast<double>(boarded));
  return boarded;
}

void QueryService::RunStreamScan(core::EmbeddingSearcher::StreamScan* scan,
                                 Request** batch, size_t n) {
  BoardGroup(scan, batch, n);
  while (!scan->empty()) {
    done_.clear();
    scan->Step(&done_);
    if (!done_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      for (const size_t slot : done_) {
        Request* const r = rider_meta_[slot].req;
        scan->Harvest(slot, &r->result);
        r->exec_ms = Ms(now - rider_meta_[slot].boarded);
        if (r->deadline.expired(now)) {
          // Executed, but too late to count: DeadlineExceeded for the
          // caller, expired (not goodput) for SLO accounting.
          Complete(r, Status::DeadlineExceeded(
                          "deadline expired during execution"));
        } else {
          Complete(r, Status::OK());
        }
      }
    }
    // Board new arrivals between tiles — the cooperative move that keeps
    // a low-rate arrival from waiting out the whole in-flight pass. A
    // stale session (snapshot republished underneath) stops boarding and
    // drains; the dispatcher loop reopens against the fresh snapshot.
    if (scan->active() < config_.batcher.max_batch && !scan->stale()) {
      size_t num_expired = 0;
      const size_t m = batcher_.TryCollect(
          batch_.data(), config_.batcher.max_batch - scan->active(),
          expired_.data(), expired_.size(), &num_expired);
      if (num_expired > 0) {
        const auto now = std::chrono::steady_clock::now();
        for (size_t i = 0; i < num_expired; ++i) {
          // Queue-stage expiry, same as the dispatcher loop's sweep.
          Request* const r = expired_[i];
          r->queue_ms = Ms(now - r->admit_time);
          Complete(r, Status::DeadlineExceeded("deadline expired in queue"));
        }
      }
      if (m > 0) BoardGroup(scan, batch_.data(), m);
    }
  }
}

void QueryService::Complete(Request* r, Status status) {
  r->total_ms = Ms(std::chrono::steady_clock::now() - r->admit_time);
  r->status = std::move(status);
  if (r->status.ok()) {
    CompletedCounter()->Increment();
  } else if (r->status.code() == StatusCode::kDeadlineExceeded) {
    ExpiredCounter()->Increment();
  }
  QueueWaitHistogram()->Record(r->queue_ms);
  ExecuteHistogram()->Record(r->exec_ms);
  TotalHistogram()->Record(r->total_ms);
  // Callback last, with no locks held; after it fires the node belongs to
  // the caller again.
  r->done(r);
}

}  // namespace serve
}  // namespace deepjoin
