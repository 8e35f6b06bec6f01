// Concurrent query-serving layer (DESIGN.md §13): admission control with
// bounded-queue backpressure, an adaptive batcher that coalesces waiting
// queries into boarding groups, per-request deadlines enforced at every
// stage, and SLO accounting through MetricsRegistry (dj_serve_* counters
// and latency histograms, exported by the existing JSON/Prometheus
// snapshot path).
//
// Shape: clients Submit() caller-owned Request nodes (or use the blocking
// Query() wrapper); one dispatcher thread loops CollectBatch -> deadline
// re-check -> streaming execution -> completions. The steady-state
// dispatch path allocates nothing: requests thread through intrusive
// queues, groups land in preallocated arrays, and rider slots reuse their
// buffers across queries.
//
// Execution is one loop for every backend: the dispatcher drives an
// EmbeddingSearcher::StreamScan session. Each boarding group is encoded
// together (on encode_pool when given) and every request rides with its
// own SearchOptions. On a flat backend riders share a cooperative scan:
// the corpus is scored one tile at a time, completed riders are harvested
// and new arrivals board between tiles — so at low offered rates a query
// never waits out a full in-flight corpus pass, while at load every rider
// on a tile shares its corpus stream. On other backends a rider is
// searched when it boards and completes on the next step.
#ifndef DEEPJOIN_SERVE_QUERY_SERVICE_H_
#define DEEPJOIN_SERVE_QUERY_SERVICE_H_

#include <thread>
#include <vector>

#include "core/searcher.h"
#include "serve/batcher.h"
#include "serve/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace serve {

struct QueryServiceConfig {
  BatcherConfig batcher;
  /// Optional pool for the batch-encode stage (nullptr = encode inline on
  /// the dispatcher thread — right for single-core hosts).
  ThreadPool* encode_pool = nullptr;
};

class QueryService {
 public:
  /// `searcher` must outlive the service. Requests that execute before it
  /// has an index (BuildIndex/AddColumn/OpenLive) complete with
  /// FailedPrecondition.
  QueryService(core::EmbeddingSearcher* searcher,
               const QueryServiceConfig& config);
  /// Stops and drains if still running.
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Starts the dispatcher thread. Requests submitted before Start()
  /// queue up (subject to the same admission bounds) and execute once the
  /// dispatcher runs.
  void Start();

  /// Stops admissions, drains the queue (every admitted request completes
  /// — executed or DeadlineExceeded), and joins the dispatcher.
  void Stop();

  /// Async admission: on OK the node is owned by the service until its
  /// `done` callback fires (exactly once, with no locks held). Errors —
  /// ResourceExhausted (queue full), DeadlineExceeded (already expired;
  /// never enqueued), FailedPrecondition (stopped) — mean the node was
  /// NOT admitted and `done` will not fire. `r->options.collect_stats` is
  /// forced off (per-query trace trees are incompatible with batched
  /// dispatch; SLO accounting happens through metrics instead).
  [[nodiscard]] Status Submit(Request* r);

  /// Blocking wrapper: submits `req` and waits (time-bounded re-check
  /// loop) for its completion. Returns req->status. The caller owns the
  /// node and may reuse it — result buffers keep their capacity, so a
  /// steady-state client loop allocates nothing.
  [[nodiscard]] Status Query(Request* req);

  /// Convenience blocking query into a fresh result.
  [[nodiscard]] Status Query(const lake::Column& query,
                             const core::SearchOptions& options,
                             Deadline deadline,
                             core::EmbeddingSearcher::SearchResult* out);

  size_t queue_depth() const { return batcher_.depth(); }

 private:
  void DispatcherLoop();
  /// Streaming execution: boards `batch`, then loops Step -> harvest
  /// completions -> board new arrivals until the session drains. Returns
  /// when empty (or when the session goes stale and has drained — the
  /// caller reopens against the fresh snapshot).
  void RunStreamScan(core::EmbeddingSearcher::StreamScan* scan,
                     Request** batch, size_t n);
  /// Boards up to `n` requests onto the session as one group, encoded on
  /// config_.encode_pool (deadline-gated: expired requests complete
  /// without touching encode; `batch` is compacted in place to the
  /// boarded requests). Returns boarded count.
  size_t BoardGroup(core::EmbeddingSearcher::StreamScan* scan,
                    Request** batch, size_t n);
  /// Sets status/metrics and fires `done`. `code` selects the SLO bucket.
  void Complete(Request* r, Status status);

  core::EmbeddingSearcher* const searcher_;
  const QueryServiceConfig config_;
  Batcher batcher_;
  std::thread dispatcher_;

  /// Lifecycle state (admission itself is gated inside the batcher).
  mutable Mutex mu_{"searcher.serve_queue", rank::kServeQueue};
  bool started_ DJ_GUARDED_BY(mu_) = false;
  bool stopping_ DJ_GUARDED_BY(mu_) = false;

  // ---- dispatcher-thread state (preallocated; no per-batch allocation) ----
  std::vector<Request*> batch_;
  std::vector<Request*> expired_;
  /// The boarding group handed to StreamScan::Board.
  std::vector<core::EmbeddingSearcher::StreamScan::Boarder> group_;
  // Rider slot -> its request and boarding time (slots are bounded by
  // max_batch — boarding stops at capacity).
  struct RiderMeta {
    Request* req = nullptr;
    std::chrono::steady_clock::time_point boarded{};
  };
  std::vector<RiderMeta> rider_meta_;
  std::vector<size_t> done_;  ///< completed-rider scratch
};

}  // namespace serve
}  // namespace deepjoin

#endif  // DEEPJOIN_SERVE_QUERY_SERVICE_H_
