// End-to-end QueryService tests (DESIGN.md §13): served results match the
// single-query path with each request's own options, deadline expiry
// short-circuits before encode (metrics-asserted), backpressure surfaces
// as ResourceExhausted, and the SLO counters account for every submitted
// request.
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/metrics.h"

namespace deepjoin {
namespace serve {
namespace {

u64 CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->value();
}

class ServeQueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(808));
    repo_ = gen.GenerateRepository(300);
    queries_ = gen.GenerateQueries(8);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<core::FastTextColumnEncoder>(
        embedder_.get(), core::TransformConfig{});
    core::SearcherConfig sc;
    sc.backend = core::AnnBackend::kFlat;
    searcher_ = std::make_unique<core::EmbeddingSearcher>(encoder_.get(), sc);
    ASSERT_TRUE(searcher_->BuildIndex(repo_).ok());
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<core::FastTextColumnEncoder> encoder_;
  std::unique_ptr<core::EmbeddingSearcher> searcher_;
};

TEST_F(ServeQueryServiceTest, BlockingQueryMatchesDirectSearch) {
  QueryService service(searcher_.get(), QueryServiceConfig{});
  service.Start();
  for (const auto& q : queries_) {
    core::EmbeddingSearcher::SearchResult served;
    ASSERT_TRUE(
        service.Query(q, {.k = 10}, Deadline::Infinite(), &served).ok());
    auto direct = searcher_->Search(q, {.k = 10, .collect_stats = false});
    EXPECT_EQ(served.ids, direct.ids);
  }
  service.Stop();
}

TEST_F(ServeQueryServiceTest, AsyncBatchCompletesEveryRequest) {
  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_ms = 1.0;
  QueryService service(searcher_.get(), cfg);
  service.Start();
  constexpr size_t kInFlight = 16;
  std::vector<Request> reqs(kInFlight);
  std::atomic<int> completions{0};
  for (size_t i = 0; i < kInFlight; ++i) {
    reqs[i].query = &queries_[i % queries_.size()];
    reqs[i].options = {.k = 5};
    reqs[i].ctx = &completions;
    reqs[i].done = [](Request* r) {
      static_cast<std::atomic<int>*>(r->ctx)->fetch_add(1);
    };
    ASSERT_TRUE(service.Submit(&reqs[i]).ok());
  }
  service.Stop();  // drains: exactly one completion per admitted request
  EXPECT_EQ(completions.load(), static_cast<int>(kInFlight));
  for (auto& r : reqs) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.result.ids.size(), 5u);
    EXPECT_GE(r.total_ms, r.queue_ms);
  }
}

// Every request rides with its own options. One batch mixing k,
// ef_search and refine_factor over an SQ8 index with a float refinement
// store serves each request exactly what a direct Search with the same
// options returns, on the flat shared scan and on HNSW alike.
TEST_F(ServeQueryServiceTest, MixedOptionsMatchDirectSearch) {
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(808));
  const std::vector<lake::Column> queries = gen.GenerateQueries(32);
  const std::string path = ::testing::TempDir() + "/serve_mixed_sq8.djx";
  for (const auto backend :
       {core::AnnBackend::kFlat, core::AnnBackend::kHnsw}) {
    SCOPED_TRACE(backend == core::AnnBackend::kFlat ? "flat" : "hnsw");
    core::SearcherConfig sc;
    sc.backend = backend;
    core::EmbeddingSearcher built(encoder_.get(), sc);
    ASSERT_TRUE(built.BuildIndex(repo_).ok());
    ann::SaveOptions save;
    save.storage = ann::StorageKind::kSq8;
    save.keep_float_refine = true;
    ASSERT_TRUE(built.SaveIndex(path, nullptr, save).ok());
    core::EmbeddingSearcher searcher(encoder_.get(), sc);
    ASSERT_TRUE(searcher.LoadIndex(path).ok());

    // Each query is sent four times in a row: k 3 then 7, each unrefined
    // then with refine_factor 4; ef_search alternates between queries.
    std::vector<Request> reqs(4 * queries.size());
    QueryServiceConfig cfg;
    cfg.batcher.max_batch = reqs.size();
    QueryService service(&searcher, cfg);
    // Submit-before-Start so the mixed batch is collected as one flush.
    for (size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].query = &queries[i / 4];
      reqs[i].options = {.k = i % 4 < 2 ? size_t{3} : size_t{7},
                         .ef_search = (i / 4) % 2 == 0 ? 0 : 24,
                         .refine_factor = i % 2 == 0 ? 0 : 4};
      reqs[i].done = [](Request*) {};
      ASSERT_TRUE(service.Submit(&reqs[i]).ok());
    }
    service.Start();
    service.Stop();
    size_t reranked = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(reqs[i].status.ok()) << reqs[i].status.ToString();
      const auto direct = searcher.Search(*reqs[i].query, reqs[i].options);
      EXPECT_EQ(reqs[i].result.ids, direct.ids)
          << "request " << i << " (k " << reqs[i].options.k << ", ef "
          << reqs[i].options.ef_search << ", refine "
          << reqs[i].options.refine_factor << ")";
      if (i % 2 == 1 && direct.ids != reqs[i - 1].result.ids) ++reranked;
    }
    // Refinement must change some results, or the batch proves nothing
    // about serving refine_factor.
    EXPECT_GT(reranked, 0u);
  }
}

// Before any index exists a query completes with FailedPrecondition
// instead of aborting the dispatcher.
TEST_F(ServeQueryServiceTest, QueryBeforeAnyIndexFailsPrecondition) {
  core::EmbeddingSearcher empty(encoder_.get(), core::SearcherConfig{});
  QueryService service(&empty, QueryServiceConfig{});
  service.Start();
  core::EmbeddingSearcher::SearchResult out;
  EXPECT_EQ(
      service.Query(queries_[0], {.k = 5}, Deadline::Infinite(), &out).code(),
      StatusCode::kFailedPrecondition);
  EXPECT_TRUE(out.ids.empty());
  service.Stop();
}

// The acceptance-criteria test: a request whose deadline expires in the
// queue completes with DeadlineExceeded WITHOUT entering the encode/search
// stage — asserted through the metrics the SLO layer exports:
// dj_serve_expired_total moves, dj_searcher_searches_total does not.
TEST_F(ServeQueryServiceTest, ServeDeadlineExpiryShortCircuitsBeforeEncode) {
  QueryServiceConfig cfg;
  cfg.batcher.max_wait_ms = 10000;
  cfg.batcher.idle_poll_ms = 10000;
  QueryService service(searcher_.get(), cfg);
  const u64 searches_before = CounterValue("dj_searcher_searches_total");
  const u64 expired_before = CounterValue("dj_serve_expired_total");

  Request req;
  req.query = &queries_[0];
  req.options = {.k = 5};
  req.deadline = Deadline::AfterMillis(5);
  req.done = [](Request*) {};
  // Service not started: the request sits queued past its deadline; the
  // drain pass in Stop() must expire it, not execute it.
  ASSERT_TRUE(service.Submit(&req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.Stop();

  EXPECT_EQ(req.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(req.result.ids.empty());
  EXPECT_EQ(CounterValue("dj_serve_expired_total"), expired_before + 1);
  EXPECT_EQ(CounterValue("dj_searcher_searches_total"), searches_before)
      << "expired request must not reach the encode/search stage";
}

// Expiry at admission: Submit itself refuses an already-expired request.
TEST_F(ServeQueryServiceTest, ServeDeadlineExpiredAtAdmission) {
  QueryService service(searcher_.get(), QueryServiceConfig{});
  service.Start();
  core::EmbeddingSearcher::SearchResult out;
  const u64 searches_before = CounterValue("dj_searcher_searches_total");
  Status st = service.Query(queries_[0], {.k = 5}, Deadline::AfterMillis(-1),
                            &out);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("dj_searcher_searches_total"), searches_before);
  service.Stop();
}

// A reused node carries no latency from its previous query. The resubmit
// expires in the queue and never executes, so it reports exec_ms == 0 and
// files nothing into dj_serve_execute_ms.
TEST_F(ServeQueryServiceTest, ServeDeadlineReusedNodeReportsNoStaleExecMs) {
  Request req;
  req.query = &queries_[0];
  req.options = {.k = 5};
  {
    QueryService first(searcher_.get(), QueryServiceConfig{});
    first.Start();
    ASSERT_TRUE(first.Query(&req).ok());
    first.Stop();
  }
  ASSERT_GT(req.exec_ms, 0.0) << "the node must hold an earlier execution";

  QueryServiceConfig cfg;
  cfg.batcher.max_wait_ms = 10000;
  cfg.batcher.idle_poll_ms = 10000;
  QueryService service(searcher_.get(), cfg);
  const metrics::Histogram* const exec =
      metrics::MetricsRegistry::Global().GetHistogram("dj_serve_execute_ms");
  const double exec_sum_before = exec->sum();
  req.deadline = Deadline::AfterMillis(5);
  req.done = [](Request*) {};
  // Not started: the node sits queued past its deadline and the drain in
  // Stop() expires it.
  ASSERT_TRUE(service.Submit(&req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.Stop();

  EXPECT_EQ(req.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(req.exec_ms, 0.0);
  EXPECT_EQ(exec->sum(), exec_sum_before);
}

// Deterministic backpressure: with the dispatcher not yet running, the
// queue fills to exactly max_queue and the next Submit is rejected with
// ResourceExhausted (and counted as such).
TEST_F(ServeQueryServiceTest, ServeBackpressureRejectsPastMaxQueue) {
  QueryServiceConfig cfg;
  cfg.batcher.max_queue = 8;
  QueryService service(searcher_.get(), cfg);
  const u64 rejected_before = CounterValue("dj_serve_rejected_total");
  std::vector<Request> reqs(9);
  for (size_t i = 0; i < 8; ++i) {
    reqs[i].query = &queries_[0];
    reqs[i].done = [](Request*) {};
    ASSERT_TRUE(service.Submit(&reqs[i]).ok());
  }
  reqs[8].query = &queries_[0];
  reqs[8].done = [](Request*) {};
  EXPECT_EQ(service.Submit(&reqs[8]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("dj_serve_rejected_total"), rejected_before + 1);
  // Start/Stop drains the 8 admitted requests; the rejected node is
  // untouched (caller still owns it, no completion fires).
  service.Start();
  service.Stop();
  for (size_t i = 0; i < 8; ++i) EXPECT_TRUE(reqs[i].status.ok());
  EXPECT_TRUE(reqs[8].status.ok()) << "rejected request must not be written";
  EXPECT_TRUE(reqs[8].result.ids.empty());
}

// Every submitted request is accounted exactly once across the admission
// and completion counters.
TEST_F(ServeQueryServiceTest, SloCountersBalance) {
  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 4;
  QueryService service(searcher_.get(), cfg);
  const u64 admitted0 = CounterValue("dj_serve_admitted_total");
  const u64 completed0 = CounterValue("dj_serve_completed_total");
  const u64 batches0 = CounterValue("dj_serve_batches_total");
  service.Start();
  for (int i = 0; i < 12; ++i) {
    core::EmbeddingSearcher::SearchResult out;
    ASSERT_TRUE(service
                    .Query(queries_[i % queries_.size()], {.k = 3},
                           Deadline::Infinite(), &out)
                    .ok());
  }
  service.Stop();
  EXPECT_EQ(CounterValue("dj_serve_admitted_total") - admitted0, 12u);
  EXPECT_EQ(CounterValue("dj_serve_completed_total") - completed0, 12u);
  EXPECT_GE(CounterValue("dj_serve_batches_total") - batches0, 1u);
}

// The searcher-level streaming session behind the dispatcher, on flat: encodes on Board, maps index ids to repository column ids on
// Harvest, and reports staleness once the searcher publishes a new
// snapshot (the dispatcher's cue to drain and reopen).
TEST_F(ServeQueryServiceTest, StreamScanSessionMatchesSearchAndGoesStale) {
  auto scan = searcher_->NewStreamScan();
  ASSERT_TRUE(scan.valid());
  EXPECT_FALSE(scan.stale());
  const size_t slot = scan.Board(queries_[0], 10);
  std::vector<size_t> done;
  while (scan.Step(&done) == 0) {
    ASSERT_FALSE(scan.empty());
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], slot);
  core::EmbeddingSearcher::SearchResult out;
  scan.Harvest(slot, &out);
  const auto direct =
      searcher_->Search(queries_[0], {.k = 10, .collect_stats = false});
  EXPECT_EQ(out.ids, direct.ids);
  EXPECT_TRUE(scan.empty());
  // A republished snapshot (rebuild) makes the pinned session stale.
  ASSERT_TRUE(searcher_->BuildIndex(repo_).ok());
  EXPECT_TRUE(scan.stale());
}

// Off the flat backend the session is valid once an index exists, and
// each rider is searched with its own k: Board/Step/Harvest returns what
// SearchInto returns for the same query.
TEST_F(ServeQueryServiceTest, StreamScanNeedsAnIndexAndServesHnsw) {
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kHnsw;
  core::EmbeddingSearcher hnsw(encoder_.get(), sc);
  // No index yet: invalid rather than aborting.
  EXPECT_FALSE(hnsw.NewStreamScan().valid());
  ASSERT_TRUE(hnsw.BuildIndex(repo_).ok());
  auto scan = hnsw.NewStreamScan();
  ASSERT_TRUE(scan.valid());
  std::vector<size_t> slots;
  for (size_t i = 0; i < queries_.size(); ++i) {
    slots.push_back(scan.Board(queries_[i], i + 1));
  }
  EXPECT_EQ(scan.active(), queries_.size());
  std::vector<size_t> done;
  EXPECT_EQ(scan.Step(&done), queries_.size());
  EXPECT_TRUE(scan.empty());
  for (size_t i = 0; i < queries_.size(); ++i) {
    core::EmbeddingSearcher::SearchResult served, direct;
    scan.Harvest(slots[i], &served);
    hnsw.SearchInto(queries_[i], {.k = i + 1, .collect_stats = false},
                    &direct);
    EXPECT_EQ(served.ids.size(), i + 1);
    EXPECT_EQ(served.ids, direct.ids) << "rider " << i;
  }
}

}  // namespace
}  // namespace serve
}  // namespace deepjoin
