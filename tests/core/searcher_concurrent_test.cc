// TSan-labeled coverage for the concurrency contract on ColumnEncoder:
// EmbeddingSearcher::BuildIndex and SearchBatch fan Encode out over a
// ThreadPool, so one encoder instance is called from many threads at once.
// Encode must therefore use only per-call or thread_local scratch (see the
// contract comment in src/core/encoders.h). An encoder that grows a shared
// mutable cache without a Mutex shows up here as a TSan report under
// `tools/check.sh` and as a determinism failure everywhere else.
#include <thread>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace core {
namespace {

class SearcherConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(909));
    repo_ = gen.GenerateRepository(200);
    queries_ = gen.GenerateQueries(24);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<FastTextColumnEncoder>(embedder_.get(),
                                                       TransformConfig{});
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<FastTextColumnEncoder> encoder_;
};

TEST_F(SearcherConcurrentTest, ParallelBuildMatchesSerialBuild) {
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kFlat;

  EmbeddingSearcher serial(encoder_.get(), cfg);
  ASSERT_TRUE(serial.BuildIndex(repo_).ok());

  // 4 threads insert chunks while later ones encode; 1 thread runs inline.
  for (const size_t threads : {4u, 1u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    EmbeddingSearcher parallel(encoder_.get(), cfg);
    BuildStats build_stats;
    ASSERT_TRUE(parallel.BuildIndex(repo_, &pool, &build_stats).ok());
    const double build = build_stats.trace.SpanMs("searcher.build");
    const double encode = build_stats.trace.SpanMs("searcher.build_encode");
    const double index = build_stats.trace.SpanMs("searcher.build_index");
    EXPECT_GT(encode, 0.0);
    EXPECT_GT(index, 0.0);
    EXPECT_LE(encode + index, build);

    ASSERT_EQ(serial.index_size(), parallel.index_size());
    // Same encoder, same repository: a racy Encode would perturb
    // embeddings and flip rankings; the flat backend is exact, so results
    // must agree.
    for (const auto& q : queries_) {
      EXPECT_EQ(serial.Search(q, {.k = 10}).ids,
                parallel.Search(q, {.k = 10}).ids);
    }
  }
}

TEST_F(SearcherConcurrentTest, PooledSearchBatchMatchesSerialSearches) {
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kHnsw;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  ThreadPool pool(4);
  const auto batched = searcher.SearchBatch(queries_, {.k = 10}, &pool);
  ASSERT_EQ(batched.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(batched[i].ids, searcher.Search(queries_[i], {.k = 10}).ids)
        << "query " << i;
  }
}

TEST_F(SearcherConcurrentTest, ConcurrentSearchesWithPerQueryEfSearch) {
  // The old API set ef_search by mutating the searcher's config between
  // calls, which raced when threads wanted different beam widths. The
  // per-query override in SearchOptions must be free of shared writes:
  // every thread hammers one searcher with its own ef_search while
  // collecting stats, and each result must match a serial rerun.
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kHnsw;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  constexpr int kThreads = 4;
  const int efs[kThreads] = {16, 48, 96, 192};
  std::vector<std::vector<std::vector<u32>>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(queries_.size());
      for (const auto& q : queries_) {
        auto out = searcher.Search(q, {.k = 10, .ef_search = efs[t]});
        EXPECT_EQ(out.stats.root.name, "searcher.search");
        got[t].push_back(std::move(out.ids));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(got[t][i],
                searcher.Search(queries_[i], {.k = 10, .ef_search = efs[t]})
                    .ids)
          << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
