#include "core/searcher.h"

#include <gtest/gtest.h>

#include "lake/generator.h"

namespace deepjoin {
namespace core {
namespace {

class SearcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(808));
    repo_ = gen.GenerateRepository(300);
    queries_ = gen.GenerateQueries(5);
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

TEST_F(SearcherTest, AllBackendsReturnKResults) {
  for (AnnBackend backend :
       {AnnBackend::kFlat, AnnBackend::kHnsw, AnnBackend::kIvfPq}) {
    SearcherConfig cfg;
    cfg.backend = backend;
    cfg.ivfpq_m = 4;
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
    EXPECT_EQ(searcher.index_size(), repo_.size());
    auto out = searcher.Search(queries_[0], {.k = 10});
    EXPECT_EQ(out.ids.size(), 10u)
        << "backend " << static_cast<int>(backend);
  }
}

TEST_F(SearcherTest, HnswAgreesWithFlatMostOfTheTime) {
  SearcherConfig flat_cfg;
  flat_cfg.backend = AnnBackend::kFlat;
  SearcherConfig hnsw_cfg;
  hnsw_cfg.backend = AnnBackend::kHnsw;
  hnsw_cfg.hnsw_ef_search = 96;
  EmbeddingSearcher flat(encoder_.get(), flat_cfg);
  EmbeddingSearcher hnsw(encoder_.get(), hnsw_cfg);
  ASSERT_TRUE(flat.BuildIndex(repo_).ok());
  ASSERT_TRUE(hnsw.BuildIndex(repo_).ok());
  double recall = 0;
  for (const auto& q : queries_) {
    auto ef = flat.Search(q, {.k = 10}).ids;
    auto eh = hnsw.Search(q, {.k = 10}).ids;
    size_t hits = 0;
    for (u32 a : eh) {
      for (u32 b : ef) {
        if (a == b) {
          ++hits;
          break;
        }
      }
    }
    recall += hits / 10.0;
  }
  EXPECT_GT(recall / queries_.size(), 0.85);
}

TEST_F(SearcherTest, QueryStatsSpansNestAndCoverTotal) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  auto out = searcher.Search(queries_[0], {.k = 5});
  EXPECT_EQ(out.stats.root.name, "searcher.search");
  const double encode = out.stats.SpanMs("searcher.encode");
  const double ann = out.stats.SpanMs("searcher.ann");
  EXPECT_GE(encode, 0.0);
  EXPECT_GE(ann, 0.0);
  // Child spans never exceed the enclosing span.
  EXPECT_GE(out.stats.total_ms(), encode);
  EXPECT_GE(out.stats.total_ms(), ann);
}

TEST_F(SearcherTest, CollectStatsFalseSkipsTrace) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  auto out = searcher.Search(queries_[0], {.k = 5, .collect_stats = false});
  EXPECT_EQ(out.ids.size(), 5u);
  EXPECT_TRUE(out.stats.root.name.empty());
  EXPECT_EQ(out.stats.total_ms(), 0.0);
}

TEST_F(SearcherTest, SearchBatchOfNoQueriesReturnsEmpty) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  ThreadPool pool(2);
  EXPECT_TRUE(searcher.SearchBatch({}, {.k = 5}, &pool).empty());
  EXPECT_TRUE(searcher.SearchBatch({}, {.k = 5}, nullptr).empty());
}

TEST_F(SearcherTest, SearchBeforeBuildAborts) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  EXPECT_DEATH(searcher.Search(queries_[0], {.k = 5}), "BuildIndex");
}

TEST_F(SearcherTest, IndexAccessorBeforeBuildAborts) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  EXPECT_EQ(searcher.index_size(), 0u);  // size is safe on an empty searcher
}

TEST_F(SearcherTest, IvfPqBuildOnEmptyRepositoryFails) {
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kIvfPq;
  cfg.ivfpq_m = 4;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  lake::Repository empty;
  const Status st = searcher.BuildIndex(empty);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(SearcherTest, IvfPqAddColumnBeforeBuildFailsCleanly) {
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kIvfPq;
  cfg.ivfpq_m = 4;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  auto id = searcher.AddColumn(queries_[0]);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SearcherTest, AddColumnOnFreshHnswSearcherStartsAnIndex) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  auto first = searcher.AddColumn(repo_.column(0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  auto second = searcher.AddColumn(repo_.column(1));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  auto out = searcher.Search(queries_[0], {.k = 2});
  EXPECT_EQ(out.ids.size(), 2u);
}

TEST_F(SearcherTest, PerQueryEfSearchWidensTheBeam) {
  SearcherConfig cfg;
  cfg.hnsw_ef_search = 64;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  // The per-query override rides with the SearchOptions — no config
  // mutation. A wider beam must evaluate at least as many distances.
  auto narrow = searcher.Search(queries_[0], {.k = 10, .ef_search = 16});
  auto wide = searcher.Search(queries_[0], {.k = 10, .ef_search = 256});
  const u64 narrow_evals = narrow.stats.CounterValue("hnsw.dist_evals");
  const u64 wide_evals = wide.stats.CounterValue("hnsw.dist_evals");
  EXPECT_GT(narrow_evals, 0u);
  EXPECT_GT(wide_evals, narrow_evals);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
