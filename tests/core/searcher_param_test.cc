// Parameterized sweep over ANN backends behind the searcher: every
// backend must return valid, deduplicated, k-sized result sets, the
// approximate backends must agree with the exact one on most results, and
// the batched path must return what the single-query path returns.
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace core {
namespace {

class SearcherBackendTest : public ::testing::TestWithParam<AnnBackend> {
 protected:
  static void SetUpTestSuite() {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(1515));
    repo_ = std::make_unique<lake::Repository>(gen.GenerateRepository(400));
    queries_ =
        std::make_unique<std::vector<lake::Column>>(gen.GenerateQueries(6));
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<FastTextColumnEncoder>(embedder_.get(),
                                                       TransformConfig{});
    SearcherConfig flat_cfg;
    flat_cfg.backend = AnnBackend::kFlat;
    exact_ = std::make_unique<EmbeddingSearcher>(encoder_.get(), flat_cfg);
    DJ_CHECK(exact_->BuildIndex(*repo_).ok());
  }
  static void TearDownTestSuite() {
    exact_.reset();
    encoder_.reset();
    embedder_.reset();
    queries_.reset();
    repo_.reset();
  }

  static std::unique_ptr<lake::Repository> repo_;
  static std::unique_ptr<std::vector<lake::Column>> queries_;
  static std::unique_ptr<FastTextEmbedder> embedder_;
  static std::unique_ptr<FastTextColumnEncoder> encoder_;
  static std::unique_ptr<EmbeddingSearcher> exact_;
};

std::unique_ptr<lake::Repository> SearcherBackendTest::repo_;
std::unique_ptr<std::vector<lake::Column>> SearcherBackendTest::queries_;
std::unique_ptr<FastTextEmbedder> SearcherBackendTest::embedder_;
std::unique_ptr<FastTextColumnEncoder> SearcherBackendTest::encoder_;
std::unique_ptr<EmbeddingSearcher> SearcherBackendTest::exact_;

TEST_P(SearcherBackendTest, ValidDedupedKResults) {
  SearcherConfig cfg;
  cfg.backend = GetParam();
  cfg.ivfpq_m = 4;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(*repo_).ok());
  for (const auto& q : *queries_) {
    auto out = searcher.Search(q, {.k = 10});
    EXPECT_EQ(out.ids.size(), 10u);
    std::unordered_set<u32> unique(out.ids.begin(), out.ids.end());
    EXPECT_EQ(unique.size(), out.ids.size()) << "duplicate result ids";
    for (u32 id : out.ids) EXPECT_LT(id, repo_->size());
  }
}

TEST_P(SearcherBackendTest, AgreesWithExactOnMostResults) {
  SearcherConfig cfg;
  cfg.backend = GetParam();
  cfg.ivfpq_m = 4;
  cfg.ivfpq_nprobe = 16;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(*repo_).ok());
  size_t agree = 0, total = 0;
  for (const auto& q : *queries_) {
    auto approx = searcher.Search(q, {.k = 10}).ids;
    auto exact = exact_->Search(q, {.k = 10}).ids;
    for (u32 a : approx) {
      for (u32 e : exact) {
        if (a == e) {
          ++agree;
          break;
        }
      }
    }
    total += exact.size();
  }
  const double recall = static_cast<double>(agree) / total;
  // IVFPQ compresses aggressively; HNSW and flat should be near-perfect.
  const double floor = GetParam() == AnnBackend::kIvfPq ? 0.4 : 0.9;
  EXPECT_GE(recall, floor);
}

TEST_P(SearcherBackendTest, KLargerThanRepositoryClamps) {
  SearcherConfig cfg;
  cfg.backend = GetParam();
  cfg.ivfpq_m = 4;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  lake::Repository tiny;
  for (size_t i = 0; i < 5; ++i) tiny.Add(repo_->column(static_cast<u32>(i)));
  ASSERT_TRUE(searcher.BuildIndex(tiny).ok());
  auto out = searcher.Search((*queries_)[0], {.k = 50});
  EXPECT_LE(out.ids.size(), 5u);
  EXPECT_GE(out.ids.size(), 1u);
}

// SearchBatch is one StreamScan group: with a 4-thread encode pool it
// returns Search's ids on every backend. The flat group stays below the
// shared scan's SGEMM cutover (6 riders), so every rider takes the scalar
// arm and its ids match Search exactly (flat_shared_scan_test checks the
// SGEMM arm against Search within float rounding).
TEST_P(SearcherBackendTest, SearchBatchMatchesSearch) {
  SearcherConfig cfg;
  cfg.backend = GetParam();
  cfg.ivfpq_m = 4;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(*repo_).ok());
  const std::vector<lake::Column> group(queries_->begin(),
                                        queries_->begin() + 5);
  ThreadPool pool(4);
  const auto batched = searcher.SearchBatch(group, {.k = 10}, &pool);
  ASSERT_EQ(batched.size(), group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(batched[i].ids, searcher.Search(group[i], {.k = 10}).ids)
        << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SearcherBackendTest,
                         ::testing::Values(AnnBackend::kFlat,
                                           AnnBackend::kHnsw,
                                           AnnBackend::kIvfPq),
                         [](const ::testing::TestParamInfo<AnnBackend>& i) {
                           switch (i.param) {
                             case AnnBackend::kFlat: return "flat";
                             case AnnBackend::kHnsw: return "hnsw";
                             case AnnBackend::kIvfPq: return "ivfpq";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace core
}  // namespace deepjoin
