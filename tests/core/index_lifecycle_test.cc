// Index lifecycle: parallel builds, incremental column adds, and HNSW
// index persistence — the offline/online split of paper §3.3 in practice.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"

namespace deepjoin {
namespace core {
namespace {

class IndexLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(1414));
    repo_ = gen.GenerateRepository(300);
    queries_ = gen.GenerateQueries(5);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<FastTextColumnEncoder>(embedder_.get(),
                                                       TransformConfig{});
    // Per-test filename: ctest runs each case as its own process, so a
    // shared name races under `ctest -j`.
    path_ = std::string(::testing::TempDir()) + "/index_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".djx";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<FastTextColumnEncoder> encoder_;
  std::string path_;
};

TEST_F(IndexLifecycleTest, ParallelBuildMatchesSerialBuild) {
  SearcherConfig sc;
  EmbeddingSearcher serial(encoder_.get(), sc);
  ASSERT_TRUE(serial.BuildIndex(repo_).ok());
  const auto expect_same_ids = [&](EmbeddingSearcher& s) {
    ASSERT_EQ(s.index_size(), serial.index_size());
    for (const auto& q : queries_) {
      EXPECT_EQ(s.Search(q, {.k = 10}).ids, serial.Search(q, {.k = 10}).ids);
    }
  };
  // 3 threads insert chunks while later ones encode; 1 thread runs inline.
  for (const size_t threads : {3u, 1u}) {
    SCOPED_TRACE(threads);
    EmbeddingSearcher parallel(encoder_.get(), sc);
    ThreadPool pool(threads);
    BuildStats build_stats;
    ASSERT_TRUE(parallel.BuildIndex(repo_, &pool, &build_stats).ok());
    EXPECT_EQ(build_stats.columns, repo_.size());
    EXPECT_GT(build_stats.trace.total_ms(), 0.0);
    const trace::SpanNode* build =
        build_stats.trace.root.Find("searcher.build");
    ASSERT_NE(build, nullptr);
    const trace::SpanNode* encode = build->Find("searcher.build_encode");
    const trace::SpanNode* index = build->Find("searcher.build_index");
    ASSERT_NE(encode, nullptr);
    ASSERT_NE(index, nullptr);
    EXPECT_LE(encode->elapsed_ms + index->elapsed_ms, build->elapsed_ms);
    expect_same_ids(parallel);
  }
  // A live build publishes the pooled graph; reopening recovers it.
  const std::string dir = path_ + ".live";
  std::filesystem::remove_all(dir);
  {
    EmbeddingSearcher live(encoder_.get(), sc);
    ASSERT_TRUE(live.OpenLive(dir).ok());
    ThreadPool pool(3);
    ASSERT_TRUE(live.BuildIndex(repo_, &pool).ok());
    expect_same_ids(live);
  }
  EmbeddingSearcher reopened(encoder_.get(), sc);
  ASSERT_TRUE(reopened.OpenLive(dir).ok());
  expect_same_ids(reopened);
  std::filesystem::remove_all(dir);
}

TEST_F(IndexLifecycleTest, IncrementalAddMatchesBulkBuild) {
  SearcherConfig sc;
  EmbeddingSearcher bulk(encoder_.get(), sc);
  ASSERT_TRUE(bulk.BuildIndex(repo_).ok());
  EmbeddingSearcher incremental(encoder_.get(), sc);
  for (size_t i = 0; i < repo_.size(); ++i) {
    auto id = incremental.AddColumn(repo_.column(static_cast<u32>(i)));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<u32>(i));
  }
  // HNSW construction is order-dependent, so graphs may differ slightly;
  // the result sets must still agree heavily.
  size_t agree = 0, total = 0;
  for (const auto& q : queries_) {
    auto a = bulk.Search(q, {.k = 10}).ids;
    auto b = incremental.Search(q, {.k = 10}).ids;
    for (u32 x : a) {
      for (u32 y : b) {
        if (x == y) {
          ++agree;
          break;
        }
      }
    }
    total += a.size();
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.85);
}

TEST_F(IndexLifecycleTest, AddAfterBuildExtendsIndex) {
  SearcherConfig sc;
  EmbeddingSearcher searcher(encoder_.get(), sc);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  auto id = searcher.AddColumn(queries_[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, static_cast<u32>(repo_.size()));
  // The freshly added column is its own nearest neighbour.
  auto out = searcher.Search(queries_[0], {.k = 1});
  ASSERT_EQ(out.ids.size(), 1u);
  EXPECT_EQ(out.ids[0], *id);
}

TEST_F(IndexLifecycleTest, SaveLoadRoundTripPreservesResults) {
  SearcherConfig sc;
  EmbeddingSearcher original(encoder_.get(), sc);
  ASSERT_TRUE(original.BuildIndex(repo_).ok());
  ASSERT_TRUE(original.SaveIndex(path_).ok());

  EmbeddingSearcher restored(encoder_.get(), sc);
  ASSERT_TRUE(restored.LoadIndex(path_).ok());
  EXPECT_EQ(restored.index_size(), repo_.size());
  for (const auto& q : queries_) {
    EXPECT_EQ(restored.Search(q, {.k = 10}).ids,
              original.Search(q, {.k = 10}).ids);
  }
}

TEST_F(IndexLifecycleTest, FlatBackendRoundTripsThroughUnifiedFormat) {
  // The unified DJIX path persists every backend; pre-DJIX this returned
  // FailedPrecondition for anything but HNSW.
  SearcherConfig sc;
  sc.backend = AnnBackend::kFlat;
  EmbeddingSearcher original(encoder_.get(), sc);
  ASSERT_TRUE(original.BuildIndex(repo_).ok());
  ASSERT_TRUE(original.SaveIndex(path_).ok());

  EmbeddingSearcher restored(encoder_.get(), sc);
  ASSERT_TRUE(restored.LoadIndex(path_).ok());
  EXPECT_EQ(restored.index_size(), repo_.size());
  for (const auto& q : queries_) {
    EXPECT_EQ(restored.Search(q, {.k = 10}).ids,
              original.Search(q, {.k = 10}).ids);
  }
}

TEST_F(IndexLifecycleTest, LoadRejectsBackendKindMismatch) {
  SearcherConfig flat_sc;
  flat_sc.backend = AnnBackend::kFlat;
  EmbeddingSearcher original(encoder_.get(), flat_sc);
  ASSERT_TRUE(original.BuildIndex(repo_).ok());
  ASSERT_TRUE(original.SaveIndex(path_).ok());

  SearcherConfig hnsw_sc;  // default backend: HNSW
  EmbeddingSearcher mismatched(encoder_.get(), hnsw_sc);
  EXPECT_EQ(mismatched.LoadIndex(path_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IndexLifecycleTest, QuantizedSaveServesMappedSearches) {
  // The beyond-RAM path end to end: save SQ8 with a float refinement
  // payload, reopen zero-copy mapped, and check refined results against
  // the float original.
  SearcherConfig sc;
  EmbeddingSearcher original(encoder_.get(), sc);
  ASSERT_TRUE(original.BuildIndex(repo_).ok());
  ann::SaveOptions save;
  save.storage = ann::StorageKind::kSq8;
  save.keep_float_refine = true;
  ASSERT_TRUE(original.SaveIndex(path_, nullptr, save).ok());

  EmbeddingSearcher served(encoder_.get(), sc);
  ann::OpenOptions open;
  open.map = ann::MapMode::kMapped;
  ASSERT_TRUE(served.LoadIndex(path_, nullptr, open).ok());
  EXPECT_EQ(served.index_size(), repo_.size());
  size_t agree = 0, total = 0;
  for (const auto& q : queries_) {
    const auto want = original.Search(q, {.k = 5}).ids;
    const auto got = served.Search(q, {.k = 5, .refine_factor = 4}).ids;
    ASSERT_EQ(got.size(), want.size());
    for (const u32 id : want) {
      ++total;
      for (const u32 g : got) {
        if (g == id) {
          ++agree;
          break;
        }
      }
    }
  }
  // SQ8 + exact reranking should agree with the float index almost
  // always; demand a conservative floor so the test is not flaky.
  EXPECT_GE(agree * 10, total * 8)
      << agree << "/" << total << " results matched";

  // A mapped open is read-only: mutations surface as status, searches
  // keep working.
  lake::Column extra = repo_.column(0);
  EXPECT_EQ(served.AddColumn(extra).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IndexLifecycleTest, LoadRejectsDimensionMismatch) {
  SearcherConfig sc;
  EmbeddingSearcher original(encoder_.get(), sc);
  ASSERT_TRUE(original.BuildIndex(repo_).ok());
  ASSERT_TRUE(original.SaveIndex(path_).ok());

  FastTextConfig other_fc;
  other_fc.dim = 8;  // different embedding dim
  FastTextEmbedder other_emb(other_fc);
  FastTextColumnEncoder other_encoder(&other_emb, TransformConfig{});
  EmbeddingSearcher mismatched(&other_encoder, sc);
  EXPECT_EQ(mismatched.LoadIndex(path_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IndexLifecycleTest, LoadMissingFileIsIoError) {
  SearcherConfig sc;
  EmbeddingSearcher searcher(encoder_.get(), sc);
  EXPECT_EQ(searcher.LoadIndex("/no/such/file").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
