// Live index mutability (DESIGN.md §12): concurrent-era AddColumn /
// RemoveColumn / Compact semantics, the delete-visibility regression
// contract (a removed column never reappears, at any ef_search, on either
// search path), and the OpenLive durability lifecycle — generations, WAL
// replay, and bit-identical recovery.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"

namespace deepjoin {
namespace core {
namespace {

class LiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(2024));
    repo_ = gen.GenerateRepository(120);
    queries_ = gen.GenerateQueries(5);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<FastTextColumnEncoder>(embedder_.get(),
                                                       TransformConfig{});
    // Per-test directory: ctest runs each case as its own process, so a
    // shared name races under `ctest -j`.
    dir_ = std::string(::testing::TempDir()) + "/live_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static bool Contains(const std::vector<u32>& ids, u32 id) {
    for (const u32 x : ids) {
      if (x == id) return true;
    }
    return false;
  }

  /// Result ids for every query at several beam widths — the fingerprint
  /// two searchers must share to count as serving the same state.
  std::vector<std::vector<u32>> Fingerprint(EmbeddingSearcher& s,
                                            size_t k = 10) {
    std::vector<std::vector<u32>> out;
    for (const auto& q : queries_) {
      for (const int ef : {16, 64, 200}) {
        out.push_back(
            s.Search(q, {.k = k, .ef_search = ef, .collect_stats = false})
                .ids);
      }
    }
    return out;
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<FastTextColumnEncoder> encoder_;
  std::string dir_;
};

// ---- Delete visibility (regression contract) ----

TEST_F(LiveIndexTest, RemovedColumnAbsentAtEveryEfSearchOnBothPaths) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;  // keep tombstones: test the filter
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  // The query's top hit is a known-joinable column — the strongest
  // candidate to leak back into results after its removal.
  const u32 victim = searcher.Search(queries_[0], {.k = 1}).ids.at(0);
  ASSERT_TRUE(searcher.RemoveColumn(victim).ok());

  for (const int ef : {8, 16, 32, 64, 128, 256}) {
    const SearchOptions opt{.k = 20, .ef_search = ef, .collect_stats = false};
    for (const auto& q : queries_) {
      EXPECT_FALSE(Contains(searcher.Search(q, opt).ids, victim))
          << "Search returned removed column at ef_search " << ef;
    }
    ThreadPool pool(3);
    for (const auto& out : searcher.SearchBatch(queries_, opt, &pool)) {
      EXPECT_FALSE(Contains(out.ids, victim))
          << "SearchBatch returned removed column at ef_search " << ef;
    }
  }
}

TEST_F(LiveIndexTest, RemoveAccountingAndErrors) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;
  EmbeddingSearcher fresh(encoder_.get(), cfg);
  EXPECT_EQ(fresh.RemoveColumn(0).code(), StatusCode::kFailedPrecondition);

  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  EXPECT_EQ(searcher.live_size(), repo_.size());
  ASSERT_TRUE(searcher.RemoveColumn(7).ok());
  ASSERT_TRUE(searcher.RemoveColumn(13).ok());
  // Tombstoned, not erased: the graph keeps routing through dead nodes.
  EXPECT_EQ(searcher.index_size(), repo_.size());
  EXPECT_EQ(searcher.live_size(), repo_.size() - 2);
  // Double-remove and never-added ids are NotFound, not silent no-ops.
  EXPECT_EQ(searcher.RemoveColumn(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(searcher.RemoveColumn(100000).code(), StatusCode::kNotFound);
}

// ---- Compaction ----

TEST_F(LiveIndexTest, CompactDropsTombstonesAndPreservesColumnIds) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;  // manual compaction only
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  const std::vector<u32> removed = {3, 10, 57, 119};
  for (const u32 id : removed) ASSERT_TRUE(searcher.RemoveColumn(id).ok());

  ASSERT_TRUE(searcher.Compact().ok());
  EXPECT_EQ(searcher.index_size(), repo_.size() - removed.size());
  EXPECT_EQ(searcher.live_size(), repo_.size() - removed.size());

  // Index ids were renumbered, but results still speak column ids: every
  // hit is a valid never-removed column, and the removed ones stay gone.
  for (const auto& q : queries_) {
    for (const int ef : {16, 64, 256}) {
      const auto ids =
          searcher.Search(q, {.k = 15, .ef_search = ef}).ids;
      EXPECT_EQ(ids.size(), 15u);
      for (const u32 id : ids) {
        EXPECT_LT(id, repo_.size());
        EXPECT_FALSE(Contains(removed, id));
      }
    }
  }
}

TEST_F(LiveIndexTest, AddAfterCompactContinuesTheColumnIdSpace) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  ASSERT_TRUE(searcher.RemoveColumn(5).ok());
  ASSERT_TRUE(searcher.Compact().ok());

  // Column ids are stable across compactions: the next add continues the
  // sequence instead of reusing a renumbered index id.
  auto id = searcher.AddColumn(queries_[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, static_cast<u32>(repo_.size()));
  const auto out = searcher.Search(queries_[0], {.k = 1});
  ASSERT_EQ(out.ids.size(), 1u);
  EXPECT_EQ(out.ids[0], *id);  // its own nearest neighbour

  // And that column can be removed again through the compacted mapping.
  ASSERT_TRUE(searcher.RemoveColumn(*id).ok());
  EXPECT_FALSE(Contains(searcher.Search(queries_[0], {.k = 10}).ids, *id));
}

TEST_F(LiveIndexTest, AutoCompactTriggersUnderChurn) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 4;
  cfg.compact_dead_fraction = 0.01;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  for (const u32 id : {2u, 4u, 6u, 8u}) {
    ASSERT_TRUE(searcher.RemoveColumn(id).ok());
  }
  // The fourth remove crossed both thresholds: tombstones are gone.
  EXPECT_EQ(searcher.index_size(), searcher.live_size());
  EXPECT_EQ(searcher.live_size(), repo_.size() - 4);
}

TEST_F(LiveIndexTest, CompactRequiresHnswBackend) {
  SearcherConfig cfg;
  cfg.backend = AnnBackend::kFlat;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
  EXPECT_EQ(searcher.Compact().code(), StatusCode::kFailedPrecondition);
}

// ---- OpenLive lifecycle ----

TEST_F(LiveIndexTest, OpenLivePreconditions) {
  SearcherConfig flat_cfg;
  flat_cfg.backend = AnnBackend::kFlat;
  EmbeddingSearcher flat(encoder_.get(), flat_cfg);
  EXPECT_EQ(flat.OpenLive(dir_).code(), StatusCode::kFailedPrecondition);

  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  EXPECT_EQ(searcher.PublishSnapshot().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(searcher.OpenLive(dir_).ok());
  EXPECT_EQ(searcher.OpenLive(dir_).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveIndexTest, FreshDirectoryStartsAtGenerationOne) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  EXPECT_EQ(searcher.generation(), 0u);
  ASSERT_TRUE(searcher.OpenLive(dir_).ok());
  EXPECT_EQ(searcher.generation(), 1u);
  // Mutations ride the WAL — no generation churn per insert.
  for (u32 i = 0; i < 8; ++i) {
    ASSERT_TRUE(searcher.AddColumn(repo_.column(i)).ok());
  }
  EXPECT_EQ(searcher.generation(), 1u);
  ASSERT_TRUE(searcher.PublishSnapshot().ok());
  EXPECT_EQ(searcher.generation(), 2u);
}

TEST_F(LiveIndexTest, ReopenRecoversWalStateBitIdentically) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;
  std::vector<std::vector<u32>> expected;
  u64 gen = 0;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_TRUE(searcher.OpenLive(dir_).ok());
    for (u32 i = 0; i < 40; ++i) {
      auto id = searcher.AddColumn(repo_.column(i));
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, i);
    }
    for (const u32 id : {1u, 9u, 22u, 37u}) {
      ASSERT_TRUE(searcher.RemoveColumn(id).ok());
    }
    expected = Fingerprint(searcher);
    gen = searcher.generation();
  }
  // A new process over the same directory: checkpoint load + WAL replay
  // with the recorded insert levels must rebuild the exact graph.
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  EXPECT_GT(reopened.generation(), gen);  // recovery rolls forward
  EXPECT_EQ(reopened.index_size(), 40u);
  EXPECT_EQ(reopened.live_size(), 36u);
  EXPECT_EQ(Fingerprint(reopened), expected);
  // The id sequence continues where the crashed process stopped.
  auto id = reopened.AddColumn(repo_.column(40));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 40u);
}

TEST_F(LiveIndexTest, BuildIndexOnLiveSearcherPublishesImmediately) {
  SearcherConfig cfg;
  std::vector<std::vector<u32>> expected;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_TRUE(searcher.OpenLive(dir_).ok());
    ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
    // The bulk build replaced the index, so it rolled a new generation —
    // the old WAL cannot describe the new graph.
    EXPECT_EQ(searcher.generation(), 2u);
    auto id = searcher.AddColumn(queries_[0]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<u32>(repo_.size()));
    ASSERT_TRUE(searcher.RemoveColumn(3).ok());
    expected = Fingerprint(searcher);
  }
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  EXPECT_EQ(reopened.index_size(), repo_.size() + 1);
  EXPECT_EQ(Fingerprint(reopened), expected);
}

TEST_F(LiveIndexTest, CompactionSurvivesReopenWithStableColumnIds) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 1u << 30;
  std::vector<std::vector<u32>> expected;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_TRUE(searcher.OpenLive(dir_).ok());
    for (u32 i = 0; i < 30; ++i) {
      ASSERT_TRUE(searcher.AddColumn(repo_.column(i)).ok());
    }
    for (const u32 id : {0u, 11u, 29u}) {
      ASSERT_TRUE(searcher.RemoveColumn(id).ok());
    }
    ASSERT_TRUE(searcher.Compact().ok());
    // Post-compaction mutations exercise the non-identity id map in the
    // WAL (insert records carry column ids, not index ids).
    ASSERT_TRUE(searcher.AddColumn(repo_.column(30)).ok());
    ASSERT_TRUE(searcher.RemoveColumn(4).ok());
    expected = Fingerprint(searcher);
  }
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  EXPECT_EQ(reopened.index_size(), 28u);  // 30 - 3 compacted + 1 added
  EXPECT_EQ(reopened.live_size(), 27u);
  EXPECT_EQ(Fingerprint(reopened), expected);
  auto id = reopened.AddColumn(repo_.column(31));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 31u);
}

TEST_F(LiveIndexTest, PublishRetiresGrandparentGenerationOnly) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.OpenLive(dir_).ok());
  ASSERT_TRUE(searcher.AddColumn(repo_.column(0)).ok());
  ASSERT_TRUE(searcher.PublishSnapshot().ok());  // gen 2
  ASSERT_TRUE(searcher.PublishSnapshot().ok());  // gen 3, retires gen 1
  EXPECT_EQ(searcher.generation(), 3u);
  // Current + previous generations stay on disk as recovery fallbacks;
  // the grandparent is gone.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/index-3.dj"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/wal-3.log"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/index-2.dj"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index-1.dj"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/wal-1.log"));
}

// ---- A mutation that fails is never logged ----

class LiveIndexMappedTest : public LiveIndexTest {
 protected:
  /// Builds repo_ into a live searcher, then loads the same index back
  /// mapped (read-only): the state in which AddColumn must fail.
  void OpenLiveMapped(EmbeddingSearcher* s) {
    const std::string saved = dir_ + "_index.djix";
    files_.push_back(saved);
    ASSERT_TRUE(s->BuildIndex(repo_).ok());
    ASSERT_TRUE(s->SaveIndex(saved).ok());
    ASSERT_TRUE(s->OpenLive(dir_).ok());
    ann::OpenOptions open;
    open.map = ann::MapMode::kMapped;
    ASSERT_TRUE(s->LoadIndex(saved, nullptr, open).ok());
  }
  void TearDown() override {
    for (const auto& f : files_) std::filesystem::remove(f);
    LiveIndexTest::TearDown();
  }
  std::vector<std::string> files_;
};

TEST_F(LiveIndexMappedTest, FailedAddIsNotRecovered) {
  SearcherConfig cfg;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_NO_FATAL_FAILURE(OpenLiveMapped(&searcher));
    EXPECT_EQ(searcher.AddColumn(queries_[0]).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(searcher.index_size(), repo_.size());
  }
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  EXPECT_EQ(reopened.index_size(), repo_.size());
  auto id = reopened.AddColumn(queries_[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, static_cast<u32>(repo_.size()));
}

TEST_F(LiveIndexMappedTest, FailedAddsDoNotCostAcknowledgedMutations) {
  SearcherConfig cfg;
  std::vector<std::vector<u32>> expected;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_NO_FATAL_FAILURE(OpenLiveMapped(&searcher));
    EXPECT_FALSE(searcher.AddColumn(queries_[0]).ok());
    EXPECT_FALSE(searcher.AddColumn(queries_[1]).ok());
    ASSERT_TRUE(searcher.RemoveColumn(3).ok());
    expected = Fingerprint(searcher);
  }
  // Neither the load nor the acknowledged remove may be lost: recovery
  // must replay the log of this generation, not fall back past it.
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  EXPECT_EQ(reopened.index_size(), repo_.size());
  EXPECT_EQ(reopened.live_size(), repo_.size() - 1);
  EXPECT_EQ(Fingerprint(reopened), expected);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
