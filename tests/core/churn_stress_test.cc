// TSan-labeled churn stress: AddColumn / RemoveColumn / Compact hammering
// one searcher while reader threads run Search and SearchBatch against it.
// Exercises the whole concurrency design of DESIGN.md §12 at once — the
// writer token, the RCU snapshot swap, the striped HNSW link locks, and
// the lock-free IdMap — under -fsanitize=thread via tools/check.sh.
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace core {
namespace {

class ChurnStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(4242));
    repo_ = gen.GenerateRepository(60);
    queries_ = gen.GenerateQueries(6);
    FastTextConfig fc;
    fc.dim = 8;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<FastTextColumnEncoder>(embedder_.get(),
                                                       TransformConfig{});
    dir_ = std::string(::testing::TempDir()) + "/churn_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static u64 Compactions() {
    return metrics::MetricsRegistry::Global()
        .GetCounter("dj_index_compactions")
        ->value();
  }

  static bool Contains(const std::vector<u32>& ids, u32 id) {
    for (const u32 x : ids) {
      if (x == id) return true;
    }
    return false;
  }

  /// Readers spin until `done`: single searches with rotating beam widths
  /// plus the batched path, asserting only invariants that hold mid-churn
  /// (result size; no duplicate hits within one result).
  void ReadUntilDone(EmbeddingSearcher& searcher,
                     const std::atomic<bool>& done, int salt) {
    const int efs[3] = {16, 64, 128};
    size_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto& q = queries_[(round + salt) % queries_.size()];
      const auto out = searcher.Search(
          q, {.k = 5,
              .ef_search = efs[round % 3],
              .collect_stats = false});
      EXPECT_LE(out.ids.size(), 5u);
      for (size_t i = 0; i < out.ids.size(); ++i) {
        for (size_t j = i + 1; j < out.ids.size(); ++j) {
          EXPECT_NE(out.ids[i], out.ids[j]) << "duplicate hit";
        }
      }
      if (round % 17 == 0) {
        for (const auto& r :
             searcher.SearchBatch(queries_, {.k = 5, .collect_stats = false},
                                  nullptr)) {
          EXPECT_LE(r.ids.size(), 5u);
        }
      }
      ++round;
    }
  }

  /// The scripted churn: interleaved adds and removes (every third op a
  /// remove of the oldest live column) with periodic manual compactions.
  /// Runs on one thread — mutators serialize on the writer token anyway —
  /// and records what was removed for the post-churn visibility check.
  void Churn(EmbeddingSearcher& searcher, int ops, bool manual_compact,
             std::vector<u32>* removed) {
    std::vector<u32> live;
    for (u32 i = 0; i < static_cast<u32>(searcher.index_size()); ++i) {
      live.push_back(i);
    }
    for (int it = 0; it < ops; ++it) {
      if (it % 3 == 2 && live.size() > 4) {
        const u32 victim = live.front();
        live.erase(live.begin());
        ASSERT_TRUE(searcher.RemoveColumn(victim).ok()) << "op " << it;
        removed->push_back(victim);
      } else {
        auto id = searcher.AddColumn(
            repo_.column(static_cast<u32>(it) % repo_.size()));
        ASSERT_TRUE(id.ok()) << "op " << it;
        live.push_back(*id);
      }
      if (manual_compact && it % 40 == 39) {
        ASSERT_TRUE(searcher.Compact().ok()) << "op " << it;
      }
    }
  }

  void AssertRemovedStayGone(EmbeddingSearcher& searcher,
                             const std::vector<u32>& removed) {
    for (const auto& q : queries_) {
      for (const int ef : {32, 128}) {
        const auto ids =
            searcher
                .Search(q, {.k = 20, .ef_search = ef, .collect_stats = false})
                .ids;
        for (const u32 r : removed) {
          EXPECT_FALSE(Contains(ids, r)) << "removed column resurfaced";
        }
      }
    }
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<FastTextColumnEncoder> encoder_;
  std::string dir_;
};

TEST_F(ChurnStressTest, InMemoryChurnAlongsideSearches) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 12;  // let auto-compaction fire mid-churn too
  cfg.compact_dead_fraction = 0.1;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  const u64 compactions_before = Compactions();
  std::atomic<bool> done{false};
  std::vector<u32> removed;
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] { ReadUntilDone(searcher, done, t); });
  }
  Churn(searcher, 240, /*manual_compact=*/true, &removed);
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_GT(removed.size(), 50u);
  // Six of the compactions are the manual ones; the rest are auto-compacts
  // tripped by RemoveColumn while the readers ran.
  EXPECT_GT(Compactions() - compactions_before, 6u);
  AssertRemovedStayGone(searcher, removed);
}

TEST_F(ChurnStressTest, LiveModeChurnAlongsideSearchesAndReopen) {
  SearcherConfig cfg;
  cfg.compact_min_dead = 16;
  cfg.compact_dead_fraction = 0.2;
  std::vector<u32> removed;
  std::vector<std::vector<u32>> before;
  {
    EmbeddingSearcher searcher(encoder_.get(), cfg);
    ASSERT_TRUE(searcher.OpenLive(dir_).ok());
    for (u32 i = 0; i < 20; ++i) {
      ASSERT_TRUE(searcher.AddColumn(repo_.column(i)).ok());
    }
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&, t] { ReadUntilDone(searcher, done, t); });
    }
    // Every mutation WAL-fsyncs, so fewer ops than the in-memory run.
    const u64 compactions_before = Compactions();
    Churn(searcher, 90, /*manual_compact=*/false, &removed);
    done.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();
    // No manual compactions here: every one is an auto-compact (with its
    // publish) racing the readers.
    EXPECT_GT(Compactions(), compactions_before);

    AssertRemovedStayGone(searcher, removed);
    for (const auto& q : queries_) {
      before.push_back(
          searcher.Search(q, {.k = 10, .collect_stats = false}).ids);
    }
  }
  // The full churn history replays into an identical serving state.
  EmbeddingSearcher reopened(encoder_.get(), cfg);
  ASSERT_TRUE(reopened.OpenLive(dir_).ok());
  std::vector<std::vector<u32>> after;
  for (const auto& q : queries_) {
    after.push_back(
        reopened.Search(q, {.k = 10, .collect_stats = false}).ids);
  }
  EXPECT_EQ(after, before);
  AssertRemovedStayGone(reopened, removed);
}

TEST_F(ChurnStressTest, ConcurrentMutatorsSerializeOnTheWriterToken) {
  SearcherConfig cfg;
  EmbeddingSearcher searcher(encoder_.get(), cfg);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  // Two mutator threads race AddColumn while a reader spins: the writer
  // token must serialize them into a gap-free, duplicate-free id sequence.
  constexpr int kPerThread = 40;
  std::vector<u32> ids_a, ids_b;
  std::atomic<bool> done{false};
  std::thread reader([&] { ReadUntilDone(searcher, done, 0); });
  std::thread a([&] {
    for (int i = 0; i < kPerThread; ++i) {
      auto id = searcher.AddColumn(repo_.column(i % repo_.size()));
      ASSERT_TRUE(id.ok());
      ids_a.push_back(*id);
    }
  });
  std::thread b([&] {
    for (int i = 0; i < kPerThread; ++i) {
      auto id = searcher.AddColumn(repo_.column((i + 7) % repo_.size()));
      ASSERT_TRUE(id.ok());
      ids_b.push_back(*id);
    }
  });
  a.join();
  b.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(searcher.index_size(), repo_.size() + 2 * kPerThread);
  std::vector<bool> seen(repo_.size() + 2 * kPerThread, false);
  for (const auto* ids : {&ids_a, &ids_b}) {
    for (const u32 id : *ids) {
      ASSERT_LT(id, seen.size());
      EXPECT_FALSE(seen[id]) << "duplicate column id " << id;
      seen[id] = true;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
