// Integration test: the CSV ingestion path feeds the full DeepJoin
// pipeline (train -> persist -> reload -> index -> search) — the adoption
// path a downstream user takes with real files.
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/deepjoin.h"
#include "core/model_io.h"
#include "lake/csv_loader.h"
#include "lake/generator.h"

namespace deepjoin {
namespace core {
namespace {

class CsvPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each case as its own process, so a
    // shared name races under `ctest -j`.
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("csv_pipeline_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    // Materialise a lake of 120 single-column CSVs from the generator.
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(31));
    lake::Repository repo = gen.GenerateRepository(120);
    for (size_t i = 0; i < repo.size(); ++i) {
      const auto& col = repo.column(static_cast<u32>(i));
      std::ofstream out(dir_ / ("t" + std::to_string(i) + ".csv"));
      out << col.meta.column_name << "\n";
      for (const auto& cell : col.cells) {
        out << '"';
        for (char c : cell) {
          if (c == '"') out << '"';
          out << c;
        }
        out << "\"\n";
      }
    }
    sample_ = gen.GenerateQueries(80, 0x8A);
    queries_ = gen.GenerateQueries(4, 0x8B);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::vector<lake::Column> sample_;
  std::vector<lake::Column> queries_;
};

TEST_F(CsvPipelineTest, EndToEndThroughFiles) {
  lake::CsvLoadOptions opts;
  auto repo = lake::LoadCsvDirectory(dir_.string(), opts);
  ASSERT_TRUE(repo.ok());
  ASSERT_GT(repo->size(), 100u);

  FastTextConfig fc;
  fc.dim = 16;
  FastTextEmbedder pretrained(fc);

  DeepJoinConfig cfg;
  cfg.plm.max_seq_len = 32;
  cfg.finetune.max_steps = 10;
  cfg.finetune.batch_size = 8;
  auto dj = DeepJoin::Train(sample_, pretrained, cfg);

  // Persist + reload the encoder, then serve from the loaded copy.
  const std::string model_path = (dir_ / "m.djm").string();
  ASSERT_TRUE(SaveEncoder(dj->encoder(), model_path).ok());
  auto loaded = LoadEncoder(model_path);
  ASSERT_TRUE(loaded.ok());

  SearcherConfig sc;
  EmbeddingSearcher searcher(loaded->get(), sc);
  ASSERT_TRUE(searcher.BuildIndex(*repo).ok());
  // The same lake indexed by the encoder that was saved: the reloaded
  // model must serve exactly what the trained one would.
  EmbeddingSearcher trained(&dj->encoder(), sc);
  ASSERT_TRUE(trained.BuildIndex(*repo).ok());

  for (const auto& q : queries_) {
    const auto out = searcher.Search(q, {.k = 5});
    ASSERT_EQ(out.ids.size(), 5u);
    for (u32 id : out.ids) EXPECT_LT(id, repo->size());
    EXPECT_EQ(out.ids, trained.Search(q, {.k = 5}).ids)
        << "query " << q.meta.column_name;
  }
}

TEST_F(CsvPipelineTest, CsvRoundTripPreservesCells) {
  // Loading back the CSVs must reproduce the original distinct cells
  // (quoting/escaping survives commas and quotes in generated values).
  lake::CsvLoadOptions opts;
  auto repo = lake::LoadCsvDirectory(dir_.string(), opts);
  ASSERT_TRUE(repo.ok());
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(31));
  lake::Repository original = gen.GenerateRepository(120);
  // Files load in lexicographic name order (t0, t1, t10, ...), so match
  // by column name + first cell instead of position.
  size_t matched = 0;
  for (const auto& col : repo->columns()) {
    for (const auto& orig : original.columns()) {
      if (orig.meta.column_name == col.meta.column_name &&
          orig.cells == col.cells) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GT(matched, repo->size() / 2);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
