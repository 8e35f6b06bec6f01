// Operating DeepJoin as a persistent service: ingest a lake from CSV
// files, fine-tune once, save the encoder to disk, reload it in a "fresh
// process", rebuild the index, and serve queries through the paper's
// online path (encode the query column, HNSW top-k). Demonstrates the
// adoption path: train offline, ship the model file, serve online.
//
// Run:  ./build/examples/persistent_service [--workdir=/tmp/djsvc]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "ann/vector_index.h"
#include "core/deepjoin.h"
#include "core/model_io.h"
#include "lake/csv_loader.h"
#include "lake/generator.h"
#include "util/flags.h"

using namespace deepjoin;

namespace {

// Materialise a small CSV lake on disk from the synthetic generator (a
// real deployment points --workdir/csv at its own exports).
void WriteCsvLake(const std::filesystem::path& dir, size_t num_tables) {
  std::filesystem::create_directories(dir);
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(77));
  lake::Repository repo = gen.GenerateRepository(num_tables);
  for (size_t i = 0; i < repo.size(); ++i) {
    const auto& col = repo.column(static_cast<u32>(i));
    std::ofstream out(dir / ("table_" + std::to_string(i) + ".csv"));
    out << col.meta.column_name << "\n";
    for (const auto& cell : col.cells) {
      // Quote cells defensively (they may contain commas).
      out << '"';
      for (char c : cell) {
        if (c == '"') out << '"';
        out << c;
      }
      out << '"' << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const std::filesystem::path workdir =
      flags.GetString("workdir", "/tmp/deepjoin_service");
  const auto csv_dir = workdir / "csv";
  const auto model_path = (workdir / "encoder.djm").string();

  // --- offline: ingest + train + persist ---
  WriteCsvLake(csv_dir, 600);
  lake::CsvLoadOptions opts;
  auto repo = lake::LoadCsvDirectory(csv_dir.string(), opts);
  if (!repo.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 repo.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %zu columns from %s\n", repo->size(),
              csv_dir.c_str());

  lake::LakeGenerator gen(lake::LakeConfig::Webtable(77));
  auto sample = gen.GenerateQueries(200, 0x9A);
  FastTextConfig fc;
  fc.dim = 24;
  FastTextEmbedder pretrained(fc);
  pretrained.TrainSynonyms(gen.SynonymLexicon(), 0.8, 2);

  core::DeepJoinConfig cfg;
  cfg.finetune.max_steps = 50;
  cfg.finetune.batch_size = 16;
  auto trained = core::DeepJoin::Train(sample, pretrained, cfg);
  if (auto st = core::SaveEncoder(trained->encoder(), model_path);
      !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("encoder saved to %s\n", model_path.c_str());

  // --- online: a "fresh process" loads the model and serves ---
  auto loaded = core::LoadEncoder(model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  core::SearcherConfig sc;
  core::EmbeddingSearcher searcher(loaded->get(), sc);
  if (auto st = searcher.BuildIndex(*repo); !st.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // The searcher reports ids only; re-encoding a hit through the same
  // path the index was built with recovers the distance HNSW ranked by.
  core::ColumnEncoder* encoder = loaded->get();
  std::vector<float> qv(encoder->dim()), hv(encoder->dim());
  auto queries = gen.GenerateQueries(3, 0xD0);
  for (const auto& q : queries) {
    auto out = searcher.Search(q, {.k = 5});
    std::printf("\nquery \"%s\" (%zu cells) -> %.1f ms total:\n",
                q.meta.column_name.c_str(), q.size(), out.stats.total_ms());
    encoder->EncodeInto(q, qv.data());
    for (u32 id : out.ids) {
      encoder->EncodeInto(repo->column(id), hv.data());
      std::printf("  col=%-4u dist=%.4f  %s\n", id,
                  ann::SquaredL2Distance(qv.data(), hv.data(), encoder->dim()),
                  repo->column(id).meta.table_title.c_str());
    }
  }
  std::printf("\nservice round-trip complete (model file survives restarts)\n");
  return 0;
}
