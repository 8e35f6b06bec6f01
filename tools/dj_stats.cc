// dj_stats: reference dumper for the observability layer (DESIGN.md §9).
// Drives a live pipeline — synthetic lake, FastText column encoder,
// EmbeddingSearcher::BuildIndex, then a SearchBatch over the queries — and
// dumps the resulting MetricsRegistry snapshot in JSON and/or Prometheus
// text exposition format.
//
//   dj_stats [--repo=N] [--queries=N] [--k=N] [--backend=hnsw|flat|ivfpq]
//            [--format=json|prom|both] [--per-query]
//
// --per-query additionally runs each query through Search and prints its
// trace-span breakdown (the QueryStats tree rooted at searcher.search),
// showing how encode/ANN time nests under the total.
// Run with DJ_METRICS=off to see the kill switch: the dump comes out
// empty because no call site recorded anything.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/alloc_guard.h"
#include "util/flags.h"
#include "util/lock_rank.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

using namespace deepjoin;

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const size_t repo_size = static_cast<size_t>(flags.GetInt("repo", 800));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 16));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const std::string backend = flags.GetString("backend", "hnsw");
  const std::string format = flags.GetString("format", "both");
  const bool per_query = flags.GetBool("per-query", false);

  core::SearcherConfig sc;
  if (backend == "flat") {
    sc.backend = core::AnnBackend::kFlat;
  } else if (backend == "ivfpq") {
    sc.backend = core::AnnBackend::kIvfPq;
    sc.ivfpq_m = 4;
  } else if (backend == "hnsw") {
    sc.backend = core::AnnBackend::kHnsw;
  } else {
    std::fprintf(stderr, "dj_stats: unknown --backend=%s\n",
                 backend.c_str());
    return 2;
  }
  if (format != "json" && format != "prom" && format != "both") {
    std::fprintf(stderr, "dj_stats: unknown --format=%s\n", format.c_str());
    return 2;
  }

  // A live run: every layer below (encoder, ANN index, thread pool)
  // records into the global registry as a side effect.
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(4242));
  lake::Repository repo = gen.GenerateRepository(repo_size);
  auto queries = gen.GenerateQueries(num_queries, 0x57A7);
  FastTextConfig fc;
  fc.dim = 24;
  FastTextEmbedder embedder(fc);
  embedder.TrainSynonyms(gen.SynonymLexicon(), 0.8, 2);
  core::FastTextColumnEncoder encoder(&embedder, core::TransformConfig{});

  core::EmbeddingSearcher searcher(&encoder, sc);
  ThreadPool pool(4);
  core::BuildStats build_stats;
  if (auto st = searcher.BuildIndex(repo, &pool, &build_stats); !st.ok()) {
    std::fprintf(stderr, "dj_stats: BuildIndex failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  auto outputs = searcher.SearchBatch(queries, {.k = k}, &pool);

  std::fprintf(stderr,
               "dj_stats: indexed %zu columns (%.1f ms), "
               "searched %zu queries (metrics %s)\n",
               build_stats.columns, build_stats.trace.total_ms(),
               outputs.size(), metrics::Enabled() ? "on" : "off");

  // Mutation episode (DESIGN.md §12): a short live-index churn — open a
  // scratch directory, add/remove a handful of columns, compact, publish —
  // so the dj_index_{inserts,deletes,tombstones,compactions,snapshot_swaps}
  // series and the dj_snapshot_publish_ms histogram carry real values in
  // the dump. HNSW only: it is the mutable backend.
  if (sc.backend == core::AnnBackend::kHnsw) {
    const std::string live_dir =
        (std::filesystem::temp_directory_path() / "dj_stats_live").string();
    std::error_code ec;
    std::filesystem::remove_all(live_dir, ec);
    if (auto st = searcher.OpenLive(live_dir); !st.ok()) {
      std::fprintf(stderr, "dj_stats: OpenLive failed: %s\n",
                   st.ToString().c_str());
    } else {
      std::vector<u32> added;
      for (int i = 0; i < 8; ++i) {
        auto id = searcher.AddColumn(repo.column(static_cast<u32>(i)));
        if (id.ok()) added.push_back(*id);
      }
      for (size_t i = 0; i + 1 < added.size(); i += 2) {
        searcher.RemoveColumn(added[i]).IgnoreError();
      }
      searcher.Compact().IgnoreError();
      searcher.PublishSnapshot().IgnoreError();
      std::fprintf(stderr,
                   "dj_stats: churn episode done (8 adds, %zu removes, "
                   "compact + publish; generation %llu)\n",
                   added.size() / 2,
                   static_cast<unsigned long long>(searcher.generation()));
    }
    std::filesystem::remove_all(live_dir, ec);
  }

  if (per_query) {
    std::printf("--- per-query breakdown ---\n");
    for (size_t i = 0; i < outputs.size(); ++i) {
      const auto out = searcher.Search(queries[i], {.k = k});
      std::printf("query %zu (\"%s\"):\n%s", i,
                  queries[i].meta.column_name.c_str(),
                  out.stats.ToString().c_str());
    }
  }

  // Fold the lock-rank layer's observed graph into the snapshot
  // (dj_lockrank_* gauges; this tool links dj_guard, so the hooks are on).
  lock_rank::PublishMetrics();
  // Likewise the alloc-guard's process-wide tallies (dj_alloc_count /
  // dj_alloc_bytes).
  alloc_guard::PublishMetrics();
  const metrics::MetricsSnapshot snapshot =
      metrics::MetricsRegistry::Global().Snapshot();
  if (format == "json" || format == "both") {
    std::printf("%s\n", snapshot.ToJson().c_str());
  }
  if (format == "prom" || format == "both") {
    std::printf("%s", snapshot.ToPrometheusText().c_str());
  }
  return 0;
}
