// Table 15: mean processing time per query by column-size group
// (Webtable, k = 10). Each group indexes the same number of target
// columns to isolate the column-size effect, as the paper does with its
// 300K-per-group sample. Expected shape: JOSIE and PEXESO grow markedly
// with column size; embedding methods grow only through query encoding.
#include <thread>

#include "bench/common.h"

using namespace deepjoin;
using namespace deepjoin::bench;

namespace {

struct Group {
  const char* label;
  size_t lo;
  size_t hi;
};
constexpr Group kGroups[] = {
    {"5-10", 5, 10}, {"11-50", 11, 50}, {">50", 51, 100000}};

struct Row {
  std::string method;
  std::vector<double> encode_ms;  // per group; empty = n/a
  std::vector<double> total_ms;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  BenchConfig base = BenchConfig::FromFlags(flags);
  base.corpus = "webtable";
  if (!flags.Has("steps")) base.steps = 30;  // latency-only bench
  const size_t group_repo = base.repo_size / 2;
  const size_t nq = std::min<size_t>(base.num_queries, 15);
  const size_t k = 10;

  std::vector<Row> equi_rows(5), sem_rows(3);
  equi_rows[0].method = "LSH Ensemble";
  equi_rows[1].method = "JOSIE";
  equi_rows[2].method = "fastText";
  equi_rows[3].method = "DeepJoin (CPU)";
  equi_rows[4].method = "DeepJoin (batched)";
  sem_rows[0].method = "PEXESO";
  sem_rows[1].method = "DeepJoin (CPU)";
  sem_rows[2].method = "DeepJoin (batched)";

  for (const Group& g : kGroups) {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(base.seed));
    auto repo = gen.GenerateRepositoryInSizeRange(group_repo, g.lo, g.hi);
    auto sample = gen.GenerateQueries(base.sample_size, 0x5A17);
    auto queries = gen.GenerateQueriesInSizeRange(nq, g.lo, g.hi, 0xC0FE);
    std::printf("[group %s] repo=%zu queries=%zu\n", g.label, repo.size(),
                queries.size());
    BenchEnv env(base, std::move(repo), std::move(sample),
                 std::move(queries));
    auto dj_equi = env.RunDeepJoin(core::JoinType::kEqui);
    auto dj_sem = env.RunDeepJoin(core::JoinType::kSemantic);

    // Exact equi methods.
    std::vector<join::TokenSet> qts;
    for (const auto& q : env.queries()) {
      qts.push_back(env.tok().EncodeQuery(q));
    }
    join::LshEnsembleIndex lsh(&env.tok(), join::LshEnsembleConfig{});
    join::JosieIndex josie(&env.tok());
    {
      TimeAccumulator a;
      for (const auto& qt : qts) {
        WallTimer t;
        lsh.SearchTopK(qt, k);
        a.Add(t.ElapsedSeconds());
      }
      equi_rows[0].total_ms.push_back(a.MeanMillis());
    }
    {
      TimeAccumulator a;
      for (const auto& qt : qts) {
        WallTimer t;
        josie.SearchTopK(qt, k);
        a.Add(t.ElapsedSeconds());
      }
      equi_rows[1].total_ms.push_back(a.MeanMillis());
    }

    // Embedding methods through the shared searcher.
    core::TransformConfig ft_tc;
    ft_tc.option = core::TransformOption::kCol;
    ft_tc.cell_budget = 0;
    core::FastTextColumnEncoder ft_encoder(&env.ft(), ft_tc);
    auto run_encoder = [&](core::ColumnEncoder* enc, Row& row,
                           bool batched) {
      core::SearcherConfig sc;
      core::EmbeddingSearcher searcher(enc, sc);
      DJ_CHECK(searcher.BuildIndex(env.repo()).ok());
      if (batched) {
        const size_t threads =
            std::max(2u, std::thread::hardware_concurrency());
        ThreadPool pool(threads);
        const size_t nq = env.queries().size();
        row.encode_ms.push_back(
            BatchedEncodeMsPerQuery(enc, env.queries(), &pool));
        WallTimer t;
        searcher.SearchBatch(env.queries(), {.k = k}, &pool);
        row.total_ms.push_back(t.ElapsedMillis() / static_cast<double>(nq));
      } else {
        TimeAccumulator enc_acc, total_acc;
        for (const auto& q : env.queries()) {
          auto out = searcher.Search(q, {.k = k});
          enc_acc.Add(out.stats.SpanMs("searcher.encode") / 1e3);
          total_acc.Add(out.stats.total_ms() / 1e3);
        }
        row.encode_ms.push_back(enc_acc.MeanMillis());
        row.total_ms.push_back(total_acc.MeanMillis());
      }
    };
    run_encoder(&ft_encoder, equi_rows[2], false);
    run_encoder(&dj_equi.model->encoder(), equi_rows[3], false);
    run_encoder(&dj_equi.model->encoder(), equi_rows[4], true);

    // Semantic methods.
    join::PexesoConfig pc;
    pc.tau = base.tau;
    join::PexesoIndex pexeso(&env.store(), pc);
    {
      TimeAccumulator a;
      for (size_t q = 0; q < env.queries().size(); ++q) {
        const auto& qv = env.QueryVectors(q);
        WallTimer t;
        pexeso.SearchTopK(qv.data(), env.queries()[q].cells.size(), k);
        a.Add(t.ElapsedSeconds());
      }
      sem_rows[0].total_ms.push_back(a.MeanMillis());
    }
    run_encoder(&dj_sem.model->encoder(), sem_rows[1], false);
    run_encoder(&dj_sem.model->encoder(), sem_rows[2], true);
  }

  auto print = [&](const std::string& title, const std::vector<Row>& rows) {
    TablePrinter printer({"Method", "enc (5-10)", "enc (11-50)", "enc (>50)",
                          "total (5-10)", "total (11-50)", "total (>50)"});
    for (const auto& r : rows) {
      std::vector<std::string> cells = {r.method};
      for (size_t g = 0; g < 3; ++g) {
        cells.push_back(g < r.encode_ms.size()
                            ? FormatDouble(r.encode_ms[g], 2)
                            : "-");
      }
      for (size_t g = 0; g < 3; ++g) {
        cells.push_back(FormatDouble(r.total_ms[g], 2));
      }
      printer.AddRow(std::move(cells));
    }
    printer.Print(title);
  };
  print("Table 15 (Webtable, equi-joins): time per query vs column size (ms)",
        equi_rows);
  print(
      "Table 15 (Webtable, semantic joins): time per query vs column size "
      "(ms)",
      sem_rows);
  return 0;
}
