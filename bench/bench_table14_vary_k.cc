// Table 14: mean processing time per query for k = 10..50. Expected
// shapes: the exact methods' cost moves with k a little and stays two
// orders of magnitude above the embedding methods; DeepJoin's cost is
// dominated by query encoding, which is independent of k, so its growth
// is marginal.
#include <thread>

#include "bench/common.h"

using namespace deepjoin;
using namespace deepjoin::bench;

namespace {

const std::vector<size_t> kKs = {10, 20, 30, 40, 50};

struct Row {
  std::string method;
  double encode_ms = -1.0;
  std::vector<double> total_ms;
};

void PrintRows(const std::string& title, const std::vector<Row>& rows) {
  std::vector<std::string> header = {"Method", "query encoding (ms)"};
  for (size_t k : kKs) header.push_back("k=" + std::to_string(k));
  TablePrinter printer(header);
  for (const auto& r : rows) {
    std::vector<std::string> cells = {
        r.method, r.encode_ms < 0 ? "-" : FormatDouble(r.encode_ms, 2)};
    for (double t : r.total_ms) cells.push_back(FormatDouble(t, 2));
    printer.AddRow(std::move(cells));
  }
  printer.Print(title);
}

template <typename SearchFn>
Row TimeSweep(const std::string& name, SearchFn&& search, size_t queries) {
  Row row;
  row.method = name;
  for (size_t k : kKs) {
    WallTimer t;
    search(k);
    row.total_ms.push_back(t.ElapsedMillis() / static_cast<double>(queries));
  }
  return row;
}

void RunCorpus(const BenchConfig& cfg) {
  BenchEnv env(cfg);
  auto dj_equi = env.RunDeepJoin(core::JoinType::kEqui);
  auto dj_sem = env.RunDeepJoin(core::JoinType::kSemantic);
  const size_t nq = env.queries().size();

  // Pre-encode query token sets / vectors so the sweep times only search.
  std::vector<join::TokenSet> qts;
  for (const auto& q : env.queries()) qts.push_back(env.tok().EncodeQuery(q));

  std::vector<Row> equi_rows;
  {
    join::LshEnsembleIndex lsh(&env.tok(), join::LshEnsembleConfig{});
    equi_rows.push_back(TimeSweep("LSH Ensemble", [&](size_t k) {
      for (const auto& qt : qts) lsh.SearchTopK(qt, k);
    }, nq));
    join::JosieIndex josie(&env.tok());
    equi_rows.push_back(TimeSweep("JOSIE", [&](size_t k) {
      for (const auto& qt : qts) josie.SearchTopK(qt, k);
    }, nq));

    core::TransformConfig ft_tc;
    ft_tc.option = core::TransformOption::kCol;
    ft_tc.cell_budget = 0;
    core::FastTextColumnEncoder ft_encoder(&env.ft(), ft_tc);
    auto encoder_sweep = [&](core::ColumnEncoder* enc,
                             const std::string& name, bool batched) {
      core::SearcherConfig sc;
      core::EmbeddingSearcher searcher(enc, sc);
      DJ_CHECK(searcher.BuildIndex(env.repo()).ok());
      Row row;
      row.method = name;
      const size_t threads =
          std::max(2u, std::thread::hardware_concurrency());
      ThreadPool pool(threads);
      for (size_t k : kKs) {
        if (batched) {
          row.encode_ms = BatchedEncodeMsPerQuery(enc, env.queries(), &pool);
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
          row.encode_ms = enc_acc.MeanMillis();
          row.total_ms.push_back(total_acc.MeanMillis());
        }
      }
      return row;
    };
    equi_rows.push_back(encoder_sweep(&ft_encoder, "fastText", false));
    equi_rows.push_back(
        encoder_sweep(&dj_equi.model->encoder(), "DeepJoin (CPU)", false));
    equi_rows.push_back(encoder_sweep(&dj_equi.model->encoder(),
                                      "DeepJoin (batched)", true));

    PrintRows("Table 14 (" + cfg.corpus + ", equi-joins): time vs k",
              equi_rows);

    std::vector<Row> sem_rows;
    join::PexesoConfig pc;
    pc.tau = cfg.tau;
    join::PexesoIndex pexeso(&env.store(), pc);
    std::vector<std::vector<float>> qvs;
    for (size_t q = 0; q < nq; ++q) qvs.push_back(env.QueryVectors(q));
    sem_rows.push_back(TimeSweep("PEXESO", [&](size_t k) {
      for (size_t q = 0; q < nq; ++q) {
        pexeso.SearchTopK(qvs[q].data(), env.queries()[q].cells.size(), k);
      }
    }, nq));
    sem_rows.push_back(
        encoder_sweep(&dj_sem.model->encoder(), "DeepJoin (CPU)", false));
    sem_rows.push_back(encoder_sweep(&dj_sem.model->encoder(),
                                     "DeepJoin (batched)", true));
    PrintRows("Table 14 (" + cfg.corpus + ", semantic joins): time vs k",
              sem_rows);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const std::string which = flags.GetString("corpus", "both");
  for (const std::string corpus : {"webtable", "wikitable"}) {
    if (which != "both" && which != corpus) continue;
    BenchConfig cfg = BenchConfig::FromFlags(flags);
    cfg.corpus = corpus;
    if (!flags.Has("steps")) cfg.steps = 30;  // latency-only bench
    cfg.num_queries = std::min<size_t>(cfg.num_queries, 20);
    RunCorpus(cfg);
  }
  return 0;
}
