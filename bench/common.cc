#include "bench/common.h"

#include <algorithm>
#include <cstdio>

#include "util/string_util.h"
#include "util/timer.h"

namespace deepjoin {
namespace bench {

BenchConfig BenchConfig::FromFlags(const Flags& flags) {
  BenchConfig c;
  c.corpus = flags.GetString("corpus", c.corpus);
  c.repo_size = static_cast<size_t>(flags.GetInt("repo", c.repo_size));
  c.sample_size = static_cast<size_t>(flags.GetInt("sample", c.sample_size));
  c.num_queries =
      static_cast<size_t>(flags.GetInt("queries", c.num_queries));
  c.steps = static_cast<int>(flags.GetInt("steps", c.steps));
  c.batch = static_cast<int>(flags.GetInt("batch", c.batch));
  c.seq_len = static_cast<int>(flags.GetInt("seq", c.seq_len));
  c.shuffle_rate = flags.GetDouble("shuffle", c.shuffle_rate);
  c.tau = static_cast<float>(flags.GetDouble("tau", c.tau));
  c.seed = static_cast<u64>(flags.GetInt("seed", c.seed));
  if (flags.GetBool("fast", false)) {
    c.repo_size = 1500;
    c.sample_size = 200;
    c.num_queries = 12;
    c.steps = 40;
  }
  if (flags.GetBool("full", false)) {
    c.repo_size = 20000;
    c.sample_size = 1000;
    c.num_queries = 50;
    c.steps = 200;
  }
  return c;
}

const char* MethodName(Method m) {
  switch (m) {
    case Method::kLshEnsemble: return "LSH Ensemble";
    case Method::kJosie: return "JOSIE";
    case Method::kFastText: return "fastText";
    case Method::kRawDistil: return "BERT";
    case Method::kRawMPNet: return "MPNet";
    case Method::kTabert: return "TaBERT";
    case Method::kMlp: return "MLP";
    case Method::kDeepJoinDistil: return "DeepJoin_DistilSim";
    case Method::kDeepJoinMPNet: return "DeepJoin_MPNetSim";
    case Method::kPexeso: return "PEXESO";
  }
  return "?";
}

BenchEnv::BenchEnv(const BenchConfig& config) : config_(config) {
  const auto lc = config.corpus == "wikitable"
                      ? lake::LakeConfig::Wikitable(config.seed)
                      : lake::LakeConfig::Webtable(config.seed);
  gen_ = std::make_unique<lake::LakeGenerator>(lc);
  WallTimer t;
  repo_ = gen_->GenerateRepository(config.repo_size);
  sample_ = gen_->GenerateQueries(config.sample_size, 0x5A17);
  queries_ = gen_->GenerateQueries(config.num_queries, 0xC0FE);
  tok_ = std::make_unique<join::TokenizedRepository>(
      join::TokenizedRepository::Build(repo_));
  FastTextConfig fc;
  fc.dim = config.ft_dim;
  ft_ = std::make_unique<FastTextEmbedder>(fc);
  ft_->TrainSynonyms(gen_->SynonymLexicon(), 0.8, 2);
  // stderr, so a bench's stdout stays machine-readable (bench_micro
  // --benchmark_format=json).
  std::fprintf(stderr,
               "[env] corpus=%s repo=%zu sample=%zu queries=%zu (%.1fs)\n",
               config.corpus.c_str(), repo_.size(), sample_.size(),
               queries_.size(), t.ElapsedSeconds());
}

BenchEnv::BenchEnv(const BenchConfig& config, lake::Repository repo,
                   std::vector<lake::Column> sample,
                   std::vector<lake::Column> queries)
    : config_(config),
      repo_(std::move(repo)),
      sample_(std::move(sample)),
      queries_(std::move(queries)) {
  const auto lc = config.corpus == "wikitable"
                      ? lake::LakeConfig::Wikitable(config.seed)
                      : lake::LakeConfig::Webtable(config.seed);
  gen_ = std::make_unique<lake::LakeGenerator>(lc);
  tok_ = std::make_unique<join::TokenizedRepository>(
      join::TokenizedRepository::Build(repo_));
  FastTextConfig fc;
  fc.dim = config.ft_dim;
  ft_ = std::make_unique<FastTextEmbedder>(fc);
  ft_->TrainSynonyms(gen_->SynonymLexicon(), 0.8, 2);
}

const join::ColumnVectorStore& BenchEnv::store() {
  if (!store_) {
    store_ = std::make_unique<join::ColumnVectorStore>(
        join::ColumnVectorStore::Build(repo_, *ft_));
  }
  return *store_;
}

const std::vector<std::vector<Scored>>& BenchEnv::ExactEqui() {
  if (exact_equi_.empty()) {
    exact_equi_.reserve(queries_.size());
    for (const auto& q : queries_) {
      exact_equi_.push_back(
          join::ExactEquiTopK(*tok_, tok_->EncodeQuery(q), config_.k_max));
    }
  }
  return exact_equi_;
}

const std::vector<float>& BenchEnv::QueryVectors(size_t q) {
  if (query_vectors_.empty()) {
    query_vectors_.resize(queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      query_vectors_[i] =
          join::ColumnVectorStore::EmbedColumn(queries_[i], *ft_);
    }
  }
  return query_vectors_[q];
}

std::vector<std::vector<Scored>> BenchEnv::ExactSemantic(float tau) {
  const auto& st = store();
  std::vector<std::vector<Scored>> out;
  out.reserve(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto& qv = QueryVectors(q);
    out.push_back(join::ExactSemanticTopK(st, qv.data(),
                                          queries_[q].cells.size(), tau,
                                          config_.k_max));
  }
  return out;
}

double BenchEnv::EquiJn(size_t q, u32 id) const {
  return join::EquiJoinability(tok_->EncodeQuery(queries_[q]),
                               tok_->columns()[id]);
}

double BenchEnv::SemanticJn(size_t q, u32 id, float tau) {
  const auto& st = store();
  const auto& qv = QueryVectors(q);
  return join::SemanticJoinability(qv.data(), queries_[q].cells.size(),
                                   st.column_vectors(id),
                                   st.column_count(id), st.dim(), tau);
}

core::TrainingDataConfig BenchEnv::TrainingConfig(
    core::JoinType join_type, double shuffle_rate) const {
  core::TrainingDataConfig tc;
  tc.join_type = join_type;
  tc.positive_threshold = 0.7;
  tc.tau = config_.tau;
  tc.shuffle_rate = shuffle_rate;
  tc.max_pairs = 4000;
  tc.seed = config_.seed ^ 0x77;
  return tc;
}

core::TrainingData BenchEnv::PrepareData(core::JoinType join_type,
                                         double shuffle_rate) {
  return core::PrepareTrainingData(sample_, ft_.get(),
                                   TrainingConfig(join_type, shuffle_rate));
}

MethodResult BenchEnv::RunEncoder(core::ColumnEncoder* encoder,
                                  const std::string& name) {
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kHnsw;
  core::EmbeddingSearcher searcher(encoder, sc);
  DJ_CHECK(searcher.BuildIndex(repo_).ok());
  MethodResult out;
  out.name = name;
  TimeAccumulator encode_acc, total_acc;
  for (const auto& q : queries_) {
    auto s = searcher.Search(q, {.k = config_.k_max});
    encode_acc.Add(s.stats.SpanMs("searcher.encode") / 1e3);
    total_acc.Add(s.stats.total_ms() / 1e3);
    out.rankings.push_back(std::move(s.ids));
  }
  out.mean_encode_ms = encode_acc.MeanMillis();
  out.mean_total_ms = total_acc.MeanMillis();
  return out;
}

double BatchedEncodeMsPerQuery(core::ColumnEncoder* encoder,
                               const std::vector<lake::Column>& queries,
                               ThreadPool* pool) {
  if (queries.empty()) return 0.0;
  std::vector<float> out(queries.size() *
                         static_cast<size_t>(encoder->dim()));
  WallTimer t;
  pool->ParallelFor(queries.size(), [&](size_t i) {
    encoder->EncodeInto(queries[i],
                        out.data() + i * static_cast<size_t>(encoder->dim()));
  });
  return t.ElapsedMillis() / static_cast<double>(queries.size());
}

BenchEnv::DeepJoinRun BenchEnv::RunDeepJoin(core::PlmKind kind,
                                            core::JoinType join_type,
                                            core::TransformOption transform,
                                            double shuffle_rate,
                                            bool quiet) {
  core::DeepJoinConfig cfg;
  cfg.plm.kind = kind;
  cfg.plm.max_seq_len = config_.seq_len;
  cfg.plm.transform.option = transform;
  cfg.plm.transform.cell_budget = config_.seq_len / 3;
  cfg.plm.transform.dict = &tok_->dict();
  cfg.plm.seed = config_.seed ^ 0x1234;
  cfg.training = TrainingConfig(join_type, shuffle_rate);
  cfg.finetune.batch_size = config_.batch;
  cfg.finetune.max_steps = config_.steps;
  cfg.finetune.lr = 4e-4;
  cfg.finetune.seed = config_.seed ^ 0x99;

  WallTimer t;
  DeepJoinRun run;
  run.model = core::DeepJoin::Train(sample_, *ft_, cfg);
  if (!quiet) {
    std::printf(
        "[train] %s %s transform=%s shuffle=%.1f: %zu pairs, loss %.3f -> "
        "%.3f (%.1fs)\n",
        run.model->encoder().name().c_str(),
        join_type == core::JoinType::kEqui ? "equi" : "semantic",
        core::TransformOptionName(transform), shuffle_rate,
        run.model->training_data().pairs.size(),
        run.model->train_stats().first_loss,
        run.model->train_stats().final_loss, t.ElapsedSeconds());
    std::fflush(stdout);
  }
  // RunEncoder owns its searcher + index, keeping one code path for every
  // embedding method; callers that need run.model's own index call
  // BuildIndex themselves.
  run.result = RunEncoder(&run.model->encoder(),
                          kind == core::PlmKind::kDistilSim
                              ? MethodName(Method::kDeepJoinDistil)
                              : MethodName(Method::kDeepJoinMPNet));
  return run;
}

MethodResult BenchEnv::RunFastText() {
  core::TransformConfig tc;
  tc.option = core::TransformOption::kCol;
  tc.cell_budget = 0;  // the baseline averages over all cells
  core::FastTextColumnEncoder encoder(ft_.get(), tc);
  return RunEncoder(&encoder, MethodName(Method::kFastText));
}

MethodResult BenchEnv::RunRawPlm(core::PlmKind kind) {
  core::PlmEncoderConfig pc;
  pc.kind = kind;
  pc.max_seq_len = config_.seq_len;
  pc.transform.cell_budget = config_.seq_len / 3;
  pc.transform.dict = &tok_->dict();
  pc.seed = config_.seed ^ 0x4321;
  core::PlmColumnEncoder encoder(pc, sample_, *ft_);
  return RunEncoder(&encoder, MethodName(kind == core::PlmKind::kDistilSim
                                             ? Method::kRawDistil
                                             : Method::kRawMPNet));
}

MethodResult BenchEnv::RunTabert() {
  core::PlmEncoderConfig pc;
  pc.kind = core::PlmKind::kDistilSim;
  pc.max_seq_len = config_.seq_len;
  pc.transform.cell_budget = config_.seq_len / 3;
  pc.transform.dict = &tok_->dict();
  pc.seed = config_.seed ^ 0xABCD;
  core::PlmColumnEncoder encoder(pc, sample_, *ft_);
  core::FineTuneConfig ftc;
  ftc.batch_size = config_.batch;
  ftc.max_steps = config_.steps / 2;
  ftc.seed = config_.seed ^ 0x321;
  core::TrainTabertStyle(encoder, sample_, ftc);
  return RunEncoder(&encoder, MethodName(Method::kTabert));
}

MethodResult BenchEnv::RunMlp(core::JoinType join_type) {
  nn::MlpConfig mc;
  mc.input_dim = ft_->dim();
  mc.hidden_dim = 64;
  mc.seed = config_.seed ^ 0x33;
  auto mlp = std::make_shared<nn::MlpRegressor>(mc);
  core::TransformConfig tc;
  tc.option = core::TransformOption::kCol;
  tc.cell_budget = 0;
  core::MlpColumnEncoder encoder(mlp, ft_.get(), tc);
  core::FineTuneConfig ftc;
  ftc.batch_size = config_.batch;
  ftc.max_steps = config_.steps * 6;  // MLP steps are cheap
  ftc.lr = 2e-3;
  ftc.weight_decay = 0.0;  // regression on small nets: decay only hurts
  ftc.seed = config_.seed ^ 0x55;
  auto data = PrepareData(join_type, 0.0);
  core::TrainMlp(encoder, sample_, data, ftc);
  return RunEncoder(&encoder, MethodName(Method::kMlp));
}

MethodResult BenchEnv::RunLshEnsemble() {
  join::LshEnsembleConfig lc;
  join::LshEnsembleIndex index(tok_.get(), lc);
  MethodResult out;
  out.name = MethodName(Method::kLshEnsemble);
  TimeAccumulator total_acc;
  for (const auto& q : queries_) {
    const auto qt = tok_->EncodeQuery(q);
    WallTimer t;
    auto scored = index.SearchTopK(qt, config_.k_max);
    total_acc.Add(t.ElapsedSeconds());
    out.rankings.push_back(TopIds(scored, config_.k_max));
  }
  out.mean_total_ms = total_acc.MeanMillis();
  return out;
}

MethodResult BenchEnv::RunJosie() {
  join::JosieIndex index(tok_.get());
  MethodResult out;
  out.name = MethodName(Method::kJosie);
  TimeAccumulator total_acc;
  for (const auto& q : queries_) {
    const auto qt = tok_->EncodeQuery(q);
    WallTimer t;
    auto scored = index.SearchTopK(qt, config_.k_max);
    total_acc.Add(t.ElapsedSeconds());
    out.rankings.push_back(TopIds(scored, config_.k_max));
  }
  out.mean_total_ms = total_acc.MeanMillis();
  return out;
}

MethodResult BenchEnv::RunPexeso(float tau) {
  join::PexesoConfig pc;
  pc.tau = tau;
  join::PexesoIndex index(&store(), pc);
  MethodResult out;
  out.name = MethodName(Method::kPexeso);
  TimeAccumulator total_acc;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto& qv = QueryVectors(q);
    WallTimer t;
    auto scored =
        index.SearchTopK(qv.data(), queries_[q].cells.size(), config_.k_max);
    total_acc.Add(t.ElapsedSeconds());
    out.rankings.push_back(TopIds(scored, config_.k_max));
  }
  out.mean_total_ms = total_acc.MeanMillis();
  return out;
}

std::vector<u32> TopIds(const std::vector<u32>& ranking, size_t k) {
  return {ranking.begin(),
          ranking.begin() + static_cast<long>(std::min(k, ranking.size()))};
}

std::vector<u32> TopIds(const std::vector<Scored>& scored, size_t k) {
  std::vector<u32> out;
  out.reserve(std::min(k, scored.size()));
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    out.push_back(scored[i].id);
  }
  return out;
}

double MeanPrecision(const MethodResult& method,
                     const std::vector<std::vector<Scored>>& exact,
                     size_t k) {
  std::vector<double> ps;
  for (size_t q = 0; q < method.rankings.size(); ++q) {
    ps.push_back(eval::PrecisionAtK(TopIds(method.rankings[q], k),
                                    TopIds(exact[q], k)));
  }
  return eval::Mean(ps);
}

double MeanNdcg(const MethodResult& method,
                const std::vector<std::vector<Scored>>& exact, size_t k,
                const std::function<double(size_t, u32)>& jn_of) {
  std::vector<double> ns;
  for (size_t q = 0; q < method.rankings.size(); ++q) {
    auto jn = [&](u32 id) { return jn_of(q, id); };
    ns.push_back(eval::NdcgAtK(TopIds(method.rankings[q], k),
                               TopIds(exact[q], k), jn));
  }
  return eval::Mean(ns);
}

void PrintAccuracyTable(const std::string& title,
                        const std::vector<MethodResult>& methods,
                        const std::vector<std::vector<Scored>>& exact,
                        const std::function<double(size_t, u32)>& jn_of,
                        const std::vector<size_t>& ks) {
  std::vector<std::string> header = {"Method"};
  for (size_t k : ks) header.push_back("P@" + std::to_string(k));
  for (size_t k : ks) header.push_back("N@" + std::to_string(k));
  TablePrinter printer(header);
  for (const auto& m : methods) {
    std::vector<std::string> row = {m.name};
    for (size_t k : ks) {
      row.push_back(FormatDouble(MeanPrecision(m, exact, k), 3));
    }
    for (size_t k : ks) {
      row.push_back(FormatDouble(MeanNdcg(m, exact, k, jn_of), 3));
    }
    printer.AddRow(std::move(row));
  }
  printer.Print(title);
}

}  // namespace bench
}  // namespace deepjoin
