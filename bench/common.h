// Shared machinery for the experiment harnesses (one binary per paper
// table; see DESIGN.md §3). A BenchEnv owns one corpus — generator,
// repository, queries, tokenization, cell-vector store, subword embedder —
// and method runners produce per-query rankings plus timing breakdowns
// that the printers format like the paper's tables.
#ifndef DEEPJOIN_BENCH_COMMON_H_
#define DEEPJOIN_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/deepjoin.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "join/josie.h"
#include "join/lsh_ensemble.h"
#include "join/pexeso.h"
#include "lake/generator.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace deepjoin {
namespace bench {

/// Scaled-down defaults (the paper uses 30K training / 1M repository
/// columns on a GPU server; see DESIGN.md §1 "Scale defaults").
struct BenchConfig {
  std::string corpus = "webtable";
  size_t repo_size = 3000;
  size_t sample_size = 350;   ///< training sample (the "30K" analogue)
  size_t num_queries = 24;
  size_t k_max = 50;
  int ft_dim = 24;            ///< subword/cell embedding dim
  int steps = 90;             ///< fine-tuning steps
  int batch = 16;
  int seq_len = 64;
  double shuffle_rate = 0.2;  ///< paper-best for Webtable equi (Table 11)
  float tau = 0.9f;
  u64 seed = 1;

  static BenchConfig FromFlags(const Flags& flags);
};

enum class Method {
  kLshEnsemble,
  kJosie,
  kFastText,
  kRawDistil,   // "BERT" row: PLM without fine-tuning
  kRawMPNet,    // "MPNet" row
  kTabert,
  kMlp,
  kDeepJoinDistil,
  kDeepJoinMPNet,
  kPexeso,
};
const char* MethodName(Method m);

/// Per-method evaluation output.
struct MethodResult {
  std::string name;
  /// rankings[q] = top-k_max repository ids, best first.
  std::vector<std::vector<u32>> rankings;
  double mean_encode_ms = 0.0;
  double mean_total_ms = 0.0;
};

class BenchEnv {
 public:
  explicit BenchEnv(const BenchConfig& config);

  /// Takes externally built corpus pieces (the column-size strata of
  /// Tables 8 and 15 filter the repository before evaluation).
  BenchEnv(const BenchConfig& config, lake::Repository repo,
           std::vector<lake::Column> sample,
           std::vector<lake::Column> queries);

  const BenchConfig& config() const { return config_; }
  lake::LakeGenerator& generator() { return *gen_; }
  const lake::Repository& repo() const { return repo_; }
  const std::vector<lake::Column>& queries() const { return queries_; }
  const join::TokenizedRepository& tok() const { return *tok_; }
  const FastTextEmbedder& ft() const { return *ft_; }
  const std::vector<lake::Column>& sample() const { return sample_; }

  /// Cell-vector store (built lazily; only semantic benches pay for it).
  const join::ColumnVectorStore& store();

  /// Exact equi top-k ground truth per query (k = k_max).
  const std::vector<std::vector<Scored>>& ExactEqui();
  /// Exact semantic top-k ground truth per query at `tau`.
  std::vector<std::vector<Scored>> ExactSemantic(float tau);

  /// True equi joinability of repo column `id` to query `q`.
  double EquiJn(size_t q, u32 id) const;
  /// True semantic joinability at `tau`.
  double SemanticJn(size_t q, u32 id, float tau);

  /// Per-query flat cell vectors (for PEXESO / semantic ground truth).
  const std::vector<float>& QueryVectors(size_t q);

  // ---- method runners ----

  /// Fine-tunes DeepJoin with the given knobs and evaluates it. The
  /// returned DeepJoin can be reused (e.g., Table 14's k sweep).
  struct DeepJoinRun {
    MethodResult result;
    std::unique_ptr<core::DeepJoin> model;
  };
  DeepJoinRun RunDeepJoin(core::PlmKind kind, core::JoinType join_type,
                          core::TransformOption transform,
                          double shuffle_rate, bool quiet = false);
  DeepJoinRun RunDeepJoin(core::JoinType join_type) {
    return RunDeepJoin(core::PlmKind::kMPNetSim, join_type,
                       core::TransformOption::kTitleColnameStatCol,
                       config_.shuffle_rate);
  }

  MethodResult RunFastText();
  MethodResult RunRawPlm(core::PlmKind kind);  // no fine-tuning
  MethodResult RunTabert();
  MethodResult RunMlp(core::JoinType join_type);
  MethodResult RunLshEnsemble();
  MethodResult RunJosie();
  MethodResult RunPexeso(float tau);

  /// Evaluates any embedding encoder through the shared ANNS scheme.
  MethodResult RunEncoder(core::ColumnEncoder* encoder,
                          const std::string& name);

 private:
  core::TrainingData PrepareData(core::JoinType join_type,
                                 double shuffle_rate);
  core::TrainingDataConfig TrainingConfig(core::JoinType join_type,
                                          double shuffle_rate) const;

  BenchConfig config_;
  std::unique_ptr<lake::LakeGenerator> gen_;
  lake::Repository repo_;
  std::vector<lake::Column> sample_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<join::TokenizedRepository> tok_;
  std::unique_ptr<FastTextEmbedder> ft_;
  std::unique_ptr<join::ColumnVectorStore> store_;
  std::vector<std::vector<Scored>> exact_equi_;
  std::vector<std::vector<float>> query_vectors_;
};

/// Mean per-query wall time (ms) of the batched rows' encode stage on its
/// own: every query encoded in parallel on `pool` (ParallelFor over
/// ColumnEncoder::EncodeInto, as SearchBatch encodes its group), divided
/// by the number of queries.
double BatchedEncodeMsPerQuery(core::ColumnEncoder* encoder,
                               const std::vector<lake::Column>& queries,
                               ThreadPool* pool);

/// Prefix of a ranking (model top-k is the first k of the k_max ranking).
std::vector<u32> TopIds(const std::vector<u32>& ranking, size_t k);
std::vector<u32> TopIds(const std::vector<Scored>& scored, size_t k);

/// Prints a paper-style Precision@k / NDCG@k grid for k in `ks`.
/// `jn_of(q, id)` returns the true joinability used by NDCG.
void PrintAccuracyTable(
    const std::string& title, const std::vector<MethodResult>& methods,
    const std::vector<std::vector<Scored>>& exact,
    const std::function<double(size_t, u32)>& jn_of,
    const std::vector<size_t>& ks = {10, 20, 30, 40, 50});

/// Mean Precision@k over queries.
double MeanPrecision(const MethodResult& method,
                     const std::vector<std::vector<Scored>>& exact,
                     size_t k);
/// Mean NDCG@k over queries.
double MeanNdcg(const MethodResult& method,
                const std::vector<std::vector<Scored>>& exact, size_t k,
                const std::function<double(size_t, u32)>& jn_of);

}  // namespace bench
}  // namespace deepjoin

#endif  // DEEPJOIN_BENCH_COMMON_H_
