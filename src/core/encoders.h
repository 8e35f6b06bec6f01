// Column encoders: the pluggable embedding stage of DeepJoin's
// embedding-based retrieval (paper Fig. 1). One interface serves the
// fine-tuned PLM (DeepJoin proper) and every embedding baseline of §5.1
// (fastText, raw BERT/MPNet, TaBERT-style, MLP).
#ifndef DEEPJOIN_CORE_ENCODERS_H_
#define DEEPJOIN_CORE_ENCODERS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/transform.h"
#include "nn/mlp.h"
#include "nn/transformer.h"
#include "text/fasttext.h"
#include "text/vocab.h"
#include "util/alloc_guard.h"

namespace deepjoin {
namespace core {

/// Maps a column to a fixed-length vector.
///
/// Concurrency contract: EmbeddingSearcher::BuildIndex and
/// StreamScan::Board (the path of QueryService and SearchBatch) fan
/// EncodeInto out over a ThreadPool, and Search may run on many client
/// threads, so one encoder instance is invoked from many threads at
/// once. Encode and EncodeInto must therefore be safe for concurrent
/// calls — keep scratch per-call or thread_local (the autograd
/// NoGradGuard flag is thread_local for exactly this reason), and guard
/// any shared mutable cache with a deepjoin::Mutex + DJ_GUARDED_BY (see
/// src/util/mutex.h). Training-time graph building
/// (EncodeForTraining/...) is single-threaded and exempt. Exercised by
/// searcher_concurrent_test under the TSan profile.
class ColumnEncoder {
 public:
  virtual ~ColumnEncoder() = default;
  virtual std::vector<float> Encode(const lake::Column& column) = 0;

  /// Writes the embedding into `out` (dim() floats). The hot indexing and
  /// batch-search loops call this so encoders with a fast path can skip
  /// the per-column vector allocation; the default just forwards to
  /// Encode. Same concurrency contract as Encode.
  virtual void EncodeInto(const lake::Column& column, float* out) {
    const std::vector<float> v = Encode(column);
    std::copy(v.begin(), v.end(), out);
  }

  virtual int dim() const = 0;
  virtual std::string name() const = 0;
};

/// Which PLM architecture a PlmColumnEncoder mirrors (DESIGN.md):
/// DistilSim = absolute positions (DistilBERT-like), MPNetSim = relative
/// position biases + wider model (MPNet-like).
enum class PlmKind { kDistilSim, kMPNetSim };

struct PlmEncoderConfig {
  PlmKind kind = PlmKind::kMPNetSim;
  TransformConfig transform;
  int max_words = 10000;     ///< vocabulary size cap
  int oov_buckets = 8192;
  int max_seq_len = 64;
  u64 seed = 1234;
};

/// The PLM column encoder. Construction builds the vocabulary from the
/// training sample's transformed texts and initialises token embeddings
/// from the subword embedder (the pre-training substitute); fine-tuning is
/// performed by core/trainer.h.
class PlmColumnEncoder : public ColumnEncoder {
 public:
  PlmColumnEncoder(const PlmEncoderConfig& config,
                   const std::vector<lake::Column>& vocab_corpus,
                   const FastTextEmbedder& pretrained);

  /// Reconstructs an encoder from persisted parts (see core/model_io.h).
  /// Parameters are freshly initialised; the loader overwrites them.
  PlmColumnEncoder(const PlmEncoderConfig& config, Vocab vocab);

  std::vector<float> Encode(const lake::Column& column) override;
  /// Allocation-free path: transform/tokenize/vocab via thread-local
  /// capacity-reusing scratch, then the transformer workspace forward
  /// straight into `out` (bit-identical to Encode; see
  /// TransformerEncoder). The DJ_NOALLOC contract holds for the steady
  /// state — after scratch warmup, with no per-query TraceCollector
  /// installed — and is enforced by tools/dj_alloc plus the bans in
  /// alloc_guard_test.
  DJ_NOALLOC void EncodeInto(const lake::Column& column, float* out) override;
  int dim() const override { return encoder_->config().d_model; }
  std::string name() const override {
    return config_.kind == PlmKind::kDistilSim ? "DeepJoin-DistilSim"
                                               : "DeepJoin-MPNetSim";
  }

  /// Token ids for a column (transform -> tokenize -> vocab).
  std::vector<u32> ColumnToIds(const lake::Column& column) const;
  /// Same pipeline into a caller-owned id buffer (cleared first), with
  /// all intermediate text/token state in thread-local capacity-reusing
  /// scratch. The hot encode path under EncodeInto.
  DJ_NOALLOC void ColumnToIdsInto(const lake::Column& column,
                                  std::vector<u32>* ids) const;
  /// Graph-building encode for training.
  nn::VarPtr EncodeForTraining(const lake::Column& column);
  /// Graph-building encode of a raw text (TaBERT-style objectives).
  nn::VarPtr EncodeTextForTraining(const std::string& text);

  nn::TransformerEncoder& transformer() { return *encoder_; }
  const TransformConfig& transform_config() const {
    return config_.transform;
  }
  void set_transform_config(const TransformConfig& t) {
    config_.transform = t;
  }
  const Vocab& vocab() const { return vocab_; }
  const PlmEncoderConfig& config() const { return config_; }

 private:
  void BuildTransformer();

  PlmEncoderConfig config_;
  Vocab vocab_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
};

/// Mean-of-word-vectors baseline ("fastText" row of the tables). Also used
/// as the input featurizer for the MLP baseline and PEXESO's cell space.
class FastTextColumnEncoder : public ColumnEncoder {
 public:
  FastTextColumnEncoder(const FastTextEmbedder* embedder,
                        const TransformConfig& transform)
      : embedder_(embedder), transform_(transform) {}

  std::vector<float> Encode(const lake::Column& column) override;
  int dim() const override { return embedder_->dim(); }
  std::string name() const override { return "fastText"; }

 private:
  const FastTextEmbedder* embedder_;
  TransformConfig transform_;
};

/// MLP baseline: fastText column vector -> trained 2-layer tower; the last
/// hidden layer is the retrieval embedding (paper §5.1).
class MlpColumnEncoder : public ColumnEncoder {
 public:
  MlpColumnEncoder(std::shared_ptr<nn::MlpRegressor> mlp,
                   const FastTextEmbedder* embedder,
                   const TransformConfig& transform)
      : mlp_(std::move(mlp)), inner_(embedder, transform) {}

  std::vector<float> Encode(const lake::Column& column) override {
    return mlp_->Embed(inner_.Encode(column));
  }
  int dim() const override { return mlp_->embedding_dim(); }
  std::string name() const override { return "MLP"; }

  nn::MlpRegressor& mlp() { return *mlp_; }
  FastTextColumnEncoder& featurizer() { return inner_; }

 private:
  std::shared_ptr<nn::MlpRegressor> mlp_;
  FastTextColumnEncoder inner_;
};

}  // namespace core
}  // namespace deepjoin

#endif  // DEEPJOIN_CORE_ENCODERS_H_
