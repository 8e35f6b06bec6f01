// Transformer sequence encoder — the PLM substitute that DeepJoin
// fine-tunes. Two position-handling modes mirror the paper's two PLMs:
//   * kAbsolute      — learned absolute position embeddings, as in
//                      DistilBERT ("DistilSim").
//   * kRelativeBias  — learned per-head relative-position attention biases
//                      and no absolute positions, capturing the
//                      position-modeling axis MPNet improves on ("MPNetSim").
// Sentence embedding = mean pooling over token states (the
// sentence-transformers convention the paper uses).
#ifndef DEEPJOIN_NN_TRANSFORMER_H_
#define DEEPJOIN_NN_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/alloc_guard.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace deepjoin {
namespace nn {

enum class PositionMode { kAbsolute, kRelativeBias };

struct TransformerConfig {
  int vocab_size = 0;      ///< must be set by the caller
  int d_model = 48;
  int num_layers = 2;
  int num_heads = 4;
  int d_ff = 192;          ///< feed-forward inner width
  int max_seq_len = 64;
  PositionMode position_mode = PositionMode::kAbsolute;
  int rel_radius = 8;      ///< relative-bias clip radius (kRelativeBias)
  u64 seed = 1234;
};

/// The forward's blocks, in the order a layer ends them; kEmbed ends once,
/// before the first layer. kAttn ends once per head.
enum class ForwardBlock {
  kEmbed, kQkv, kAttn, kOutLn, kFfn1Gelu, kFfn2Ln, kCount
};

/// Told where each block of the workspace forward ends, for block timing.
class ForwardProbe {
 public:
  virtual ~ForwardProbe() = default;
  virtual void Lap(ForwardBlock block) = 0;
};

/// Scratch matrices of the workspace forward (defined in transformer.cc).
struct EncoderWorkspace;

/// Named parameter collection; the optimizer iterates over this.
class ParamStore {
 public:
  VarPtr Create(const std::string& name, int rows, int cols, Rng& rng,
                double stddev);
  /// Creates a parameter filled with a constant (for LayerNorm gains).
  VarPtr CreateConst(const std::string& name, int rows, int cols, float v);

  const std::vector<VarPtr>& params() const { return params_; }
  const std::vector<std::string>& names() const { return names_; }
  size_t NumScalars() const;
  void ZeroGrads();

 private:
  std::vector<VarPtr> params_;
  std::vector<std::string> names_;
};

class TransformerEncoder {
 public:
  explicit TransformerEncoder(const TransformerConfig& config);
  ~TransformerEncoder();  // out-of-line: EncoderWorkspace is incomplete

  const TransformerConfig& config() const { return config_; }
  ParamStore& params() { return params_; }

  /// Copies pre-trained vectors into the first min(d_model, dim) columns of
  /// the token embedding table. Stands in for language-model pre-training:
  /// ids produced by the caller's vocabulary are given subword-informed
  /// starting points.
  void InitTokenEmbedding(u32 token_id, const std::vector<float>& vec);

  /// Encodes a (truncated) id sequence to a [1, d_model] graph node.
  /// Builds a full autodiff graph unless a NoGradGuard is alive.
  VarPtr Encode(const std::vector<u32>& ids);

  /// Inference-only convenience: mean-pooled embedding as a plain vector.
  std::vector<float> EncodeToVector(const std::vector<u32>& ids);

  /// Allocation-free inference: writes the [d_model] mean-pooled embedding
  /// to `out`. Runs the forward body that Encode records on the tape on a
  /// workspace executor instead (both in transformer.cc): the same kernels
  /// and nn/row_ops.h helpers in the same order, so the result is
  /// bit-identical to Encode() under NoGradGuard, but with no tape and no
  /// per-op heap allocation. The exception: when kern::AmxLinearActive(),
  /// the six per-layer linears run on AMX-BF16 tiles (util/kernels.h's
  /// bf16 contract) from bf16 weight copies that each workspace repacks
  /// when a weight's Var::version() moves. Concurrent calls are safe: a
  /// pool hands each its own scratch (same scheme as HNSW's VisitedPool),
  /// and the result does not depend on the thread. DJ_NOALLOC once the
  /// pool has warmed up.
  DJ_NOALLOC void EncodeToVector(const std::vector<u32>& ids, float* out);

  /// The same forward with `probe` told where each block ends
  /// (bench_micro's BM_ForwardBlocks). The overload above runs it with an
  /// empty probe type, so production pays no call for this.
  DJ_NOALLOC void EncodeToVector(const std::vector<u32>& ids, float* out,
                                 ForwardProbe& probe);

 private:
  struct Layer {
    VarPtr wq, bq, wk, bk, wv, bv, wo, bo;
    VarPtr ln1_g, ln1_b;
    VarPtr ff1_w, ff1_b, ff2_w, ff2_b;
    VarPtr ln2_g, ln2_b;
    std::vector<VarPtr> rel_bias;  // one [1, 2R+1] table per head
  };

  /// Embedding, the layer sequence and mean pooling, written once over
  /// the ops of an executor (both executors live in transformer.cc).
  template <class Exec, class Probe>
  auto Forward(Exec& ex, Probe& probe);
  /// Runs Forward on the workspace executor, over a workspace borrowed
  /// from the pool.
  template <class Probe>
  void ForwardInWorkspace(const std::vector<u32>& ids, float* out,
                          Probe& probe) DJ_EXCLUDES(ws_mu_);

  TransformerConfig config_;
  ParamStore params_;
  VarPtr token_emb_;  // [vocab, d]
  VarPtr pos_emb_;    // [max_seq, d] (absolute mode only)
  std::vector<Layer> layers_;

  // Reusable inference scratch, pooled so concurrent EncodeToVector calls
  // never share one (ColumnEncoder's concurrency contract fans encoding
  // across a ThreadPool).
  Mutex ws_mu_{"transformer.workspace", rank::kWorkspace};
  std::vector<std::unique_ptr<EncoderWorkspace>> ws_free_
      DJ_GUARDED_BY(ws_mu_);
};

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_TRANSFORMER_H_
