#include "nn/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "nn/row_ops.h"
#include "util/kernels.h"

namespace deepjoin {
namespace nn {

// Scratch for the workspace executor. Every matrix is sized for
// max_seq_len once; a call over L tokens touches only the first L rows
// (and, for `scores`, the first L columns — the kernels take leading
// dimensions, and per util/kernels.h reduction chains do not depend on
// them, so the values match the graph executor's tightly-sized matrices).
struct EncoderWorkspace {
  Matrix x, ctx;     // [max_seq, d_model]
  Matrix linear[5];  // by Slot: q, k, v, tmp [max_seq, d_model]; h1 d_ff
  Matrix scores;     // [max_seq, max_seq]
  Matrix bias;       // [1, 2 * max_seq] relative bias by j - i

  // AMX hosts only (kern::AmxLinearAvailable): one bf16 copy per linear
  // weight, in the order Forward calls them (6 per layer), each tagged
  // with the Var and version it was packed from; then the activation tile
  // buffer.
  struct Pack {
    const Var* src = nullptr;
    u64 version = 0;
    size_t offset = 0;
  };
  std::vector<Pack> packs;
  std::vector<u16, kern::AlignedAllocator<u16, 64>> bf16;
  size_t act_offset = 0;

  explicit EncoderWorkspace(const TransformerConfig& c)
      : x(c.max_seq_len, c.d_model),
        ctx(c.max_seq_len, c.d_model),
        linear{Matrix(c.max_seq_len, c.d_model),
               Matrix(c.max_seq_len, c.d_model),
               Matrix(c.max_seq_len, c.d_model),
               Matrix(c.max_seq_len, c.d_model),
               Matrix(c.max_seq_len, c.d_ff)},
        scores(c.max_seq_len, c.max_seq_len),
        bias(1, 2 * c.max_seq_len) {
    if (!kern::AmxLinearAvailable()) return;
    const int d = c.d_model, f = c.d_ff;
    const int shapes[6][2] = {{d, d}, {d, d}, {d, d}, {d, d}, {d, f}, {f, d}};
    for (int l = 0; l < c.num_layers; ++l) {
      for (const auto& kn : shapes) {
        packs.push_back({nullptr, 0, act_offset});
        act_offset += kern::AmxPackedWeightSize(kn[0], kn[1]);
      }
    }
    bf16.resize(act_offset +
                kern::AmxActivationSize(c.max_seq_len, std::max(d, f)));
  }
};

namespace {

constexpr float kLayerNormEps = 1e-5f;

/// The workspace matrix a Linear writes. The graph executor ignores it:
/// each of its ops returns a fresh node.
enum class Slot { kQ, kK, kV, kTmp, kH1 };

/// The production probe: Forward's laps compile to nothing.
struct NoProbe {
  void Lap(ForwardBlock) {}
};

/// The id count after truncation to max_seq_len.
int SeqLen(const std::vector<u32>& ids, const TransformerConfig& c) {
  return std::min<int>(static_cast<int>(ids.size()), c.max_seq_len);
}

/// Runs each op with util/kernels.h kernels and nn/row_ops.h helpers into
/// the workspace: no tape, no heap allocation. Each op computes what the
/// autograd ops named in its comment compute, per element in the same
/// order, so the output is bit-identical to the graph executor's.
class WorkspaceExec {
 public:
  using Tensor = Matrix*;

  WorkspaceExec(EncoderWorkspace& ws, const std::vector<u32>& ids,
                const TransformerConfig& c, bool amx, float* out)
      : ws_(ws), ids_(ids.data()), L_(SeqLen(ids, c)),
        dh_(c.d_model / c.num_heads), amx_(amx), out_(out) {}

  /// EmbeddingGather, then Add of the absolute positions when `pos` is set.
  DJ_NOALLOC Tensor Embed(const VarPtr& tok, const VarPtr& pos) {
    const Matrix& table = tok->value();
    const int d = table.cols();
    for (int i = 0; i < L_; ++i) {
      DJ_CHECK(static_cast<int>(ids_[i]) < table.rows());
      std::memcpy(ws_.x.row(i), table.row(static_cast<int>(ids_[i])),
                  sizeof(float) * static_cast<size_t>(d));
      if (pos) kern::Axpy(d, 1.0f, pos->value().row(i), ws_.x.row(i));
    }
    return &ws_.x;
  }

  /// MatMul + AddRowVector (+ Gelu when `gelu`): kern::Linear, or on the
  /// AMX path kern::AmxLinear from the workspace's bf16 copy of w, packed
  /// again whenever w is another Var or has been written since.
  DJ_NOALLOC Tensor Linear(Tensor x, const VarPtr& w, const VarPtr& b,
                           Slot slot, bool gelu = false) {
    Matrix& y = ws_.linear[static_cast<int>(slot)];
    const int k = w->rows(), n = w->cols();
    if (!amx_) {
      kern::Linear(L_, n, k, x->data(), x->cols(), w->value().data(),
                   b->value().row(0), gelu, y.data(), n);
      return &y;
    }
    EncoderWorkspace::Pack& pack = ws_.packs[next_pack_++];
    u16* packed = ws_.bf16.data() + pack.offset;
    if (pack.src != w.get() || pack.version != w->version()) {
      kern::AmxPackWeight(k, n, w->value().data(), packed);
      pack.src = w.get();
      pack.version = w->version();
    }
    kern::AmxLinear(L_, n, k, x->data(), x->cols(), packed, b->value().row(0),
                    gelu, ws_.bf16.data() + ws_.act_offset, y.data(), n);
    return &y;
  }

  /// Head h's SliceCols of q, k and v through MatMulNT, Scale,
  /// AddRelPosBias when `rel_bias` is set, RowSoftmax and MatMul, into
  /// head h's columns of ctx (the ConcatCols that Context returns). The
  /// bias of (i, j) depends only on j - i, so one row brow[t] =
  /// bias(L - 1, t) holds every row: row i is the slice starting at
  /// L - 1 - i.
  DJ_NOALLOC void Attention(Tensor q, Tensor k, Tensor v, int h, float scale,
                            const VarPtr* rel_bias) {
    const float* brow = nullptr;
    if (rel_bias != nullptr) {
      const Matrix& table = (*rel_bias)->value();
      const int buckets = table.cols(), radius = (buckets - 1) / 2;
      float* row = ws_.bias.data();
      for (int t = 0; t < 2 * L_ - 1; ++t) {
        row[t] = table.at(0, RelPosBucket(L_ - 1, t, radius, buckets));
      }
      brow = row;
    }
    const int off = h * dh_;
    kern::Attention(L_, dh_, q->data() + off, k->data() + off,
                    v->data() + off, q->cols(), scale, brow, ws_.scores.data(),
                    ws_.scores.cols(), ws_.ctx.data() + off, ws_.ctx.cols());
  }
  DJ_NOALLOC Tensor Context() { return &ws_.ctx; }

  /// Add (the residual) + LayerNormRows, into x.
  DJ_NOALLOC Tensor AddLayerNorm(Tensor x, Tensor y, const VarPtr& g,
                                 const VarPtr& b) {
    const int d = x->cols();
    for (int i = 0; i < L_; ++i) {
      kern::Axpy(d, 1.0f, y->row(i), x->row(i));
      LayerNormRow(x->row(i), d, g->value().row(0), b->value().row(0),
                   kLayerNormEps, /*xhat=*/nullptr, x->row(i));
    }
    return x;
  }

  /// MaskedMeanPool, into the caller's `out`.
  DJ_NOALLOC void MeanPool(Tensor x) {
    const int d = x->cols();
    std::memset(out_, 0, sizeof(float) * static_cast<size_t>(d));
    for (int i = 0; i < L_; ++i) kern::Axpy(d, 1.0f, x->row(i), out_);
    kern::ScaleAdd(d, 1.0f / static_cast<float>(L_), out_, 0.0f, out_);
  }

 private:
  EncoderWorkspace& ws_;
  const u32* ids_;
  int L_, dh_;
  bool amx_;
  int next_pack_ = 0;  // the next linear's index into ws_.packs
  float* out_;
};

/// Records each op on the autograd tape as the ops of nn/autograd.h, so
/// training backpropagates through their own backward closures. Under a
/// NoGradGuard the same ops build no tape.
class GraphExec {
 public:
  using Tensor = VarPtr;

  GraphExec(const std::vector<u32>& ids, const TransformerConfig& c)
      : ids_(ids.begin(), ids.begin() + SeqLen(ids, c)),
        dh_(c.d_model / c.num_heads) {}

  VarPtr Embed(const VarPtr& tok, const VarPtr& pos) {
    VarPtr x = EmbeddingGather(tok, ids_);
    if (pos == nullptr) return x;
    std::vector<u32> pos_ids(ids_.size());
    std::iota(pos_ids.begin(), pos_ids.end(), 0u);
    return Add(x, EmbeddingGather(pos, pos_ids));
  }
  VarPtr Linear(const VarPtr& x, const VarPtr& w, const VarPtr& b, Slot,
                bool gelu = false) {
    VarPtr y = AddRowVector(MatMul(x, w), b);
    return gelu ? nn::Gelu(y) : y;
  }
  void Attention(const VarPtr& q, const VarPtr& k, const VarPtr& v, int h,
                 float scale, const VarPtr* rel_bias) {
    VarPtr s = Scale(
        MatMulNT(SliceCols(q, h * dh_, dh_), SliceCols(k, h * dh_, dh_)),
        scale);
    if (rel_bias != nullptr) s = AddRelPosBias(s, *rel_bias);
    heads_.push_back(
        MatMul(RowSoftmax(s, nullptr), SliceCols(v, h * dh_, dh_)));
  }
  VarPtr Context() { return ConcatCols(std::exchange(heads_, {})); }
  VarPtr AddLayerNorm(const VarPtr& x, const VarPtr& y, const VarPtr& g,
                      const VarPtr& b) {
    return LayerNormRows(Add(x, y), g, b, kLayerNormEps);
  }
  VarPtr MeanPool(const VarPtr& x) {
    return MaskedMeanPool(x, static_cast<int>(ids_.size()));
  }

 private:
  std::vector<u32> ids_;
  int dh_;
  std::vector<VarPtr> heads_;  // this layer's per-head contexts so far
};

}  // namespace

VarPtr ParamStore::Create(const std::string& name, int rows, int cols,
                          Rng& rng, double stddev) {
  Matrix m(rows, cols);
  m.RandomNormal(rng, stddev);
  auto v = MakeVar(std::move(m), /*requires_grad=*/true);
  params_.push_back(v);
  names_.push_back(name);
  return v;
}

VarPtr ParamStore::CreateConst(const std::string& name, int rows, int cols,
                               float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  auto v = MakeVar(std::move(m), /*requires_grad=*/true);
  params_.push_back(v);
  names_.push_back(name);
  return v;
}

size_t ParamStore::NumScalars() const {
  size_t n = 0;
  for (const auto& p : params_) n += p->value().size();
  return n;
}

void ParamStore::ZeroGrads() {
  for (auto& p : params_) p->ZeroGrad();
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config)
    : config_(config) {
  DJ_CHECK_MSG(config_.vocab_size > 0, "vocab_size must be set");
  DJ_CHECK(config_.d_model % config_.num_heads == 0);
  Rng rng(config_.seed);
  const double init = 0.02;  // BERT-style N(0, 0.02)

  token_emb_ = params_.Create("token_emb", config_.vocab_size,
                              config_.d_model, rng, init);
  if (config_.position_mode == PositionMode::kAbsolute) {
    pos_emb_ = params_.Create("pos_emb", config_.max_seq_len, config_.d_model,
                              rng, init);
  }
  layers_.resize(config_.num_layers);
  const int d = config_.d_model;
  for (int l = 0; l < config_.num_layers; ++l) {
    auto& layer = layers_[l];
    const std::string p = "layer" + std::to_string(l) + ".";
    layer.wq = params_.Create(p + "wq", d, d, rng, init);
    layer.bq = params_.CreateConst(p + "bq", 1, d, 0.0f);
    layer.wk = params_.Create(p + "wk", d, d, rng, init);
    layer.bk = params_.CreateConst(p + "bk", 1, d, 0.0f);
    layer.wv = params_.Create(p + "wv", d, d, rng, init);
    layer.bv = params_.CreateConst(p + "bv", 1, d, 0.0f);
    layer.wo = params_.Create(p + "wo", d, d, rng, init);
    layer.bo = params_.CreateConst(p + "bo", 1, d, 0.0f);
    layer.ln1_g = params_.CreateConst(p + "ln1_g", 1, d, 1.0f);
    layer.ln1_b = params_.CreateConst(p + "ln1_b", 1, d, 0.0f);
    layer.ff1_w = params_.Create(p + "ff1_w", d, config_.d_ff, rng, init);
    layer.ff1_b = params_.CreateConst(p + "ff1_b", 1, config_.d_ff, 0.0f);
    layer.ff2_w = params_.Create(p + "ff2_w", config_.d_ff, d, rng, init);
    layer.ff2_b = params_.CreateConst(p + "ff2_b", 1, d, 0.0f);
    layer.ln2_g = params_.CreateConst(p + "ln2_g", 1, d, 1.0f);
    layer.ln2_b = params_.CreateConst(p + "ln2_b", 1, d, 0.0f);
    if (config_.position_mode == PositionMode::kRelativeBias) {
      const int buckets = 2 * config_.rel_radius + 1;
      layer.rel_bias.reserve(config_.num_heads);
      for (int h = 0; h < config_.num_heads; ++h) {
        layer.rel_bias.push_back(params_.Create(
            p + "rel_bias" + std::to_string(h), 1, buckets, rng, init));
      }
    }
  }
}

void TransformerEncoder::InitTokenEmbedding(u32 token_id,
                                            const std::vector<float>& vec) {
  DJ_CHECK(static_cast<int>(token_id) < token_emb_->rows());
  Matrix& table = token_emb_->mutable_value();
  const int d = std::min<int>(config_.d_model, static_cast<int>(vec.size()));
  float* row = table.row(static_cast<int>(token_id));
  for (int j = 0; j < d; ++j) row[j] = vec[j];
}

TransformerEncoder::~TransformerEncoder() = default;

// The one forward body. Each executor op ends at a fusion boundary, and
// each probe lap ends a block of BM_ForwardBlocks.
template <class Exec, class Probe>
auto TransformerEncoder::Forward(Exec& ex, Probe& probe) {
  using Tensor = typename Exec::Tensor;
  const int dh = config_.d_model / config_.num_heads;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor x = ex.Embed(token_emb_, pos_emb_);
  probe.Lap(ForwardBlock::kEmbed);
  for (const Layer& layer : layers_) {
    // Multi-head self-attention (post-LN residual block, as in
    // BERT/DistilBERT).
    Tensor q = ex.Linear(x, layer.wq, layer.bq, Slot::kQ);
    Tensor k = ex.Linear(x, layer.wk, layer.bk, Slot::kK);
    Tensor v = ex.Linear(x, layer.wv, layer.bv, Slot::kV);
    probe.Lap(ForwardBlock::kQkv);
    for (int h = 0; h < config_.num_heads; ++h) {
      const VarPtr* rel = layer.rel_bias.empty() ? nullptr : &layer.rel_bias[h];
      ex.Attention(q, k, v, h, inv_sqrt_dh, rel);
      probe.Lap(ForwardBlock::kAttn);
    }
    Tensor attn_out = ex.Linear(ex.Context(), layer.wo, layer.bo, Slot::kTmp);
    x = ex.AddLayerNorm(x, attn_out, layer.ln1_g, layer.ln1_b);
    probe.Lap(ForwardBlock::kOutLn);

    // Feed-forward block.
    Tensor h1 = ex.Linear(x, layer.ff1_w, layer.ff1_b, Slot::kH1,
                          /*gelu=*/true);
    probe.Lap(ForwardBlock::kFfn1Gelu);
    Tensor h2 = ex.Linear(h1, layer.ff2_w, layer.ff2_b, Slot::kTmp);
    x = ex.AddLayerNorm(x, h2, layer.ln2_g, layer.ln2_b);
    probe.Lap(ForwardBlock::kFfn2Ln);
  }
  return ex.MeanPool(x);
}

VarPtr TransformerEncoder::Encode(const std::vector<u32>& ids) {
  DJ_CHECK(!ids.empty());
  GraphExec ex(ids, config_);
  NoProbe probe;
  return Forward(ex, probe);
}

std::vector<float> TransformerEncoder::EncodeToVector(
    const std::vector<u32>& ids) {
  // Convenience overload: allocates its result by design. (dj_alloc merges
  // the EncodeToVector overloads under one key; the out-param ones below
  // carry the DJ_NOALLOC contract.)
  std::vector<float> out(  // dj_alloc: allow(alloc)
      static_cast<size_t>(config_.d_model));
  EncodeToVector(ids, out.data());
  return out;
}

void TransformerEncoder::EncodeToVector(const std::vector<u32>& ids,
                                        float* out) {
  NoProbe probe;
  ForwardInWorkspace(ids, out, probe);
}

void TransformerEncoder::EncodeToVector(const std::vector<u32>& ids,
                                        float* out, ForwardProbe& probe) {
  ForwardInWorkspace(ids, out, probe);
}

template <class Probe>
void TransformerEncoder::ForwardInWorkspace(const std::vector<u32>& ids,
                                            float* out, Probe& probe) {
  DJ_CHECK(!ids.empty());
  std::unique_ptr<EncoderWorkspace> ws;
  {
    MutexLock lock(ws_mu_);
    if (!ws_free_.empty()) {
      ws = std::move(ws_free_.back());
      ws_free_.pop_back();
    }
  }
  // Allocate outside the lock (same scheme as HNSW's VisitedPool). Pool
  // warmup: once every concurrent caller owns a workspace, the free list
  // always has one.
  if (ws == nullptr) {
    ws = std::make_unique<EncoderWorkspace>(config_);  // dj_alloc: allow(alloc)
  }
  // The tile configuration is per thread, so it brackets the forward.
  const bool amx = kern::AmxLinearActive();
  if (amx) kern::AmxBegin();
  WorkspaceExec ex(*ws, ids, config_, amx, out);
  Forward(ex, probe);
  if (amx) kern::AmxEnd();
  MutexLock lock(ws_mu_);
  // Pool-vector growth is warmup-only: capacity reaches the maximum
  // number of concurrent encoders and then every push reuses the slot
  // its workspace was popped from.
  ws_free_.push_back(std::move(ws));  // dj_alloc: allow(alloc)
}

}  // namespace nn
}  // namespace deepjoin
