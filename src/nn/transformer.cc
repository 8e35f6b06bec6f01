#include "nn/transformer.h"

#include <cmath>
#include <cstring>

#include "nn/row_ops.h"
#include "util/kernels.h"

namespace deepjoin {
namespace nn {

// Scratch for the allocation-free forward pass. Every matrix is sized for
// max_seq_len once; a call over L tokens touches only the first L rows
// (and, for `scores`, the first L columns — the kernels take leading
// dimensions, and per util/kernels.h reduction chains do not depend on
// them, so the values match the graph path's tightly-sized matrices).
struct TransformerEncoder::Workspace {
  Matrix x, q, k, v, ctx, tmp;  // [max_seq, d_model]
  Matrix h1;                    // [max_seq, d_ff]
  Matrix scores;                // [max_seq, max_seq]
  Matrix bias;                  // [1, 2 * max_seq] relative bias by j - i

  explicit Workspace(const TransformerConfig& c)
      : x(c.max_seq_len, c.d_model),
        q(c.max_seq_len, c.d_model),
        k(c.max_seq_len, c.d_model),
        v(c.max_seq_len, c.d_model),
        ctx(c.max_seq_len, c.d_model),
        tmp(c.max_seq_len, c.d_model),
        h1(c.max_seq_len, c.d_ff),
        scores(c.max_seq_len, c.max_seq_len),
        bias(1, 2 * c.max_seq_len) {}
};

namespace {

/// Zeroes the first `rows` rows of m (the workspace is reused, so stale
/// values must be cleared before a GEMM accumulates into it).
void ZeroRows(Matrix& m, int rows) {
  std::memset(m.data(), 0,
              static_cast<size_t>(rows) * m.cols() * sizeof(float));
}

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

VarPtr TransformerEncoder::Encode(const std::vector<u32>& ids) {
  DJ_CHECK(!ids.empty());
  std::vector<u32> truncated = ids;
  if (static_cast<int>(truncated.size()) > config_.max_seq_len) {
    truncated.resize(config_.max_seq_len);
  }
  const int L = static_cast<int>(truncated.size());
  const int d = config_.d_model;
  const int heads = config_.num_heads;
  const int dh = d / heads;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  VarPtr x = EmbeddingGather(token_emb_, truncated);
  if (config_.position_mode == PositionMode::kAbsolute) {
    std::vector<u32> pos_ids(truncated.size());
    for (int i = 0; i < L; ++i) pos_ids[i] = static_cast<u32>(i);
    x = Add(x, EmbeddingGather(pos_emb_, pos_ids));
  }

  for (auto& layer : layers_) {
    // Multi-head self-attention (post-LN residual block, as in
    // BERT/DistilBERT).
    VarPtr q = AddRowVector(MatMul(x, layer.wq), layer.bq);
    VarPtr k = AddRowVector(MatMul(x, layer.wk), layer.bk);
    VarPtr v = AddRowVector(MatMul(x, layer.wv), layer.bv);
    std::vector<VarPtr> head_outputs;
    head_outputs.reserve(heads);
    for (int h = 0; h < heads; ++h) {
      VarPtr qh = SliceCols(q, h * dh, dh);
      VarPtr kh = SliceCols(k, h * dh, dh);
      VarPtr vh = SliceCols(v, h * dh, dh);
      VarPtr scores = Scale(MatMulNT(qh, kh), inv_sqrt_dh);
      if (config_.position_mode == PositionMode::kRelativeBias) {
        scores = AddRelPosBias(scores, layer.rel_bias[h]);
      }
      VarPtr attn = RowSoftmax(scores, nullptr);
      head_outputs.push_back(MatMul(attn, vh));
    }
    VarPtr ctx = ConcatCols(head_outputs);
    VarPtr attn_out = AddRowVector(MatMul(ctx, layer.wo), layer.bo);
    x = LayerNormRows(Add(x, attn_out), layer.ln1_g, layer.ln1_b);

    // Feed-forward block.
    VarPtr h1 = Gelu(AddRowVector(MatMul(x, layer.ff1_w), layer.ff1_b));
    VarPtr h2 = AddRowVector(MatMul(h1, layer.ff2_w), layer.ff2_b);
    x = LayerNormRows(Add(x, h2), layer.ln2_g, layer.ln2_b);
  }

  return MaskedMeanPool(x, L);
}

std::vector<float> TransformerEncoder::EncodeToVector(
    const std::vector<u32>& ids) {
  // Convenience overload: allocates its result by design. (dj_alloc merges
  // both EncodeToVector overloads under one key; the out-param one below
  // carries the DJ_NOALLOC contract.)
  std::vector<float> out(  // dj_alloc: allow(alloc)
      static_cast<size_t>(config_.d_model));
  EncodeToVector(ids, out.data());
  return out;
}

void TransformerEncoder::EncodeToVector(const std::vector<u32>& ids,
                                        float* out) {
  DJ_CHECK(!ids.empty());
  const int L = std::min<int>(static_cast<int>(ids.size()),
                              config_.max_seq_len);
  std::unique_ptr<Workspace> ws = AcquireWorkspace();
  ForwardNoGrad(ids.data(), L, *ws, out);
  ReleaseWorkspace(std::move(ws));
}

TransformerEncoder::~TransformerEncoder() = default;

std::unique_ptr<TransformerEncoder::Workspace>
TransformerEncoder::AcquireWorkspace() {
  {
    MutexLock lock(ws_mu_);
    if (!ws_free_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(ws_free_.back());
      ws_free_.pop_back();
      return ws;
    }
  }
  // Allocate outside the lock (same scheme as HNSW's VisitedPool). Pool
  // warmup: once every concurrent caller owns a workspace the free list
  // always satisfies Acquire.
  return std::make_unique<Workspace>(config_);  // dj_alloc: allow(alloc)
}

void TransformerEncoder::ReleaseWorkspace(std::unique_ptr<Workspace> ws) {
  MutexLock lock(ws_mu_);
  // Pool-vector growth is warmup-only: capacity reaches the maximum
  // number of concurrent encoders and then every push reuses the slot
  // its workspace was popped from.
  ws_free_.push_back(std::move(ws));  // dj_alloc: allow(alloc)
}

// Mirrors Encode() op for op: every step below runs the same kernel calls
// and nn/row_ops.h helpers as the corresponding autograd forward, in the
// same order, so the result is bit-identical to Encode() under
// NoGradGuard. When changing either path, change both.
void TransformerEncoder::ForwardNoGrad(const u32* ids, int L, Workspace& ws,
                                       float* out) {
  const int d = config_.d_model;
  const int heads = config_.num_heads;
  const int dh = d / heads;
  const int d_ff = config_.d_ff;
  const int ld_scores = config_.max_seq_len;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  // Token (+ absolute position) embeddings — EmbeddingGather / Add.
  const Matrix& tok = token_emb_->value();
  for (int i = 0; i < L; ++i) {
    DJ_CHECK(static_cast<int>(ids[i]) < tok.rows());
    std::memcpy(ws.x.row(i), tok.row(static_cast<int>(ids[i])),
                sizeof(float) * static_cast<size_t>(d));
  }
  if (config_.position_mode == PositionMode::kAbsolute) {
    const Matrix& pos = pos_emb_->value();
    for (int i = 0; i < L; ++i) {
      kern::Axpy(d, 1.0f, pos.row(i), ws.x.row(i));
    }
  }

  for (auto& layer : layers_) {
    // Q/K/V projections — MatMul + AddRowVector.
    ZeroRows(ws.q, L);
    ZeroRows(ws.k, L);
    ZeroRows(ws.v, L);
    kern::SgemmNN(L, d, d, ws.x.data(), d, layer.wq->value().data(), d,
                  ws.q.data(), d);
    kern::SgemmNN(L, d, d, ws.x.data(), d, layer.wk->value().data(), d,
                  ws.k.data(), d);
    kern::SgemmNN(L, d, d, ws.x.data(), d, layer.wv->value().data(), d,
                  ws.v.data(), d);
    for (int i = 0; i < L; ++i) {
      kern::Axpy(d, 1.0f, layer.bq->value().row(0), ws.q.row(i));
      kern::Axpy(d, 1.0f, layer.bk->value().row(0), ws.k.row(i));
      kern::Axpy(d, 1.0f, layer.bv->value().row(0), ws.v.row(i));
    }

    // Per-head attention into the ctx columns (the graph path's SliceCols /
    // ConcatCols become strided kernel views).
    ZeroRows(ws.ctx, L);
    for (int h = 0; h < heads; ++h) {
      const float* qh = ws.q.data() + h * dh;
      const float* kh = ws.k.data() + h * dh;
      const float* vh = ws.v.data() + h * dh;
      float* sc = ws.scores.data();
      for (int i = 0; i < L; ++i) {
        std::memset(ws.scores.row(i), 0,
                    sizeof(float) * static_cast<size_t>(L));
      }
      kern::SgemmNT(L, L, dh, qh, d, kh, d, sc, ld_scores);
      for (int i = 0; i < L; ++i) {
        float* srow = ws.scores.row(i);
        kern::ScaleAdd(L, inv_sqrt_dh, srow, 0.0f, srow);  // Scale
      }
      if (config_.position_mode == PositionMode::kRelativeBias) {
        // AddRelPosBias. The bias of (i, j) depends only on j - i, so one
        // row brow[t] = bias(L - 1, t) holds every row: row i is the slice
        // starting at L - 1 - i. Axpy with alpha 1 is the graph's exact add.
        const Matrix& table = layer.rel_bias[h]->value();
        const int buckets = table.cols();
        const int radius = (buckets - 1) / 2;
        const float* trow = table.row(0);
        float* brow = ws.bias.data();
        for (int t = 0; t < 2 * L - 1; ++t) {
          brow[t] = trow[RelPosBucket(L - 1, t, radius, buckets)];
        }
        for (int i = 0; i < L; ++i) {
          kern::Axpy(L, 1.0f, brow + (L - 1 - i), ws.scores.row(i));
        }
      }
      for (int i = 0; i < L; ++i) {
        float* srow = ws.scores.row(i);
        kern::Softmax(L, srow, nullptr, srow);  // RowSoftmax
      }
      kern::SgemmNN(L, dh, L, sc, ld_scores, vh, d, ws.ctx.data() + h * dh,
                    d);
    }

    // Output projection + residual + LayerNorm.
    ZeroRows(ws.tmp, L);
    kern::SgemmNN(L, d, d, ws.ctx.data(), d, layer.wo->value().data(), d,
                  ws.tmp.data(), d);
    for (int i = 0; i < L; ++i) {
      kern::Axpy(d, 1.0f, layer.bo->value().row(0), ws.tmp.row(i));
      kern::Axpy(d, 1.0f, ws.tmp.row(i), ws.x.row(i));  // Add (residual)
      LayerNormRow(ws.x.row(i), d, layer.ln1_g->value().row(0),
                   layer.ln1_b->value().row(0), 1e-5f, /*xhat=*/nullptr,
                   ws.x.row(i));
    }

    // Feed-forward block.
    ZeroRows(ws.h1, L);
    kern::SgemmNN(L, d_ff, d, ws.x.data(), d, layer.ff1_w->value().data(),
                  d_ff, ws.h1.data(), d_ff);
    for (int i = 0; i < L; ++i) {
      kern::Axpy(d_ff, 1.0f, layer.ff1_b->value().row(0), ws.h1.row(i));
    }
    kern::GeluTanh(L * d_ff, ws.h1.data(), ws.h1.data());
    ZeroRows(ws.tmp, L);
    kern::SgemmNN(L, d, d_ff, ws.h1.data(), d_ff,
                  layer.ff2_w->value().data(), d, ws.tmp.data(), d);
    for (int i = 0; i < L; ++i) {
      kern::Axpy(d, 1.0f, layer.ff2_b->value().row(0), ws.tmp.row(i));
      kern::Axpy(d, 1.0f, ws.tmp.row(i), ws.x.row(i));
      LayerNormRow(ws.x.row(i), d, layer.ln2_g->value().row(0),
                   layer.ln2_b->value().row(0), 1e-5f, /*xhat=*/nullptr,
                   ws.x.row(i));
    }
  }

  // Mean pool over the L rows — MaskedMeanPool.
  std::memset(out, 0, sizeof(float) * static_cast<size_t>(d));
  for (int i = 0; i < L; ++i) kern::Axpy(d, 1.0f, ws.x.row(i), out);
  const float inv = 1.0f / static_cast<float>(L);
  kern::ScaleAdd(d, inv, out, 0.0f, out);
}

}  // namespace nn
}  // namespace deepjoin
