// Shared per-row forward helpers for the transformer ops: LayerNorm (a
// util/kernels.h kernel) and the relative-position bucket.
// Both the autograd ops (nn/autograd.cc) and the allocation-free inference
// path (TransformerEncoder's workspace forward in nn/transformer.cc) call
// these same inline functions, so the two paths share one definition and
// one operation order. GELU and softmax live in util/kernels.h
// (kern::GeluTanh, kern::Softmax), which both paths also share.
#ifndef DEEPJOIN_NN_ROW_OPS_H_
#define DEEPJOIN_NN_ROW_OPS_H_

#include "util/kernels.h"

namespace deepjoin {
namespace nn {

/// LayerNorm over one row with learned gain/bias: kern::LayerNorm, whose
/// mean/variance accumulate in double (the documented exception to float
/// accumulation: n <= d_ff and the backward pass depends on a
/// well-conditioned inverse stddev). Writes the normalized row to `xhat`
/// when non-null (the backward pass caches it) and returns the inverse
/// stddev. In-place (x == out) is allowed.
inline float LayerNormRow(const float* x, int n, const float* gamma,
                          const float* beta, float eps, float* xhat,
                          float* out) {
  return kern::LayerNorm(n, x, gamma, beta, eps, xhat, out);
}

/// Relative-position bucket for score position (i, j) with clip radius R:
/// clamp(j - i + R, 0, buckets - 1) where buckets = 2R + 1.
inline int RelPosBucket(int i, int j, int radius, int buckets) {
  int b = j - i + radius;
  if (b < 0) b = 0;
  if (b >= buckets) b = buckets - 1;
  return b;
}

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_ROW_OPS_H_
