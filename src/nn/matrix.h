// Dense row-major float matrix — the single tensor type of the nn stack.
// Sequences are [seq_len x d_model]; batched embeddings are [batch x d].
// Storage is 64-byte aligned (kern::AlignedAllocator) so every row of the
// repo's model shapes (d_model 48/64, d_ff 192/256 — all multiples of 16
// floats) starts on a cache-line boundary for the SIMD kernels.
#ifndef DEEPJOIN_NN_MATRIX_H_
#define DEEPJOIN_NN_MATRIX_H_

#include <cstring>
#include <vector>

#include "util/common.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace deepjoin {
namespace nn {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {
    DJ_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  float& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  void Zero() { std::memset(data_.data(), 0, data_.size() * sizeof(float)); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Gaussian init (BERT-style: N(0, 0.02)).
  void RandomNormal(Rng& rng, double stddev) {
    for (auto& x : data_) x = static_cast<float>(rng.Normal(0.0, stddev));
  }

  /// out += this (shapes must match). An exact elementwise add in every
  /// kernel tier (kern::Axpy with alpha == 1).
  void AddTo(Matrix& out) const {
    DJ_CHECK(rows_ == out.rows_ && cols_ == out.cols_);
    kern::Axpy(static_cast<int>(data_.size()), 1.0f, data_.data(),
               out.data_.data());
  }

 private:
  int rows_, cols_;
  std::vector<float, kern::AlignedAllocator<float, 64>> data_;
};

/// C += A @ B. A is [m,k], B is [k,n], C is [m,n].
void MatMulAccum(const Matrix& a, const Matrix& b, Matrix& c);
/// C += A @ B^T. A is [m,k], B is [n,k], C is [m,n].
void MatMulNTAccum(const Matrix& a, const Matrix& b, Matrix& c);
/// C += A^T @ B. A is [k,m], B is [k,n], C is [m,n].
void MatMulTNAccum(const Matrix& a, const Matrix& b, Matrix& c);

// Each variant is one kern::Sgemm* call over all m output rows on the
// calling thread, accumulating in single precision (one documented chain
// per element; see util/kernels.h), so results depend only on the kernel
// tier and GEMM path, never on the caller.

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_MATRIX_H_
