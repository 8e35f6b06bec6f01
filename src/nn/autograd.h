// Dynamic reverse-mode autodiff over Matrix values. Each op computes its
// output eagerly and records a closure that propagates gradients to its
// parents; Backward() runs the closures in reverse topological order.
//
// This is the machinery used to fine-tune the transformer column encoder
// (the paper fine-tunes DistilBERT/MPNet with sentence-transformers; see
// DESIGN.md for the substitution).
#ifndef DEEPJOIN_NN_AUTOGRAD_H_
#define DEEPJOIN_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace deepjoin {
namespace nn {

class Var;
using VarPtr = std::shared_ptr<Var>;

/// A node in the computation graph: a value, its gradient buffer, and the
/// backward closure that scatters this node's gradient into its parents.
class Var {
 public:
  Var(Matrix value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Matrix& value() const { return value_; }
  /// Write access bumps version(): call it for each update, so caches of
  /// the value (the inference workspace's bf16 weight copies) see it.
  Matrix& mutable_value() {
    ++version_;
    return value_;
  }
  u64 version() const { return version_; }

  /// Gradient buffer; allocated lazily on first access.
  Matrix& grad() {
    if (grad_.empty() && !value_.empty()) {
      grad_ = Matrix(value_.rows(), value_.cols());
    }
    return grad_;
  }
  bool has_grad() const { return !grad_.empty(); }
  void ZeroGrad() {
    if (!grad_.empty()) grad_.Zero();
  }

  bool requires_grad() const { return requires_grad_; }

  int rows() const { return value_.rows(); }
  int cols() const { return value_.cols(); }

  // Graph wiring — used by ops and by Backward().
  std::vector<VarPtr> parents;
  std::function<void(Var&)> backward_fn;

 private:
  Matrix value_;
  Matrix grad_;
  u64 version_ = 0;
  bool requires_grad_;
};

/// Creates a leaf. Parameters pass requires_grad = true; constants false.
VarPtr MakeVar(Matrix value, bool requires_grad = false);

/// While a NoGradGuard is alive, ops produce nodes with no backward
/// closures and no parent links, so inference runs without building (or
/// retaining) a graph. Guards nest.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// True when at least one NoGradGuard is alive on this thread.
bool InNoGradMode();

/// Runs reverse-mode autodiff from `root` (must be 1x1). Seeds d(root)=1.
void Backward(const VarPtr& root);

// ---- Ops. All return a fresh node wired to their inputs. ----

/// [m,k] @ [k,n] -> [m,n]
VarPtr MatMul(const VarPtr& a, const VarPtr& b);
/// [m,k] @ [n,k]^T -> [m,n]
VarPtr MatMulNT(const VarPtr& a, const VarPtr& b);
/// Elementwise sum, same shape.
VarPtr Add(const VarPtr& a, const VarPtr& b);
/// Adds a [1,n] row vector to every row of a [m,n] matrix.
VarPtr AddRowVector(const VarPtr& a, const VarPtr& bias);
/// Multiplies by a scalar constant.
VarPtr Scale(const VarPtr& a, float c);
/// Elementwise product, same shape.
VarPtr Mul(const VarPtr& a, const VarPtr& b);
/// Row-wise softmax. `mask`, if non-null, is an additive constant matrix of
/// the same shape (use -1e9 for disallowed positions).
VarPtr RowSoftmax(const VarPtr& a, const Matrix* mask);
/// LayerNorm over each row with learned gain/bias ([1,n] each).
VarPtr LayerNormRows(const VarPtr& x, const VarPtr& gamma, const VarPtr& beta,
                     float eps = 1e-5f);
/// Tanh-approximation GELU, elementwise.
VarPtr Gelu(const VarPtr& x);
VarPtr Relu(const VarPtr& x);
VarPtr Tanh(const VarPtr& x);
/// Gathers rows of `table` ([V,d]) by `ids` -> [len(ids), d]. Backward
/// scatter-adds into the table gradient.
VarPtr EmbeddingGather(const VarPtr& table, const std::vector<u32>& ids);
/// Mean over the first `valid_len` rows of [L,d] -> [1,d].
VarPtr MaskedMeanPool(const VarPtr& x, int valid_len);
/// Stacks N nodes of shape [1,d] into [N,d].
VarPtr ConcatRows(const std::vector<VarPtr>& rows);
/// Takes the column slice [*, start, start+width) of x.
VarPtr SliceCols(const VarPtr& x, int start, int width);
/// Concatenates same-row-count nodes along columns.
VarPtr ConcatCols(const std::vector<VarPtr>& parts);
/// L2-normalizes each row (rows with zero norm pass through).
VarPtr RowL2Normalize(const VarPtr& x);
/// Adds a learned relative-position bias to square attention scores
/// [L,L]. `table` is [1, 2R+1]; pair (i,j) uses bucket clamp(j-i+R, 0, 2R).
/// Any L works: when L > R+1, offsets |j-i| > R share the edge buckets.
VarPtr AddRelPosBias(const VarPtr& scores, const VarPtr& table);
/// Multiple-negatives-ranking / InfoNCE loss: given a score matrix [N,N]
/// where entry (i,j) scores pair (X_i, Y_j), returns the mean over rows of
/// -log softmax(row_i)_i. This is the loss of paper §4.2.
VarPtr SoftmaxCrossEntropyDiagonal(const VarPtr& scores);
/// Generalised softmax cross-entropy: scores is [N,M], `targets[i]` < M is
/// the positive column of row i; returns mean_i -log softmax(row_i)_t_i.
VarPtr SoftmaxCrossEntropyIndex(const VarPtr& scores,
                                const std::vector<u32>& targets);
/// Mean squared error between pred [N,1] and a constant target [N,1].
VarPtr MseLoss(const VarPtr& pred, const Matrix& target);

}  // namespace nn
}  // namespace deepjoin

#endif  // DEEPJOIN_NN_AUTOGRAD_H_
