#include "nn/autograd.h"

#include <cmath>
#include <unordered_set>

#include "nn/row_ops.h"
#include "util/kernels.h"

namespace deepjoin {
namespace nn {

namespace {

thread_local int g_no_grad_depth = 0;

bool AnyRequiresGrad(const std::vector<VarPtr>& parents) {
  for (const auto& p : parents) {
    if (p->requires_grad()) return true;
  }
  return false;
}

/// Creates an op node wired to `parents` with the given backward closure.
VarPtr MakeOp(Matrix value, std::vector<VarPtr> parents,
              std::function<void(Var&)> backward) {
  if (g_no_grad_depth > 0) {
    return std::make_shared<Var>(std::move(value), false);
  }
  auto node = std::make_shared<Var>(std::move(value),
                                    AnyRequiresGrad(parents));
  node->parents = std::move(parents);
  if (node->requires_grad()) node->backward_fn = std::move(backward);
  return node;
}

}  // namespace

VarPtr MakeVar(Matrix value, bool requires_grad) {
  return std::make_shared<Var>(std::move(value), requires_grad);
}

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }
bool InNoGradMode() { return g_no_grad_depth > 0; }

void Backward(const VarPtr& root) {
  DJ_CHECK(root->rows() == 1 && root->cols() == 1);
  // Iterative post-order DFS to get a topological order.
  std::vector<Var*> order;
  std::unordered_set<Var*> visited;
  std::vector<std::pair<Var*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Var* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad() && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root->grad().Fill(1.0f);
  // `order` is post-order (children before parents-in-graph sense), so the
  // reverse iteration visits each node after all of its consumers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Var* node = *it;
    if (node->backward_fn && node->has_grad()) node->backward_fn(*node);
  }
}

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  DJ_CHECK(a->cols() == b->rows());
  Matrix out(a->rows(), b->cols());
  MatMulAccum(a->value(), b->value(), out);
  return MakeOp(std::move(out), {a, b}, [a, b](Var& self) {
    if (a->requires_grad()) MatMulNTAccum(self.grad(), b->value(), a->grad());
    if (b->requires_grad()) MatMulTNAccum(a->value(), self.grad(), b->grad());
  });
}

VarPtr MatMulNT(const VarPtr& a, const VarPtr& b) {
  DJ_CHECK(a->cols() == b->cols());
  Matrix out(a->rows(), b->rows());
  MatMulNTAccum(a->value(), b->value(), out);
  return MakeOp(std::move(out), {a, b}, [a, b](Var& self) {
    if (a->requires_grad()) MatMulAccum(self.grad(), b->value(), a->grad());
    if (b->requires_grad()) MatMulTNAccum(self.grad(), a->value(), b->grad());
  });
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  DJ_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Matrix out = a->value();
  b->value().AddTo(out);
  return MakeOp(std::move(out), {a, b}, [a, b](Var& self) {
    if (a->requires_grad()) self.grad().AddTo(a->grad());
    if (b->requires_grad()) self.grad().AddTo(b->grad());
  });
}

VarPtr AddRowVector(const VarPtr& a, const VarPtr& bias) {
  DJ_CHECK(bias->rows() == 1 && bias->cols() == a->cols());
  Matrix out = a->value();
  const float* brow = bias->value().row(0);
  const int n = out.cols();
  for (int r = 0; r < out.rows(); ++r) kern::Axpy(n, 1.0f, brow, out.row(r));
  return MakeOp(std::move(out), {a, bias}, [a, bias](Var& self) {
    if (a->requires_grad()) self.grad().AddTo(a->grad());
    if (bias->requires_grad()) {
      float* bg = bias->grad().row(0);
      for (int r = 0; r < self.rows(); ++r) {
        kern::Axpy(self.cols(), 1.0f, self.grad().row(r), bg);
      }
    }
  });
}

VarPtr Scale(const VarPtr& a, float c) {
  Matrix out = a->value();
  kern::ScaleAdd(static_cast<int>(out.size()), c, out.data(), 0.0f,
                 out.data());
  return MakeOp(std::move(out), {a}, [a, c](Var& self) {
    if (!a->requires_grad()) return;
    kern::Axpy(static_cast<int>(self.grad().size()), c, self.grad().data(),
               a->grad().data());
  });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  DJ_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Matrix out(a->rows(), a->cols());
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = a->value().data()[i] * b->value().data()[i];
  }
  return MakeOp(std::move(out), {a, b}, [a, b](Var& self) {
    const Matrix& g = self.grad();
    if (a->requires_grad()) {
      for (size_t i = 0; i < g.size(); ++i) {
        a->grad().data()[i] += g.data()[i] * b->value().data()[i];
      }
    }
    if (b->requires_grad()) {
      for (size_t i = 0; i < g.size(); ++i) {
        b->grad().data()[i] += g.data()[i] * a->value().data()[i];
      }
    }
  });
}

VarPtr RowSoftmax(const VarPtr& a, const Matrix* mask) {
  Matrix out(a->rows(), a->cols());
  const int n = a->cols();
  for (int r = 0; r < a->rows(); ++r) {
    kern::Softmax(n, a->value().row(r), mask ? mask->row(r) : nullptr,
                  out.row(r));
  }
  return MakeOp(std::move(out), {a}, [a](Var& self) {
    if (!a->requires_grad()) return;
    const int n = self.cols();
    for (int r = 0; r < self.rows(); ++r) {
      const float* y = self.value().row(r);
      const float* g = self.grad().row(r);
      float* ag = a->grad().row(r);
      double dot = 0.0;
      for (int j = 0; j < n; ++j) dot += static_cast<double>(g[j]) * y[j];
      for (int j = 0; j < n; ++j) {
        ag[j] += y[j] * (g[j] - static_cast<float>(dot));
      }
    }
  });
}

VarPtr LayerNormRows(const VarPtr& x, const VarPtr& gamma, const VarPtr& beta,
                     float eps) {
  const int n = x->cols();
  DJ_CHECK(gamma->rows() == 1 && gamma->cols() == n);
  DJ_CHECK(beta->rows() == 1 && beta->cols() == n);
  Matrix out(x->rows(), n);
  // Cache per-row inverse stddev and the normalized values for backward.
  auto inv_std = std::make_shared<std::vector<float>>(x->rows());
  auto xhat = std::make_shared<Matrix>(x->rows(), n);
  const float* grow = gamma->value().row(0);
  const float* brow = beta->value().row(0);
  for (int r = 0; r < x->rows(); ++r) {
    (*inv_std)[r] = LayerNormRow(x->value().row(r), n, grow, brow, eps,
                                 xhat->row(r), out.row(r));
  }
  return MakeOp(std::move(out), {x, gamma, beta},
                [x, gamma, beta, inv_std, xhat](Var& self) {
    const int n = self.cols();
    const float* gam = gamma->value().row(0);
    for (int r = 0; r < self.rows(); ++r) {
      const float* g = self.grad().row(r);
      const float* h = xhat->row(r);
      if (gamma->requires_grad()) {
        float* gg = gamma->grad().row(0);
        for (int j = 0; j < n; ++j) gg[j] += g[j] * h[j];
      }
      if (beta->requires_grad()) {
        float* bg = beta->grad().row(0);
        for (int j = 0; j < n; ++j) bg[j] += g[j];
      }
      if (x->requires_grad()) {
        // dL/dx = inv_std * (gh - mean(gh) - xhat * mean(gh * xhat))
        // where gh = gamma * g.
        double mean_gh = 0.0, mean_ghh = 0.0;
        for (int j = 0; j < n; ++j) {
          const double gh = static_cast<double>(gam[j]) * g[j];
          mean_gh += gh;
          mean_ghh += gh * h[j];
        }
        mean_gh /= n;
        mean_ghh /= n;
        float* xg = x->grad().row(r);
        const float is = (*inv_std)[r];
        for (int j = 0; j < n; ++j) {
          const double gh = static_cast<double>(gam[j]) * g[j];
          xg[j] += static_cast<float>(is * (gh - mean_gh - h[j] * mean_ghh));
        }
      }
    }
  });
}

VarPtr Gelu(const VarPtr& x) {
  Matrix out(x->rows(), x->cols());
  kern::GeluTanh(static_cast<int>(out.size()), x->value().data(), out.data());
  return MakeOp(std::move(out), {x}, [x](Var& self) {
    if (!x->requires_grad()) return;
    for (size_t i = 0; i < self.value().size(); ++i) {
      const float v = x->value().data()[i];
      const float inner = kern::kGeluC * (v + 0.044715f * v * v * v);
      const float t = std::tanh(inner);
      const float dinner = kern::kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float dv = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
      x->grad().data()[i] += self.grad().data()[i] * dv;
    }
  });
}

VarPtr Relu(const VarPtr& x) {
  Matrix out(x->rows(), x->cols());
  for (size_t i = 0; i < out.size(); ++i) {
    const float v = x->value().data()[i];
    out.data()[i] = v > 0.0f ? v : 0.0f;
  }
  return MakeOp(std::move(out), {x}, [x](Var& self) {
    if (!x->requires_grad()) return;
    for (size_t i = 0; i < self.value().size(); ++i) {
      if (x->value().data()[i] > 0.0f) {
        x->grad().data()[i] += self.grad().data()[i];
      }
    }
  });
}

VarPtr Tanh(const VarPtr& x) {
  Matrix out(x->rows(), x->cols());
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::tanh(x->value().data()[i]);
  }
  return MakeOp(std::move(out), {x}, [x](Var& self) {
    if (!x->requires_grad()) return;
    for (size_t i = 0; i < self.value().size(); ++i) {
      const float y = self.value().data()[i];
      x->grad().data()[i] += self.grad().data()[i] * (1.0f - y * y);
    }
  });
}

VarPtr EmbeddingGather(const VarPtr& table, const std::vector<u32>& ids) {
  const int d = table->cols();
  Matrix out(static_cast<int>(ids.size()), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    DJ_CHECK(static_cast<int>(ids[i]) < table->rows());
    std::memcpy(out.row(static_cast<int>(i)), table->value().row(ids[i]),
                sizeof(float) * static_cast<size_t>(d));
  }
  auto ids_copy = std::make_shared<std::vector<u32>>(ids);
  return MakeOp(std::move(out), {table}, [table, ids_copy](Var& self) {
    if (!table->requires_grad()) return;
    const int d = table->cols();
    for (size_t i = 0; i < ids_copy->size(); ++i) {
      kern::Axpy(d, 1.0f, self.grad().row(static_cast<int>(i)),
                 table->grad().row((*ids_copy)[i]));
    }
  });
}

VarPtr MaskedMeanPool(const VarPtr& x, int valid_len) {
  DJ_CHECK(valid_len >= 1 && valid_len <= x->rows());
  const int d = x->cols();
  Matrix out(1, d);
  for (int r = 0; r < valid_len; ++r) {
    kern::Axpy(d, 1.0f, x->value().row(r), out.row(0));
  }
  const float inv = 1.0f / static_cast<float>(valid_len);
  kern::ScaleAdd(d, inv, out.row(0), 0.0f, out.row(0));
  return MakeOp(std::move(out), {x}, [x, valid_len, inv](Var& self) {
    if (!x->requires_grad()) return;
    const float* g = self.grad().row(0);
    for (int r = 0; r < valid_len; ++r) {
      kern::Axpy(x->cols(), inv, g, x->grad().row(r));
    }
  });
}

VarPtr ConcatRows(const std::vector<VarPtr>& rows) {
  DJ_CHECK(!rows.empty());
  const int d = rows[0]->cols();
  Matrix out(static_cast<int>(rows.size()), d);
  for (size_t i = 0; i < rows.size(); ++i) {
    DJ_CHECK(rows[i]->rows() == 1 && rows[i]->cols() == d);
    std::memcpy(out.row(static_cast<int>(i)), rows[i]->value().row(0),
                sizeof(float) * static_cast<size_t>(d));
  }
  return MakeOp(std::move(out), rows, [](Var& self) {
    for (size_t i = 0; i < self.parents.size(); ++i) {
      auto& p = self.parents[i];
      if (!p->requires_grad()) continue;
      const float* g = self.grad().row(static_cast<int>(i));
      float* pg = p->grad().row(0);
      for (int j = 0; j < self.cols(); ++j) pg[j] += g[j];
    }
  });
}

VarPtr SliceCols(const VarPtr& x, int start, int width) {
  DJ_CHECK(start >= 0 && width > 0 && start + width <= x->cols());
  Matrix out(x->rows(), width);
  for (int r = 0; r < x->rows(); ++r) {
    std::memcpy(out.row(r), x->value().row(r) + start,
                sizeof(float) * static_cast<size_t>(width));
  }
  return MakeOp(std::move(out), {x}, [x, start, width](Var& self) {
    if (!x->requires_grad()) return;
    for (int r = 0; r < self.rows(); ++r) {
      kern::Axpy(width, 1.0f, self.grad().row(r), x->grad().row(r) + start);
    }
  });
}

VarPtr ConcatCols(const std::vector<VarPtr>& parts) {
  DJ_CHECK(!parts.empty());
  const int rows = parts[0]->rows();
  int total = 0;
  for (const auto& p : parts) {
    DJ_CHECK(p->rows() == rows);
    total += p->cols();
  }
  Matrix out(rows, total);
  int offset = 0;
  for (const auto& p : parts) {
    for (int r = 0; r < rows; ++r) {
      std::memcpy(out.row(r) + offset, p->value().row(r),
                  sizeof(float) * static_cast<size_t>(p->cols()));
    }
    offset += p->cols();
  }
  return MakeOp(std::move(out), parts, [](Var& self) {
    int offset = 0;
    for (auto& p : self.parents) {
      if (p->requires_grad()) {
        for (int r = 0; r < self.rows(); ++r) {
          kern::Axpy(p->cols(), 1.0f, self.grad().row(r) + offset,
                     p->grad().row(r));
        }
      }
      offset += p->cols();
    }
  });
}

VarPtr RowL2Normalize(const VarPtr& x) {
  const int d = x->cols();
  Matrix out = x->value();
  auto norms = std::make_shared<std::vector<float>>(x->rows());
  for (int r = 0; r < x->rows(); ++r) {
    float* orow = out.row(r);
    // Single-precision norm via the kernel dot (documented accumulation
    // change: this used to accumulate in double).
    const float n = std::sqrt(kern::Dot(orow, orow, d));
    (*norms)[r] = n;
    if (n > 0.0f) {
      kern::ScaleAdd(d, 1.0f / n, orow, 0.0f, orow);
    }
  }
  return MakeOp(std::move(out), {x}, [x, norms](Var& self) {
    if (!x->requires_grad()) return;
    const int d = self.cols();
    for (int r = 0; r < self.rows(); ++r) {
      const float n = (*norms)[r];
      const float* g = self.grad().row(r);
      float* xg = x->grad().row(r);
      if (n <= 0.0f) {
        for (int j = 0; j < d; ++j) xg[j] += g[j];
        continue;
      }
      const float* y = self.value().row(r);
      double dot = 0.0;
      for (int j = 0; j < d; ++j) dot += static_cast<double>(g[j]) * y[j];
      const float inv = 1.0f / n;
      for (int j = 0; j < d; ++j) {
        xg[j] += inv * (g[j] - y[j] * static_cast<float>(dot));
      }
    }
  });
}

VarPtr AddRelPosBias(const VarPtr& scores, const VarPtr& table) {
  DJ_CHECK(scores->rows() == scores->cols());
  DJ_CHECK(table->rows() == 1);
  const int L = scores->rows();
  const int buckets = table->cols();
  const int radius = (buckets - 1) / 2;
  Matrix out = scores->value();
  const float* trow = table->value().row(0);
  auto bucket_of = [radius, buckets](int i, int j) {
    return RelPosBucket(i, j, radius, buckets);
  };
  for (int i = 0; i < L; ++i) {
    float* orow = out.row(i);
    for (int j = 0; j < L; ++j) orow[j] += trow[bucket_of(i, j)];
  }
  return MakeOp(std::move(out), {scores, table},
                [scores, table, bucket_of, L](Var& self) {
    if (scores->requires_grad()) self.grad().AddTo(scores->grad());
    if (table->requires_grad()) {
      float* tg = table->grad().row(0);
      for (int i = 0; i < L; ++i) {
        const float* g = self.grad().row(i);
        for (int j = 0; j < L; ++j) tg[bucket_of(i, j)] += g[j];
      }
    }
  });
}

VarPtr SoftmaxCrossEntropyIndex(const VarPtr& scores,
                                const std::vector<u32>& targets) {
  const int n = scores->rows();
  const int m = scores->cols();
  DJ_CHECK(static_cast<int>(targets.size()) == n);
  auto probs = std::make_shared<Matrix>(n, m);
  auto tgts = std::make_shared<std::vector<u32>>(targets);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    DJ_CHECK(static_cast<int>(targets[i]) < m);
    const float* s = scores->value().row(i);
    float* p = probs->row(i);
    float maxv = -1e30f;
    for (int j = 0; j < m; ++j) maxv = std::max(maxv, s[j]);
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
      p[j] = std::exp(s[j] - maxv);
      sum += p[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < m; ++j) p[j] *= inv;
    loss += -std::log(std::max(1e-12, static_cast<double>(p[targets[i]])));
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / n);
  return MakeOp(std::move(out), {scores}, [scores, probs, tgts, n, m](Var& self) {
    if (!scores->requires_grad()) return;
    const float g = self.grad().at(0, 0) / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      const float* p = probs->row(i);
      float* sg = scores->grad().row(i);
      const u32 t = (*tgts)[i];
      for (int j = 0; j < m; ++j) {
        sg[j] += g * (p[j] - (static_cast<u32>(j) == t ? 1.0f : 0.0f));
      }
    }
  });
}

VarPtr SoftmaxCrossEntropyDiagonal(const VarPtr& scores) {
  DJ_CHECK(scores->rows() == scores->cols());
  std::vector<u32> diag(static_cast<size_t>(scores->rows()));
  for (size_t i = 0; i < diag.size(); ++i) diag[i] = static_cast<u32>(i);
  return SoftmaxCrossEntropyIndex(scores, diag);
}

VarPtr MseLoss(const VarPtr& pred, const Matrix& target) {
  DJ_CHECK(pred->rows() == target.rows() && pred->cols() == target.cols());
  const size_t n = pred->value().size();
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pred->value().data()[i]) -
                     target.data()[i];
    loss += d * d;
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / static_cast<double>(n));
  auto tgt = std::make_shared<Matrix>(target);
  return MakeOp(std::move(out), {pred}, [pred, tgt, n](Var& self) {
    if (!pred->requires_grad()) return;
    const float g = self.grad().at(0, 0) * 2.0f / static_cast<float>(n);
    for (size_t i = 0; i < n; ++i) {
      pred->grad().data()[i] +=
          g * (pred->value().data()[i] - tgt->data()[i]);
    }
  });
}

}  // namespace nn
}  // namespace deepjoin
