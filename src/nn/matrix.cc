#include "nn/matrix.h"

namespace deepjoin {
namespace nn {

void MatMulAccum(const Matrix& a, const Matrix& b, Matrix& c) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  DJ_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  kern::SgemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n);
}

void MatMulNTAccum(const Matrix& a, const Matrix& b, Matrix& c) {
  const int m = a.rows(), k = a.cols(), n = b.rows();
  DJ_CHECK(b.cols() == k && c.rows() == m && c.cols() == n);
  kern::SgemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
}

void MatMulTNAccum(const Matrix& a, const Matrix& b, Matrix& c) {
  const int k = a.rows(), m = a.cols(), n = b.cols();
  DJ_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  kern::SgemmTN(m, n, k, a.data(), m, b.data(), n, c.data(), n);
}

}  // namespace nn
}  // namespace deepjoin
