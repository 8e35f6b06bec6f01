// Parity and determinism suite for the compute-kernel layer
// (src/util/kernels.h). Three kinds of guarantee are proven here:
//
//  1. Value parity: each tier matches a scalar reference that implements
//     the documented reduction order — EXACTLY (bitwise) for Dot /
//     SquaredL2 / Axpy / ScaleAdd / Sgemm and for the scalar tier of
//     GeluTanh / Softmax — plus tolerance checks against double
//     references (GEMM, and the AVX2 tier's GeluTanh / Softmax, whose
//     exp is a polynomial).
//  2. Order invariance: GEMM results do not depend on leading dimensions
//     or on how rows are partitioned across threads (parallel == serial,
//     bit-identical).
//  3. Path parity: the transformer's allocation-free EncodeToVector
//     fast path is bit-identical to the autograd graph forward.
//
// Buffers are exact-size heap allocations so the ASan leg of check.sh
// catches any out-of-bounds read a tail/corner case might perform;
// odd lengths 1..129 cross every vector-width boundary, and inputs mix in
// denormals and negative zeros.
#include "util/kernels.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matrix.h"
#include "nn/transformer.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace kern {
namespace {

// Deterministic value pattern crossing sign, magnitude, denormal, and
// negative-zero cases. (No RNG: failures must print reproducible indices.)
float TestValue(int i) {
  switch (i % 11) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return 1e-42f;   // positive denormal
    case 3: return -1e-42f;  // negative denormal
    default: {
      const float base = static_cast<float>((i * 2654435761u) % 2048) / 512.0f;
      return (i % 2 == 0) ? base - 2.0f : -(base - 2.0f) * 0.37f;
    }
  }
}

std::vector<float> MakeVector(int n, int salt) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = TestValue(i + salt);
  return v;
}

// ---- References implementing the documented per-tier reduction orders ----

float RefDotScalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc = acc + a[i] * b[i];  // unfused
  return acc;
}

float RefSquaredL2Scalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc = acc + d * d;
  }
  return acc;
}

// Emulates the AVX2 order lane by lane with std::fma (the FMA intrinsic
// and std::fma are both single-rounding, so this is bit-exact).
template <typename Term>
float RefAvx2Reduce(int n, const Term& term) {
  float acc0[8] = {0}, acc1[8] = {0};
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    for (int l = 0; l < 8; ++l) acc0[l] = term(i + l, acc0[l]);
    for (int l = 0; l < 8; ++l) acc1[l] = term(i + 8 + l, acc1[l]);
  }
  if (i + 8 <= n) {
    for (int l = 0; l < 8; ++l) acc0[l] = term(i + l, acc0[l]);
    i += 8;
  }
  float acc[8];
  for (int l = 0; l < 8; ++l) acc[l] = acc0[l] + acc1[l];
  float sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
              ((acc[1] + acc[5]) + (acc[3] + acc[7]));
  for (; i < n; ++i) sum = term(i, sum);
  return sum;
}

float RefDotAvx2(const float* a, const float* b, int n) {
  return RefAvx2Reduce(n, [a, b](int i, float acc) {
    return std::fma(a[i], b[i], acc);
  });
}

float RefSquaredL2Avx2(const float* a, const float* b, int n) {
  return RefAvx2Reduce(n, [a, b](int i, float acc) {
    const float d = a[i] - b[i];
    return std::fma(d, d, acc);
  });
}

// SQ8 references per the documented orders: scalar decodes unfused
// (t = scale*code; v = lo + t — two roundings) and accumulates unfused;
// AVX2 decodes with one FMA and accumulates with one FMA in the standard
// two-accumulator interleaved-16 shape.
float RefSquaredL2Sq8Scalar(const float* q, const u8* codes, const float* lo,
                            const float* scale, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float t = scale[i] * static_cast<float>(codes[i]);
    const float v = lo[i] + t;
    const float d = q[i] - v;
    acc = acc + d * d;
  }
  return acc;
}

float RefSquaredL2Sq8Avx2(const float* q, const u8* codes, const float* lo,
                          const float* scale, int n) {
  return RefAvx2Reduce(n, [q, codes, lo, scale](int i, float acc) {
    const float v = std::fma(scale[i], static_cast<float>(codes[i]), lo[i]);
    const float d = q[i] - v;
    return std::fma(d, d, acc);
  });
}

std::vector<u8> MakeCodes(int n, int salt) {
  std::vector<u8> c(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Covers 0 and 255 plus a scattered interior.
    c[static_cast<size_t>(i)] =
        static_cast<u8>(((i + salt) * 2654435761u) % 256);
  }
  return c;
}

// Double-precision GEMM reference (tolerance comparisons only).
enum class Variant { kNN, kNT, kTN };

void RefGemm(Variant v, int m, int n, int k, const float* a, int lda,
             const float* b, int ldb, std::vector<double>& c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = (v == Variant::kTN) ? a[p * lda + i] : a[i * lda + p];
        const float bv = (v == Variant::kNT) ? b[j * ldb + p] : b[p * ldb + j];
        s += static_cast<double>(av) * bv;
      }
      c[static_cast<size_t>(i) * n + j] += s;
    }
  }
}

// Implements the header's per-element chain exactly: per KC = 256 block of
// k, a partial seeded at 0 and stepped k-ascending (std::fma in the AVX2
// tier, unfused multiply-add in the scalar tier), then added into C.
void RefGemmChain(Tier tier, Variant v, int m, int n, int k, const float* a,
                  int lda, const float* b, int ldb, float* c, int ldc) {
  constexpr int kKC = 256;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k0 = 0; k0 < k; k0 += kKC) {
        float partial = 0.0f;
        for (int p = k0; p < std::min(k, k0 + kKC); ++p) {
          const float av =
              (v == Variant::kTN) ? a[p * lda + i] : a[i * lda + p];
          const float bv =
              (v == Variant::kNT) ? b[j * ldb + p] : b[p * ldb + j];
          if (tier == Tier::kAvx2) {
            partial = std::fma(av, bv, partial);
          } else {
            const float prod = av * bv;
            partial = partial + prod;
          }
        }
        c[static_cast<size_t>(i) * ldc + j] += partial;
      }
    }
  }
}

void CallSgemm(Variant v, int m, int n, int k, const float* a, int lda,
               const float* b, int ldb, float* c, int ldc) {
  switch (v) {
    case Variant::kNN: SgemmNN(m, n, k, a, lda, b, ldb, c, ldc); return;
    case Variant::kNT: SgemmNT(m, n, k, a, lda, b, ldb, c, ldc); return;
    case Variant::kTN: SgemmTN(m, n, k, a, lda, b, ldb, c, ldc); return;
  }
}

/// Tiers available on this machine (scalar always; AVX2 when detected).
std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (DetectedTier() == Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

class ForcedTier {
 public:
  explicit ForcedTier(Tier t) { ForceTierForTest(t); }
  ~ForcedTier() { ClearForcedTierForTest(); }
};

TEST(KernelsTest, TierNamesResolve) {
  EXPECT_STREQ("scalar", TierName(Tier::kScalar));
  EXPECT_STREQ("avx2+fma", TierName(Tier::kAvx2));
  // ActiveTier is one of the two and is stable across calls.
  EXPECT_EQ(ActiveTier(), ActiveTier());
}

TEST(KernelsTest, DotMatchesDocumentedOrderExactly) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n = 1; n <= 129; ++n) {
      // Exact-size allocations: any over-read trips ASan.
      const auto a = MakeVector(n, 7);
      const auto b = MakeVector(n, 1000);
      const float got = Dot(a.data(), b.data(), n);
      const float want = (tier == Tier::kAvx2)
                             ? RefDotAvx2(a.data(), b.data(), n)
                             : RefDotScalar(a.data(), b.data(), n);
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
          << TierName(tier) << " n=" << n << " got=" << got
          << " want=" << want;
    }
  }
}

TEST(KernelsTest, SquaredL2MatchesDocumentedOrderExactly) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n = 1; n <= 129; ++n) {
      const auto a = MakeVector(n, 13);
      const auto b = MakeVector(n, 4242);
      const float got = SquaredL2(a.data(), b.data(), n);
      const float want = (tier == Tier::kAvx2)
                             ? RefSquaredL2Avx2(a.data(), b.data(), n)
                             : RefSquaredL2Scalar(a.data(), b.data(), n);
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
          << TierName(tier) << " n=" << n;
      EXPECT_GE(got, 0.0f);
    }
  }
}

// The fused asymmetric kernel behind Sq8Store::Distance: each tier must
// match its documented reduction order bit for bit, so a given machine
// scores quantized rows deterministically (and the vector_store round
// trips can compare owned vs mapped results with EXPECT_EQ).
TEST(KernelsTest, SquaredL2Sq8MatchesDocumentedOrderExactly) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n = 1; n <= 129; ++n) {
      const auto q = MakeVector(n, 29);
      const auto codes = MakeCodes(n, 3);
      const auto lo = MakeVector(n, 401);
      auto scale = MakeVector(n, 733);
      // Scales are non-negative in real stores; keep the reference honest.
      for (float& s : scale) s = std::fabs(s) * 0.01f;
      const float got =
          SquaredL2Sq8(q.data(), codes.data(), lo.data(), scale.data(), n);
      const float want =
          (tier == Tier::kAvx2)
              ? RefSquaredL2Sq8Avx2(q.data(), codes.data(), lo.data(),
                                    scale.data(), n)
              : RefSquaredL2Sq8Scalar(q.data(), codes.data(), lo.data(),
                                      scale.data(), n);
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
          << TierName(tier) << " n=" << n << " got=" << got
          << " want=" << want;
      EXPECT_GE(got, 0.0f);
    }
  }
}

// Cross-tier agreement within quantization-level tolerance: the two tiers
// round differently (fused vs unfused decode), so results are not
// bitwise-equal across tiers, but they must describe the same distance.
TEST(KernelsTest, SquaredL2Sq8TiersAgreeWithinTolerance) {
  if (DetectedTier() != Tier::kAvx2) {
    GTEST_SKIP() << "single-tier machine";
  }
  const int n = 96;
  const auto q = MakeVector(n, 5);
  const auto codes = MakeCodes(n, 17);
  const auto lo = MakeVector(n, 211);
  auto scale = MakeVector(n, 97);
  for (float& s : scale) s = std::fabs(s) * 0.01f;
  float scalar = 0, avx2 = 0;
  {
    ForcedTier forced(Tier::kScalar);
    scalar = SquaredL2Sq8(q.data(), codes.data(), lo.data(), scale.data(), n);
  }
  {
    ForcedTier forced(Tier::kAvx2);
    avx2 = SquaredL2Sq8(q.data(), codes.data(), lo.data(), scale.data(), n);
  }
  EXPECT_NEAR(scalar, avx2, 1e-4f * (1.0f + scalar));
}

TEST(KernelsTest, DotHandlesUnalignedPointers) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n : {1, 7, 8, 9, 31, 64, 127}) {
      // Misalign by one float against a 64-byte-aligned base.
      std::vector<float, AlignedAllocator<float, 64>> abuf(
          static_cast<size_t>(n) + 1);
      std::vector<float, AlignedAllocator<float, 64>> bbuf(
          static_cast<size_t>(n) + 1);
      for (int i = 0; i < n; ++i) {
        abuf[static_cast<size_t>(i) + 1] = TestValue(i + 3);
        bbuf[static_cast<size_t>(i) + 1] = TestValue(i + 900);
      }
      const float* a = abuf.data() + 1;
      const float* b = bbuf.data() + 1;
      const float want = (tier == Tier::kAvx2) ? RefDotAvx2(a, b, n)
                                               : RefDotScalar(a, b, n);
      const float got = Dot(a, b, n);
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
          << TierName(tier) << " n=" << n;
    }
  }
}

TEST(KernelsTest, AxpyAlphaOneIsExactAddInEveryTier) {
  const int n = 101;
  const auto x = MakeVector(n, 21);
  const auto y0 = MakeVector(n, 77);
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    auto y = y0;
    Axpy(n, 1.0f, x.data(), y.data());
    for (int i = 0; i < n; ++i) {
      const float want = x[static_cast<size_t>(i)] + y0[static_cast<size_t>(i)];
      ASSERT_EQ(0, std::memcmp(&y[static_cast<size_t>(i)], &want,
                               sizeof(float)))
          << TierName(tier) << " i=" << i;
    }
  }
}

TEST(KernelsTest, AxpyGeneralAlphaMatchesPerTierSemantics) {
  const int n = 67;
  const float alpha = -1.375f;
  const auto x = MakeVector(n, 5);
  const auto y0 = MakeVector(n, 50);
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    auto y = y0;
    Axpy(n, alpha, x.data(), y.data());
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      const float want = (tier == Tier::kAvx2)
                             ? std::fma(alpha, x[s], y0[s])
                             : y0[s] + alpha * x[s];
      ASSERT_EQ(0, std::memcmp(&y[s], &want, sizeof(float)))
          << TierName(tier) << " i=" << i;
    }
  }
}

TEST(KernelsTest, ScaleAddBetaZeroNeverReadsY) {
  const int n = 73;
  const float alpha = 0.8125f;
  const auto x = MakeVector(n, 9);
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    // Poison y with NaN: if the kernel read it, beta*y would infect out.
    std::vector<float> y(static_cast<size_t>(n),
                         std::numeric_limits<float>::quiet_NaN());
    ScaleAdd(n, alpha, x.data(), 0.0f, y.data());
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      const float want = alpha * x[s];
      ASSERT_EQ(0, std::memcmp(&y[s], &want, sizeof(float)))
          << TierName(tier) << " i=" << i;
    }
  }
}

TEST(KernelsTest, ScaleAddInPlaceAliasingAllowed) {
  const int n = 41;
  const auto x0 = MakeVector(n, 31);
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    auto x = x0;
    ScaleAdd(n, 2.5f, x.data(), 0.0f, x.data());  // x = 2.5 * x
    for (int i = 0; i < n; ++i) {
      const float want = 2.5f * x0[static_cast<size_t>(i)];
      ASSERT_EQ(0,
                std::memcmp(&x[static_cast<size_t>(i)], &want, sizeof(float)))
          << TierName(tier) << " i=" << i;
    }
  }
}

TEST(KernelsTest, SgemmMatchesDoubleReference) {
  // Shapes cross microkernel boundaries (MR=4, NR=16) and the repo's
  // training shapes; lda/ldb/ldc padding exercises the sub-view paths.
  struct Shape { int m, n, k, pad; };
  const Shape shapes[] = {{1, 1, 1, 0},   {3, 5, 7, 0},   {4, 16, 8, 0},
                          {5, 17, 9, 3},  {13, 29, 31, 1}, {64, 48, 48, 0},
                          {64, 192, 48, 0}, {64, 64, 256, 5}, {2, 300, 2, 0}};
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (const auto& s : shapes) {
      for (Variant v : {Variant::kNN, Variant::kNT, Variant::kTN}) {
        const int ar = (v == Variant::kTN) ? s.k : s.m;
        const int ac = (v == Variant::kTN) ? s.m : s.k;
        const int br = (v == Variant::kNT) ? s.n : s.k;
        const int bc = (v == Variant::kNT) ? s.k : s.n;
        const int lda = ac + s.pad, ldb = bc + s.pad, ldc = s.n + s.pad;
        const auto a = MakeVector(ar * lda, 17);
        const auto b = MakeVector(br * ldb, 7100);
        auto c = MakeVector(s.m * ldc, 31);  // accumulate onto nonzero C
        std::vector<double> ref(static_cast<size_t>(s.m) * s.n);
        for (int i = 0; i < s.m; ++i) {
          for (int j = 0; j < s.n; ++j) {
            ref[static_cast<size_t>(i) * s.n + j] =
                c[static_cast<size_t>(i) * ldc + j];
          }
        }
        RefGemm(v, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, ref);
        CallSgemm(v, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, c.data(),
                  ldc);
        for (int i = 0; i < s.m; ++i) {
          for (int j = 0; j < s.n; ++j) {
            const double want = ref[static_cast<size_t>(i) * s.n + j];
            const double got = c[static_cast<size_t>(i) * ldc + j];
            ASSERT_NEAR(want, got, 1e-3 + 1e-4 * std::abs(want))
                << TierName(tier) << " variant=" << static_cast<int>(v)
                << " m=" << s.m << " n=" << s.n << " k=" << s.k << " (" << i
                << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(KernelsTest, SgemmMatchesDocumentedChainExactly) {
  // m % 4 in {1, 2, 3} leaves microkernel row tails, n % 16 != 0 leaves a
  // packed edge panel, k = 300 spans two KC blocks, and padded leading
  // dimensions put garbage the kernel must never read next to every row.
  struct Shape { int m, n, k, pad; };
  const Shape shapes[] = {{1, 1, 1, 0},    {5, 17, 300, 3}, {6, 33, 300, 1},
                          {7, 50, 300, 2}, {13, 64, 300, 5}, {50, 16, 50, 0},
                          {64, 256, 64, 0}, {37, 37, 16, 48}};
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (const auto& s : shapes) {
      for (Variant v : {Variant::kNN, Variant::kNT, Variant::kTN}) {
        const int ar = (v == Variant::kTN) ? s.k : s.m;
        const int ac = (v == Variant::kTN) ? s.m : s.k;
        const int br = (v == Variant::kNT) ? s.n : s.k;
        const int bc = (v == Variant::kNT) ? s.k : s.n;
        const int lda = ac + s.pad, ldb = bc + s.pad, ldc = s.n + s.pad;
        const auto a = MakeVector(ar * lda, 23);
        const auto b = MakeVector(br * ldb, 5150);
        auto got = MakeVector(s.m * ldc, 61);  // accumulate onto nonzero C
        auto want = got;
        RefGemmChain(tier, v, s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                     want.data(), ldc);
        CallSgemm(v, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, got.data(),
                  ldc);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(float)))
            << TierName(tier) << " variant=" << static_cast<int>(v)
            << " m=" << s.m << " n=" << s.n << " k=" << s.k
            << " pad=" << s.pad;
      }
    }
  }
}

// ---- GeluTanh / Softmax ----------------------------------------------------

// The scalar tier's documented formulas, written out independently.
float RefGeluScalar(float v) {
  const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
  return 0.5f * v * (1.0f + t);
}

void RefSoftmaxScalar(const float* x, const float* mask, float* out, int n) {
  float maxv = -1e30f;
  for (int j = 0; j < n; ++j) {
    const float v = x[j] + (mask ? mask[j] : 0.0f);
    out[j] = v;
    if (v > maxv) maxv = v;
  }
  double sum = 0.0;
  for (int j = 0; j < n; ++j) {
    out[j] = std::exp(out[j] - maxv);
    sum += out[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (int j = 0; j < n; ++j) out[j] *= inv;
}

double RefGeluDouble(double v) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  return 0.5 * v * (1.0 + std::tanh(c * (v + 0.044715 * v * v * v)));
}

std::vector<double> RefSoftmaxDouble(const std::vector<float>& x,
                                     const std::vector<float>* mask) {
  const size_t n = x.size();
  std::vector<double> v(n);
  double maxv = -1e30;
  for (size_t j = 0; j < n; ++j) {
    v[j] = static_cast<double>(x[j]) + (mask ? (*mask)[j] : 0.0f);
    maxv = std::max(maxv, v[j]);
  }
  double sum = 0.0;
  for (double& e : v) sum += (e = std::exp(e - maxv));
  for (double& e : v) e /= sum;
  return v;
}

// Absolute error bounds of each tier against the double references, over
// the inputs below (|x| <= 8 plus +-80 for GELU, softmax logits in
// [-16, 16]). The measured worst cases are 2.9e-7 (GELU, both tiers) and
// 1.5e-7 (AVX2 softmax; scalar 4e-8), about a third of these.
constexpr double kGeluTol = 1e-6;
constexpr double kSoftmaxTol = 5e-7;

// GELU inputs: the shared pattern scaled to [-8, 8], with +-80 mixed in.
std::vector<float> GeluInputs(int n, int salt) {
  std::vector<float> x = MakeVector(n, salt);
  for (int i = 0; i < n; ++i) {
    float& v = x[static_cast<size_t>(i)];
    v = (i % 13 == 5) ? 80.0f : (i % 13 == 9) ? -80.0f : 4.0f * v;
  }
  return x;
}

TEST(KernelsTest, GeluTanhMatchesScalarFormulaAndDoubleReference) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n = 1; n <= 129; ++n) {
      // Exact-size allocations: a tail over-read trips ASan.
      const auto x = GeluInputs(n, 3 * n);
      std::vector<float> out(static_cast<size_t>(n));
      GeluTanh(n, x.data(), out.data());
      auto in_place = x;
      GeluTanh(n, in_place.data(), in_place.data());
      ASSERT_EQ(0, std::memcmp(out.data(), in_place.data(),
                               out.size() * sizeof(float)))
          << TierName(tier) << " n=" << n;
      for (int i = 0; i < n; ++i) {
        const size_t s = static_cast<size_t>(i);
        ASSERT_TRUE(std::isfinite(out[s])) << TierName(tier) << " x=" << x[s];
        if (tier == Tier::kScalar) {
          const float want = RefGeluScalar(x[s]);
          ASSERT_EQ(0, std::memcmp(&out[s], &want, sizeof(float)))
              << "n=" << n << " x=" << x[s];
        }
        ASSERT_NEAR(RefGeluDouble(x[s]), out[s], kGeluTol)
            << TierName(tier) << " n=" << n << " x=" << x[s];
      }
    }
    // Saturation: the tails are exactly v and -0.
    const std::vector<float> big = {80.0f, -80.0f, 1e30f, -1e30f};
    std::vector<float> out(big.size());
    GeluTanh(static_cast<int>(big.size()), big.data(), out.data());
    EXPECT_EQ(80.0f, out[0]) << TierName(tier);
    EXPECT_EQ(0.0f, out[1]) << TierName(tier);
    EXPECT_EQ(1e30f, out[2]) << TierName(tier);
    EXPECT_EQ(0.0f, out[3]) << TierName(tier);
  }
}

TEST(KernelsTest, SoftmaxMatchesScalarFormulaAndDoubleReference) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n = 1; n <= 129; ++n) {
      auto x = MakeVector(n, 7 * n);
      for (float& v : x) v *= 8.0f;  // logits in [-16, 16]
      std::vector<float> mask(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        mask[static_cast<size_t>(i)] = (i % 5 == 3 && n > 1) ? -1e30f : 0.0f;
      }
      const std::vector<float>* masks[] = {nullptr, &mask};
      for (const std::vector<float>* m : masks) {
        const float* mp = m ? m->data() : nullptr;
        std::vector<float> out(static_cast<size_t>(n));
        Softmax(n, x.data(), mp, out.data());
        auto in_place = x;
        Softmax(n, in_place.data(), mp, in_place.data());
        ASSERT_EQ(0, std::memcmp(out.data(), in_place.data(),
                                 out.size() * sizeof(float)))
            << TierName(tier) << " n=" << n;
        if (tier == Tier::kScalar) {
          std::vector<float> want(static_cast<size_t>(n));
          RefSoftmaxScalar(x.data(), mp, want.data(), n);
          ASSERT_EQ(0, std::memcmp(out.data(), want.data(),
                                   out.size() * sizeof(float)))
              << "n=" << n << " masked=" << (m != nullptr);
        }
        const auto ref = RefSoftmaxDouble(x, m);
        double sum = 0.0;
        for (int i = 0; i < n; ++i) {
          const size_t s = static_cast<size_t>(i);
          ASSERT_TRUE(std::isfinite(out[s])) << TierName(tier);
          ASSERT_NEAR(ref[s], out[s], kSoftmaxTol)
              << TierName(tier) << " n=" << n << " i=" << i
              << " masked=" << (m != nullptr);
          if (m != nullptr && mask[s] < 0.0f) {
            ASSERT_EQ(0.0f, out[s]) << TierName(tier) << " n=" << n;
          }
          sum += out[s];
        }
        ASSERT_NEAR(1.0, sum, 1e-6) << TierName(tier) << " n=" << n;
      }
    }
  }
}

TEST(KernelsTest, SoftmaxExtremeRowsStayFinite) {
  // Rows of -1e30 (every score masked), constant rows, and +-80 spreads.
  const int n = 37;
  std::vector<std::vector<float>> rows = {
      std::vector<float>(n, -1e30f), std::vector<float>(n, 3.5f),
      std::vector<float>(n, 0.0f), MakeVector(n, 99)};
  for (int i = 0; i < n; ++i) rows[3][static_cast<size_t>(i)] *= 40.0f;
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<float> out(static_cast<size_t>(n));
      Softmax(n, rows[r].data(), nullptr, out.data());
      double sum = 0.0;
      for (float v : out) {
        ASSERT_TRUE(std::isfinite(v)) << TierName(tier) << " row=" << r;
        sum += v;
      }
      EXPECT_NEAR(1.0, sum, 1e-6) << TierName(tier) << " row=" << r;
      if (r < 3) {
        // Constant rows are exactly uniform: every e^(v - max) is e^0 = 1.
        for (float v : out) ASSERT_EQ(1.0f / n, v) << TierName(tier);
      }
    }
  }
}

TEST(KernelsTest, SgemmIsLeadingDimensionInvariant) {
  // Same logical matrices, tight vs padded layouts: bit-identical C. This
  // is the property the transformer fast path's strided per-head views
  // rely on.
  const int m = 33, n = 49, k = 37;
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (Variant v : {Variant::kNN, Variant::kNT, Variant::kTN}) {
      const int ar = (v == Variant::kTN) ? k : m;
      const int ac = (v == Variant::kTN) ? m : k;
      const int br = (v == Variant::kNT) ? n : k;
      const int bc = (v == Variant::kNT) ? k : n;
      const auto a_tight = MakeVector(ar * ac, 3);
      const auto b_tight = MakeVector(br * bc, 6000);
      // Padded copies (pad columns filled with garbage the kernel must
      // never touch).
      const int pad = 5;
      auto a_pad = MakeVector(ar * (ac + pad), 999);
      auto b_pad = MakeVector(br * (bc + pad), 555);
      for (int r = 0; r < ar; ++r) {
        std::memcpy(&a_pad[static_cast<size_t>(r) * (ac + pad)],
                    &a_tight[static_cast<size_t>(r) * ac],
                    sizeof(float) * static_cast<size_t>(ac));
      }
      for (int r = 0; r < br; ++r) {
        std::memcpy(&b_pad[static_cast<size_t>(r) * (bc + pad)],
                    &b_tight[static_cast<size_t>(r) * bc],
                    sizeof(float) * static_cast<size_t>(bc));
      }
      std::vector<float> c1(static_cast<size_t>(m) * n, 0.0f);
      std::vector<float> c2(static_cast<size_t>(m) * n, 0.0f);
      CallSgemm(v, m, n, k, a_tight.data(), ac, b_tight.data(), bc, c1.data(),
                n);
      CallSgemm(v, m, n, k, a_pad.data(), ac + pad, b_pad.data(), bc + pad,
                c2.data(), n);
      ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                               c1.size() * sizeof(float)))
          << TierName(tier) << " variant=" << static_cast<int>(v);
    }
  }
}

TEST(KernelsTest, ParallelMatMulBitIdenticalToSerial) {
  // MatMul*Accum split rows across a pool; the determinism contract says
  // any thread count produces the serial bits.
  const int m = 96, k = 64, n = 192;
  nn::Matrix a(m, k), b(k, n);
  for (int i = 0; i < m * k; ++i) a.data()[i] = TestValue(i);
  for (int i = 0; i < k * n; ++i) b.data()[i] = TestValue(i + 31337);
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    nn::Matrix serial(m, n);
    nn::MatMulAccum(a, b, serial);
    for (size_t threads : {2u, 4u, 7u}) {
      ThreadPool pool(threads);
      nn::SetMatMulThreadPool(&pool);
      nn::Matrix parallel(m, n);
      nn::MatMulAccum(a, b, parallel);
      nn::SetMatMulThreadPool(nullptr);
      ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                               serial.size() * sizeof(float)))
          << TierName(tier) << " threads=" << threads;
    }
  }
}

TEST(KernelsTest, EncoderFastPathBitIdenticalToGraph) {
  // The allocation-free EncodeToVector must reproduce the autograd graph
  // forward bit for bit, in both tiers and both position modes, at the
  // default shape and at the MPNetSim shape (d_model 64, d_ff 256,
  // relative bias with radius 8). The lengths cover every microkernel row
  // tail (L % 4), both ends of the relative-bias row, and truncation
  // (74 > max_seq_len 64).
  nn::TransformerConfig abs_cfg;
  abs_cfg.position_mode = nn::PositionMode::kAbsolute;
  nn::TransformerConfig rel_cfg;
  rel_cfg.position_mode = nn::PositionMode::kRelativeBias;
  nn::TransformerConfig mpnet_cfg = rel_cfg;
  mpnet_cfg.d_model = 64;
  mpnet_cfg.d_ff = 256;
  mpnet_cfg.rel_radius = 8;
  for (nn::TransformerConfig tc : {abs_cfg, rel_cfg, mpnet_cfg}) {
    tc.vocab_size = 97;
    nn::TransformerEncoder enc(tc);
    for (int len : {1, 2, 5, 8, 17, 37, 63, 64, 74}) {
      std::vector<u32> ids;
      for (int i = 0; i < len; ++i) {
        ids.push_back(static_cast<u32>((i * 13) % 97));
      }
      for (Tier tier : AvailableTiers()) {
        ForcedTier forced(tier);
        std::vector<float> graph_out;
        {
          nn::NoGradGuard guard;
          nn::VarPtr out = enc.Encode(ids);
          const float* row = out->value().row(0);
          graph_out.assign(row, row + tc.d_model);
        }
        std::vector<float> fast_out(static_cast<size_t>(tc.d_model));
        enc.EncodeToVector(ids, fast_out.data());
        ASSERT_EQ(0, std::memcmp(graph_out.data(), fast_out.data(),
                                 graph_out.size() * sizeof(float)))
            << TierName(tier) << " d_model=" << tc.d_model << " mode="
            << (tc.position_mode == nn::PositionMode::kAbsolute ? "abs"
                                                                : "rel")
            << " L=" << len;
        // The vector overload is the same path.
        const std::vector<float> vec_out = enc.EncodeToVector(ids);
        ASSERT_EQ(0, std::memcmp(graph_out.data(), vec_out.data(),
                                 graph_out.size() * sizeof(float)));
      }
    }
  }
}

TEST(KernelsTest, EncoderTruncatesLongInputInFastPath) {
  nn::TransformerConfig tc;
  tc.vocab_size = 50;
  nn::TransformerEncoder enc(tc);
  std::vector<u32> long_ids, trunc_ids;
  for (int i = 0; i < tc.max_seq_len + 40; ++i) {
    long_ids.push_back(static_cast<u32>(i % 50));
    if (i < tc.max_seq_len) trunc_ids.push_back(static_cast<u32>(i % 50));
  }
  const auto a = enc.EncodeToVector(long_ids);
  const auto b = enc.EncodeToVector(trunc_ids);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(KernelsTest, SgemmZeroDimsAreNoOps) {
  float a = 1.0f, b = 2.0f, c = 3.0f;
  SgemmNN(0, 1, 1, &a, 1, &b, 1, &c, 1);
  SgemmNN(1, 0, 1, &a, 1, &b, 1, &c, 1);
  SgemmNN(1, 1, 0, &a, 1, &b, 1, &c, 1);
  EXPECT_EQ(3.0f, c);
}

TEST(KernelsTest, AlignedAllocatorAligns) {
  std::vector<float, AlignedAllocator<float, 64>> v(100);
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(v.data()) % 64);
}

}  // namespace
}  // namespace kern
}  // namespace deepjoin
