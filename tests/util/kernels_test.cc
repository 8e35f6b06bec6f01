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
//     fast path is bit-identical to the autograd graph forward, and the
//     AVX2 tier's two GEMM microkernels (8-lane 4x16, 16-lane 8x32) give
//     the same bits for GEMMs, encodings and a training step.
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

#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"

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

Tier TierOf(GemmPath path) {
  return path == GemmPath::kScalar ? Tier::kScalar : Tier::kAvx2;
}

/// GEMM paths available on this machine: scalar always; the AVX2 tier's
/// 8-lane kernel when the tier is detected, and its 16-lane kernel when
/// the host also has avx512f.
std::vector<GemmPath> AvailableGemmPaths() {
  std::vector<GemmPath> paths = {GemmPath::kScalar};
  if (DetectedTier() != Tier::kAvx2) return paths;
  paths.push_back(GemmPath::kAvx2);
  ForcedTier forced(Tier::kAvx2);
  if (ActiveGemmPath() == GemmPath::kAvx512) {
    paths.push_back(GemmPath::kAvx512);
  }
  return paths;
}

// Pins one GEMM path. Loops run the paths in AvailableGemmPaths order, so
// the check that kAvx512 is active also proves that
// ClearForcedTierForTest dropped the previous iteration's 8-lane pin.
class ForcedGemmPath {
 public:
  explicit ForcedGemmPath(GemmPath path) {
    ForceTierForTest(TierOf(path));
    if (path == GemmPath::kAvx2) PinAvx2GemmForTest();
    EXPECT_EQ(path, ActiveGemmPath());
  }
  ~ForcedGemmPath() { ClearForcedTierForTest(); }
};

TEST(KernelsTest, TierNamesResolve) {
  EXPECT_STREQ("scalar", TierName(Tier::kScalar));
  EXPECT_STREQ("avx2+fma", TierName(Tier::kAvx2));
  // ActiveTier is one of the two and is stable across calls.
  EXPECT_EQ(ActiveTier(), ActiveTier());
  // The GEMM paths are not tiers: TierName names the numeric contract.
  EXPECT_STREQ("scalar", GemmPathName(GemmPath::kScalar));
  EXPECT_STREQ("avx2-4x16", GemmPathName(GemmPath::kAvx2));
  EXPECT_STREQ("avx512-8x32", GemmPathName(GemmPath::kAvx512));
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
  // Shapes cross both microkernels' boundaries (4x16 and 8x32) and the
  // repo's training shapes; lda/ldb/ldc padding exercises the sub-view
  // paths.
  struct Shape { int m, n, k, pad; };
  const Shape shapes[] = {{1, 1, 1, 0},   {3, 5, 7, 0},   {4, 16, 8, 0},
                          {5, 17, 9, 3},  {13, 29, 31, 1}, {64, 48, 48, 0},
                          {64, 192, 48, 0}, {64, 64, 256, 5}, {2, 300, 2, 0},
                          {9, 33, 17, 0}, {15, 95, 40, 2}, {50, 16, 50, 0}};
  for (GemmPath path : AvailableGemmPaths()) {
    ForcedGemmPath forced(path);
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
                << GemmPathName(path) << " variant=" << static_cast<int>(v)
                << " m=" << s.m << " n=" << s.n << " k=" << s.k << " (" << i
                << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(KernelsTest, SgemmMatchesDocumentedChainExactly) {
  // m % 4 in {1, 2, 3} and m % 8 in {1..7} leave row tails of both
  // microkernels; n % 16 != 0 leaves the 4x16 kernel's packed edge panel
  // and n % 32 in {1, 15, 16, 17, 31} the 8x32 kernel's masked one; NT at
  // n = 50 and 64 covers its packed panels; k = 300 spans two KC blocks;
  // padded leading dimensions put garbage the kernel must never read next
  // to every row. Unpadded shapes end their buffers exactly at the last
  // element, so the ASan leg sees any over-read.
  struct Shape { int m, n, k, pad; };
  const Shape shapes[] = {
      {1, 1, 1, 0},      {5, 17, 300, 3},   {6, 33, 300, 1},
      {7, 50, 300, 2},   {13, 64, 300, 5},  {50, 16, 50, 0},
      {64, 256, 64, 0},  {37, 37, 16, 48},  {9, 33, 300, 0},
      {10, 47, 300, 0},  {11, 48, 300, 0},  {12, 49, 300, 0},
      {13, 63, 300, 0},  {14, 81, 300, 0},  {15, 95, 300, 0},
      {23, 16, 300, 0},  {50, 50, 16, 0},   {50, 64, 300, 0}};
  for (GemmPath path : AvailableGemmPaths()) {
    ForcedGemmPath forced(path);
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
        RefGemmChain(TierOf(path), v, s.m, s.n, s.k, a.data(), lda, b.data(),
                     ldb, want.data(), ldc);
        CallSgemm(v, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, got.data(),
                  ldc);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(float)))
            << GemmPathName(path) << " variant=" << static_cast<int>(v)
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
  for (GemmPath path : AvailableGemmPaths()) {
    ForcedGemmPath forced(path);
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
          << GemmPathName(path) << " variant=" << static_cast<int>(v);
    }
  }
}

// The two model shapes the tests train and serve: the default config
// (DistilSim's d_model 48) in both position modes, and the MPNetSim shape
// (d_model 64, d_ff 256, relative bias with radius 8).
std::vector<nn::TransformerConfig> EncoderShapes() {
  nn::TransformerConfig abs_cfg;
  abs_cfg.position_mode = nn::PositionMode::kAbsolute;
  nn::TransformerConfig rel_cfg;
  rel_cfg.position_mode = nn::PositionMode::kRelativeBias;
  nn::TransformerConfig mpnet_cfg = rel_cfg;
  mpnet_cfg.d_model = 64;
  mpnet_cfg.d_ff = 256;
  mpnet_cfg.rel_radius = 8;
  std::vector<nn::TransformerConfig> shapes = {abs_cfg, rel_cfg, mpnet_cfg};
  for (auto& tc : shapes) tc.vocab_size = 97;
  return shapes;
}

TEST(KernelsTest, EncoderFastPathBitIdenticalToGraph) {
  // The allocation-free EncodeToVector must reproduce the autograd graph
  // forward bit for bit, on every GEMM path and in both position modes.
  // The 8-lane and 16-lane GEMM paths must also agree with each other
  // bit for bit. The lengths cover every microkernel row tail (L % 8),
  // both ends of the relative-bias row, and truncation (74 > max_seq_len
  // 64).
  for (const nn::TransformerConfig& tc : EncoderShapes()) {
    nn::TransformerEncoder enc(tc);
    for (int len : {1, 2, 5, 8, 17, 37, 63, 64, 74}) {
      std::vector<u32> ids;
      for (int i = 0; i < len; ++i) {
        ids.push_back(static_cast<u32>((i * 13) % 97));
      }
      std::vector<float> avx2_out;
      for (GemmPath path : AvailableGemmPaths()) {
        ForcedGemmPath forced(path);
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
            << GemmPathName(path) << " d_model=" << tc.d_model << " mode="
            << (tc.position_mode == nn::PositionMode::kAbsolute ? "abs"
                                                                : "rel")
            << " L=" << len;
        // The vector overload is the same path.
        const std::vector<float> vec_out = enc.EncodeToVector(ids);
        ASSERT_EQ(0, std::memcmp(graph_out.data(), vec_out.data(),
                                 graph_out.size() * sizeof(float)));
        if (path == GemmPath::kAvx2) avx2_out = fast_out;
        if (path == GemmPath::kAvx512) {
          ASSERT_EQ(0, std::memcmp(avx2_out.data(), fast_out.data(),
                                   fast_out.size() * sizeof(float)))
              << "16-lane vs 8-lane GEMM, d_model=" << tc.d_model
              << " L=" << len;
        }
      }
    }
  }
}

// One AdamW step from the same initial weights on each AVX2 GEMM path.
// Its backward runs SgemmNT and SgemmTN, so this covers every variant
// through autograd: the parameters must come out byte-equal.
TEST(KernelsTest, TrainingStepBitIdenticalAcrossGemmPaths) {
  const std::vector<GemmPath> paths = AvailableGemmPaths();
  if (paths.back() != GemmPath::kAvx512) {
    GTEST_SKIP() << "host has one AVX2 GEMM path";
  }
  for (const nn::TransformerConfig& tc : EncoderShapes()) {
    std::vector<std::vector<float>> params_by_path;
    for (GemmPath path : {GemmPath::kAvx2, GemmPath::kAvx512}) {
      ForcedGemmPath forced(path);
      nn::TransformerEncoder enc(tc);
      nn::AdamW opt(enc.params().params(), nn::AdamConfig{});
      std::vector<nn::VarPtr> xs, ys;
      for (int s = 0; s < 4; ++s) {
        std::vector<u32> x, y;
        for (int i = 0; i < 9 + 7 * s; ++i) {
          x.push_back(static_cast<u32>((i * 13 + s) % 97));
          y.push_back(static_cast<u32>((i * 29 + 3 * s) % 97));
        }
        xs.push_back(enc.Encode(x));
        ys.push_back(enc.Encode(y));
      }
      nn::Backward(nn::MultipleNegativesRankingLoss(xs, ys, 10.0f));
      opt.Step(1.0);
      std::vector<float> flat;
      for (const nn::VarPtr& p : enc.params().params()) {
        const nn::Matrix& w = p->value();
        flat.insert(flat.end(), w.data(), w.data() + w.size());
      }
      params_by_path.push_back(std::move(flat));
    }
    ASSERT_EQ(params_by_path[0].size(), params_by_path[1].size());
    EXPECT_EQ(0, std::memcmp(params_by_path[0].data(),
                             params_by_path[1].data(),
                             params_by_path[0].size() * sizeof(float)))
        << "d_model=" << tc.d_model;
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

// ---- Attention / LayerNorm / Linear ----------------------------------------

// The chain Attention documents, from the public kernels.
void RefAttention(int L, int dh, const float* q, const float* k,
                  const float* v, int ld, float scale, const float* bias,
                  float* out, int ldo) {
  std::vector<float> s(static_cast<size_t>(L) * L, 0.0f);
  SgemmNT(L, L, dh, q, ld, k, ld, s.data(), L);
  for (int i = 0; i < L; ++i) {
    float* row = s.data() + static_cast<size_t>(i) * L;
    ScaleAdd(L, scale, row, 0.0f, row);
    if (bias != nullptr) Axpy(L, 1.0f, bias + (L - 1 - i), row);
    Softmax(L, row, nullptr, row);
  }
  for (int i = 0; i < L; ++i) {
    std::memset(out + static_cast<size_t>(i) * ldo, 0,
                sizeof(float) * static_cast<size_t>(dh));
  }
  SgemmNN(L, dh, L, s.data(), L, v, ld, out, ldo);
}

TEST(KernelsTest, AttentionBitIdenticalToUnfusedChain) {
  // d_head 12 (DistilSim) and 16 (MPNetSim) take the register-resident
  // kernel on the kAvx512 path up to L = 64; d_head 20 and L > 64 take
  // the chain itself. Both position modes: with and without a bias row.
  for (GemmPath path : AvailableGemmPaths()) {
    ForcedGemmPath forced(path);
    for (int dh : {12, 16, 20}) {
      const int ld = 3 * dh + 5;  // a head inside a wider row
      for (int L : {1, 2, 7, 8, 15, 16, 17, 33, 50, 63, 64, 65, 80}) {
        auto q = MakeVector(L * ld, 11 * L + dh);
        auto k = MakeVector(L * ld, 13 * L + dh);
        const auto v = MakeVector(L * ld, 17 * L + dh);
        for (float& x : q) x *= 2.0f;  // scores up to about 50
        const auto bias = MakeVector(2 * L - 1, 19 * L);
        const float* no_bias = nullptr;
        for (const float* b : {no_bias, bias.data()}) {
          const int ldo = dh + 3;
          std::vector<float> want(static_cast<size_t>(L) * ldo, 7.0f);
          std::vector<float> got = want;
          RefAttention(L, dh, q.data(), k.data(), v.data(), ld, 0.25f, b,
                       want.data(), ldo);
          std::vector<float> scores(static_cast<size_t>(L) * (L + 1));
          Attention(L, dh, q.data(), k.data(), v.data(), ld, 0.25f, b,
                    scores.data(), L + 1, got.data(), ldo);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   want.size() * sizeof(float)))
              << GemmPathName(path) << " dh=" << dh << " L=" << L
              << " bias=" << (b != nullptr);
        }
      }
    }
  }
}

// The scalar tier's LayerNorm: the formula nn::LayerNormRow had before it
// moved into util/kernels.h.
float RefLayerNormScalar(const float* x, int n, const float* gamma,
                         const float* beta, float eps, float* xhat,
                         float* out) {
  double mean = 0.0;
  for (int j = 0; j < n; ++j) mean += x[j];
  mean /= n;
  double var = 0.0;
  for (int j = 0; j < n; ++j) {
    const double d = x[j] - mean;
    var += d * d;
  }
  var /= n;
  const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
  const float fmean = static_cast<float>(mean);
  for (int j = 0; j < n; ++j) {
    const float h = (x[j] - fmean) * is;
    xhat[j] = h;
    out[j] = gamma[j] * h + beta[j];
  }
  return is;
}

// kernels.h's bound on the AVX2 tier's LayerNorm output.
constexpr double kLayerNormTol = 2e-6;

TEST(KernelsTest, LayerNormMatchesScalarFormulaAndDoubleReference) {
  for (Tier tier : AvailableTiers()) {
    ForcedTier forced(tier);
    for (int n : {1, 5, 8, 13, 48, 64, 192, 256}) {
      auto x = MakeVector(n, 23 * n);
      for (float& v : x) v += 0.5f;  // mean != 0
      const auto gamma = MakeVector(n, 29 * n);
      const auto beta = MakeVector(n, 31 * n);
      std::vector<float> out(static_cast<size_t>(n)), xhat(out.size());
      const float is = LayerNorm(n, x.data(), gamma.data(), beta.data(), 1e-5f,
                                 xhat.data(), out.data());
      auto in_place = x;
      LayerNorm(n, in_place.data(), gamma.data(), beta.data(), 1e-5f, nullptr,
                in_place.data());
      ASSERT_EQ(0, std::memcmp(out.data(), in_place.data(),
                               out.size() * sizeof(float)))
          << TierName(tier) << " n=" << n;
      if (tier == Tier::kScalar) {
        std::vector<float> want(out.size()), want_hat(out.size());
        const float want_is =
            RefLayerNormScalar(x.data(), n, gamma.data(), beta.data(), 1e-5f,
                               want_hat.data(), want.data());
        ASSERT_EQ(want_is, is) << "n=" << n;
        ASSERT_EQ(0, std::memcmp(want.data(), out.data(),
                                 out.size() * sizeof(float)))
            << "n=" << n;
        ASSERT_EQ(0, std::memcmp(want_hat.data(), xhat.data(),
                                 out.size() * sizeof(float)))
            << "n=" << n;
      }
      double mean = 0.0, var = 0.0;
      for (float v : x) mean += v;
      mean /= n;
      for (float v : x) var += (v - mean) * (v - mean);
      var /= n;
      const double inv = 1.0 / std::sqrt(var + 1e-5);
      ASSERT_NEAR(inv, is, 1e-6 * inv) << TierName(tier) << " n=" << n;
      for (int j = 0; j < n; ++j) {
        const size_t s = static_cast<size_t>(j);
        const double ref = gamma[s] * ((x[s] - mean) * inv) + beta[s];
        ASSERT_NEAR(ref, out[s], kLayerNormTol * (1.0 + std::abs(ref)))
            << TierName(tier) << " n=" << n << " j=" << j;
      }
    }
  }
}

TEST(KernelsTest, LinearBitIdenticalToGemmBiasGelu) {
  for (GemmPath path : AvailableGemmPaths()) {
    ForcedGemmPath forced(path);
    const int m = 17, k = 48, n = 40, ldx = k + 3, ldy = n + 5;
    const auto x = MakeVector(m * ldx, 41);
    const auto w = MakeVector(k * n, 43);
    const auto bias = MakeVector(n, 47);
    for (bool gelu : {false, true}) {
      std::vector<float> want(static_cast<size_t>(m) * ldy, 3.0f);
      std::vector<float> got = want;
      for (int i = 0; i < m; ++i) {
        float* row = want.data() + static_cast<size_t>(i) * ldy;
        std::memset(row, 0, sizeof(float) * n);
      }
      SgemmNN(m, n, k, x.data(), ldx, w.data(), n, want.data(), ldy);
      for (int i = 0; i < m; ++i) {
        float* row = want.data() + static_cast<size_t>(i) * ldy;
        Axpy(n, 1.0f, bias.data(), row);
        if (gelu) GeluTanh(n, row, row);
      }
      Linear(m, n, k, x.data(), ldx, w.data(), bias.data(), gelu, got.data(),
             ldy);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << GemmPathName(path) << " gelu=" << gelu;
    }
  }
}

TEST(KernelsTest, AmxLinearWithinBf16BoundOfFp32) {
  if (!AmxLinearActive()) GTEST_SKIP() << "AMX-BF16 linear unavailable";
  EXPECT_STREQ("amx-bf16", LinearPathName());
  EXPECT_STREQ("avx2+fma", TierName(ActiveTier()));
  const int dims[] = {8, 48, 64, 192, 256};
  for (int k : dims) {
    for (int n : dims) {
      std::vector<float> w = MakeVector(k * n, 53 * k + n);
      for (float& v : w) v *= 0.05f;
      const auto bias = MakeVector(n, 59 * n);
      std::vector<u16> packed(AmxPackedWeightSize(k, n));
      AmxPackWeight(k, n, w.data(), packed.data());
      for (int m : {1, 15, 16, 17, 50, 64}) {
        // Padding past k holds a poison value AmxLinear must not read, and
        // padding past n must come back untouched.
        const int ldx = k + 7, ldy = n + 3;
        std::vector<float> x = MakeVector(m * ldx, 61 * m + k);
        for (int i = 0; i < m; ++i) {
          for (int p = k; p < ldx; ++p) {
            x[static_cast<size_t>(i) * ldx + p] = 1e30f;
          }
        }
        std::vector<u16> xbuf(AmxActivationSize(m, k));
        for (bool gelu : {false, true}) {
          std::vector<float> want(static_cast<size_t>(m) * ldy, -5.0f);
          std::vector<float> got = want;
          Linear(m, n, k, x.data(), ldx, w.data(), bias.data(), gelu,
                 want.data(), ldy);
          AmxBegin();
          AmxLinear(m, n, k, x.data(), ldx, packed.data(), bias.data(), gelu,
                    xbuf.data(), got.data(), ldy);
          AmxEnd();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < ldy; ++j) {
              const size_t s = static_cast<size_t>(i) * ldy + j;
              if (j >= n) {
                ASSERT_EQ(-5.0f, got[s])
                    << "k=" << k << " n=" << n << " m=" << m;
                continue;
              }
              double mass = 0.0;  // sum_p |x_p w_p|
              for (int p = 0; p < k; ++p) {
                mass += std::abs(
                    static_cast<double>(x[static_cast<size_t>(i) * ldx + p]) *
                    w[static_cast<size_t>(p) * n + j]);
              }
              // GELU's slope is below 1.13, so it grows the bound by as much.
              const double bound =
                  (gelu ? 1.13 : 1.0) *
                  (kBf16LinearAbsTol + kBf16LinearRelTol * mass);
              ASSERT_NEAR(want[s], got[s], bound)
                  << "k=" << k << " n=" << n << " m=" << m << " i=" << i
                  << " j=" << j << " gelu=" << gelu;
            }
          }
        }
      }
    }
  }
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
