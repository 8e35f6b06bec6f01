#include "util/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <vector>

// The one translation unit allowed to touch SIMD intrinsics (dj_lint rule
// `simd-intrinsics`). The AVX2 paths are compiled with per-function target
// attributes so the file builds with the tree's baseline flags and the
// vector code is only ever *executed* after a cpuid check.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DJ_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace deepjoin {
namespace kern {

namespace {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// 0 = no override, else 1 + static_cast<int>(Tier).
std::atomic<int> g_forced_tier{0};

Tier DetectTierOnce() {
  const char* force = std::getenv("DJ_FORCE_SCALAR_KERNELS");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Tier::kScalar;
  }
#if DJ_KERNELS_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

// ---------------------------------------------------------------------------
// Scalar tier
// ---------------------------------------------------------------------------

float DotScalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredL2Scalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float SquaredL2Sq8Scalar(const float* q, const u8* codes, const float* lo,
                         const float* scale, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float v = lo[i] + scale[i] * static_cast<float>(codes[i]);
    const float d = q[i] - v;
    acc += d * d;
  }
  return acc;
}

void AxpyScalar(int n, float alpha, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddScalar(int n, float alpha, const float* x, float beta,
                    float* y) {
  if (beta == 0.0f) {
    for (int i = 0; i < n; ++i) y[i] = alpha * x[i];
  } else {
    for (int i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
  }
}

void GeluTanhScalar(int n, const float* x, float* out) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    out[i] = 0.5f * v * (1.0f + t);
  }
}

void SoftmaxScalar(int n, const float* x, const float* mask, float* out) {
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

// GEMM blocking constants, shared by both tiers so the per-element chain
// (seeded 0 per KC block of k, ascending within it) is tier-independent in
// SHAPE — only the fused-vs-unfused arithmetic differs.
constexpr int kKC = 256;  // k-block: one block covers every repo shape
constexpr int kMR = 4;    // microkernel rows
constexpr int kNR = 16;   // microkernel cols (two 8-float AVX2 lanes)

enum class Variant { kNN, kNT, kTN };

// Element access for op(A)/op(B) under each variant: a(i, p) is the (i,
// p) entry of op(A) [m,k]; b(p, j) the (p, j) entry of op(B) [k,n].
inline float AElem(Variant v, const float* a, int lda, int i, int p) {
  return v == Variant::kTN ? a[static_cast<size_t>(p) * lda + i]
                           : a[static_cast<size_t>(i) * lda + p];
}
inline float BElem(Variant v, const float* b, int ldb, int p, int j) {
  return v == Variant::kNT ? b[static_cast<size_t>(j) * ldb + p]
                           : b[static_cast<size_t>(p) * ldb + j];
}

/// Scalar GEMM. Per row, a temporary accumulator strip tmp[0..n) holds the
/// KC-block partial sums: tmp[j] is exactly the documented chain (seeded 0,
/// k ascending, unfused multiply-add), added to C per block. The strip
/// keeps the inner loop streaming over contiguous memory for NN/TN.
void SgemmScalar(Variant variant, int m, int n, int k, const float* a,
                 int lda, const float* b, int ldb, float* c, int ldc) {
  // Capacity-reusing per-thread strip: grows to the widest n, then warm.
  thread_local std::vector<float> tmp;           // dj_alloc: allow(alloc)
  if (static_cast<int>(tmp.size()) < n) tmp.resize(n);  // dj_alloc: allow(alloc)
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<size_t>(i) * ldc;
    for (int k0 = 0; k0 < k; k0 += kKC) {
      const int kc = std::min(kKC, k - k0);
      if (variant == Variant::kNT) {
        // Row-major B^T: a dot product per output, chain order identical
        // to the strip path (same seed, same ascending k).
        for (int j = 0; j < n; ++j) {
          const float* arow = a + static_cast<size_t>(i) * lda + k0;
          const float* brow = b + static_cast<size_t>(j) * ldb + k0;
          float partial = 0.0f;
          for (int p = 0; p < kc; ++p) partial += arow[p] * brow[p];
          crow[j] += partial;
        }
        continue;
      }
      for (int j = 0; j < n; ++j) tmp[j] = 0.0f;
      for (int p = 0; p < kc; ++p) {
        const float av = AElem(variant, a, lda, i, k0 + p);
        const float* brow = b + static_cast<size_t>(k0 + p) * ldb;
        for (int j = 0; j < n; ++j) tmp[j] += av * brow[j];
      }
      for (int j = 0; j < n; ++j) crow[j] += tmp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier
// ---------------------------------------------------------------------------

#if DJ_KERNELS_X86

// Fixed-order horizontal sum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
__attribute__((target("avx2")))
inline float HSum8(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 s4 = _mm_add_ps(lo, hi);
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  return _mm_cvtss_f32(s1);
}

// Mask table for partial 8-lane groups: Mask8(v) has the first v lanes
// enabled. (Entry layout: 8 ones then 8 zeros; slide the window.)
alignas(32) constexpr int kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx2")))
inline __m256i Mask8(int valid) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - valid));
}

__attribute__((target("avx2,fma")))
float DotAvx2(const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  float sum = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

__attribute__((target("avx2,fma")))
float SquaredL2Avx2(const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    i += 8;
  }
  float sum = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum = std::fma(d, d, sum);
  }
  return sum;
}

// Widens 8 SQ8 codes to floats (exact: u8 values fit a float) and decodes
// them with a single FMA per lane — the decode never leaves registers.
__attribute__((target("avx2,fma")))
inline __m256 DecodeSq8Block(const u8* codes, const float* lo,
                             const float* scale) {
  const __m256i wide = _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes)));
  return _mm256_fmadd_ps(_mm256_loadu_ps(scale), _mm256_cvtepi32_ps(wide),
                         _mm256_loadu_ps(lo));
}

__attribute__((target("avx2,fma")))
float SquaredL2Sq8Avx2(const float* q, const u8* codes, const float* lo,
                       const float* scale, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q + i),
                                    DecodeSq8Block(codes + i, lo + i,
                                                   scale + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q + i + 8),
                                    DecodeSq8Block(codes + i + 8, lo + i + 8,
                                                   scale + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q + i),
                                    DecodeSq8Block(codes + i, lo + i,
                                                   scale + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    i += 8;
  }
  float sum = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float v = std::fma(scale[i], static_cast<float>(codes[i]), lo[i]);
    const float d = q[i] - v;
    sum = std::fma(d, d, sum);
  }
  return sum;
}

__attribute__((target("avx2,fma")))
void AxpyAvx2(int n, float alpha, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

__attribute__((target("avx2,fma")))
void ScaleAddAvx2(int n, float alpha, const float* x, float beta, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  if (beta == 0.0f) {
    // Pure y = alpha*x: a plain multiply in both tiers, so this case stays
    // bit-identical across tiers and never reads (possibly garbage) y.
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) y[i] = alpha * x[i];
    return;
  }
  const __m256 bv = _mm256_set1_ps(beta);
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(bv, _mm256_loadu_ps(y + i), t));
  }
  for (; i < n; ++i) y[i] = std::fma(beta, y[i], alpha * x[i]);
}

// Cephes-style e^x on 8 lanes; the steps are documented in kernels.h.
__attribute__((target("avx2,fma")))
inline __m256 Exp8(__m256 x) {
  const __m256 lo = _mm256_set1_ps(-87.33654f);  // ln(2^-126)
  const __m256 underflow = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  x = _mm256_min_ps(_mm256_max_ps(x, lo), _mm256_set1_ps(88.0f));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 er = _mm256_add_ps(
      _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
  // 2^n: n in [-126, 127] after the clamp, so the biased exponent is a
  // normal one.
  const __m256 pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23));
  return _mm256_andnot_ps(underflow, _mm256_mul_ps(er, pow2n));
}

__attribute__((target("avx2,fma")))
inline __m256 Gelu8(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 v3 = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044715f), v), v), v);
  const __m256 z = _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(v, v3));
  const __m256 e2z = Exp8(_mm256_add_ps(z, z));
  const __m256 t = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e2z, one)));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), v),
                       _mm256_add_ps(one, t));
}

__attribute__((target("avx2,fma")))
void GeluTanhAvx2(int n, const float* x, float* out) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Gelu8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = Mask8(n - i);
    _mm256_maskstore_ps(out + i, mask, Gelu8(_mm256_maskload_ps(x + i, mask)));
  }
}

__attribute__((target("avx2,fma")))
void SoftmaxAvx2(int n, const float* x, const float* mask, float* out) {
  const int body = n & ~7;
  const __m256i tail = Mask8(n - body);
  // Pass 1: out = x (+ mask), running max seeded like the scalar tier.
  __m256 vmax = _mm256_set1_ps(-1e30f);
  for (int i = 0; i < body; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    if (mask != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(mask + i));
    _mm256_storeu_ps(out + i, v);
    vmax = _mm256_max_ps(vmax, v);
  }
  if (body < n) {
    __m256 v = _mm256_maskload_ps(x + body, tail);
    if (mask != nullptr) {
      v = _mm256_add_ps(v, _mm256_maskload_ps(mask + body, tail));
    }
    _mm256_maskstore_ps(out + body, tail, v);
    vmax = _mm256_max_ps(
        vmax, _mm256_blendv_ps(vmax, v, _mm256_castsi256_ps(tail)));
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                         _mm256_extractf128_ps(vmax, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  const __m256 maxv = _mm256_broadcastss_ps(m4);
  // Pass 2: out = e^(out - max), summed in one float accumulator.
  __m256 acc = _mm256_setzero_ps();
  for (int i = 0; i < body; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(out + i), maxv));
    _mm256_storeu_ps(out + i, e);
    acc = _mm256_add_ps(acc, e);
  }
  if (body < n) {
    const __m256 e =
        Exp8(_mm256_sub_ps(_mm256_maskload_ps(out + body, tail), maxv));
    _mm256_maskstore_ps(out + body, tail, e);
    acc = _mm256_add_ps(acc, _mm256_and_ps(e, _mm256_castsi256_ps(tail)));
  }
  // Pass 3: normalise.
  const __m256 inv = _mm256_set1_ps(1.0f / HSum8(acc));
  for (int i = 0; i < body; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(out + i), inv));
  }
  if (body < n) {
    _mm256_maskstore_ps(
        out + body, tail,
        _mm256_mul_ps(_mm256_maskload_ps(out + body, tail), inv));
  }
}

/// 4x16 FMA microkernel over one KC block. Row r of op(A) starts at a[r]
/// and steps by a_step per k; b holds kc rows of 16 B values, ldb apart.
/// Every accumulator lane is the documented single FMA chain. Rows past
/// `rows` alias the last valid row (so nothing past op(A) is read) and
/// are never stored; only the `rows` x `cols` valid corner of C is
/// updated. The eight accumulators are named variables, not an array,
/// so they stay in registers at -O2.
__attribute__((target("avx2,fma")))
void MicroKernel4x16(int kc, const float* const* a, int a_step,
                     const float* b, int ldb, float* c, int ldc, int rows,
                     int cols) {
  const float* a0 = a[0];
  const float* a1 = a[1];
  const float* a2 = a[2];
  const float* a3 = a[3];
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 av = _mm256_broadcast_ss(a0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    b += ldb;
    a0 += a_step;
    a1 += a_step;
    a2 += a_step;
    a3 += a_step;
  }
  const __m256 acc[kMR][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  for (int r = 0; r < rows; ++r) {
    float* crow = c + static_cast<size_t>(r) * ldc;
    for (int half = 0; half < 2; ++half) {
      const int valid = std::min(8, cols - half * 8);
      if (valid <= 0) break;
      float* cp = crow + half * 8;
      if (valid == 8) {
        _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[r][half]));
      } else {
        const __m256i mask = Mask8(valid);
        const __m256 cv = _mm256_maskload_ps(cp, mask);
        _mm256_maskstore_ps(cp, mask, _mm256_add_ps(cv, acc[r][half]));
      }
    }
  }
}

/// Packs the kc x `cols` block of op(B) at (k0, j0) into a zero-padded
/// kc x kNR panel, k-major.
void PackBPanel(Variant variant, const float* b, int ldb, int k0, int kc,
                int j0, int cols, float* out) {
  for (int p = 0; p < kc; ++p) {
    float* dst = out + static_cast<size_t>(p) * kNR;
    if (variant == Variant::kNT) {
      for (int j = 0; j < cols; ++j) {
        dst[j] = b[static_cast<size_t>(j0 + j) * ldb + k0 + p];
      }
    } else {
      const float* src = b + static_cast<size_t>(k0 + p) * ldb + j0;
      for (int j = 0; j < cols; ++j) dst[j] = src[j];
    }
    for (int j = cols; j < kNR; ++j) dst[j] = 0.0f;
  }
}

/// Blocked GEMM driver (AVX2 tier). Per KC block and 16-column panel of
/// op(B), every kMR-row panel of op(A) runs through the microkernel while
/// the B panel stays in L1. A is always read in place; a B panel is read
/// in place when its rows are contiguous 16-float runs (NN/TN, full
/// width) and packed otherwise (NT, or the narrower last panel).
void SgemmAvx2(Variant variant, int m, int n, int k, const float* a, int lda,
               const float* b, int ldb, float* c, int ldc) {
  // op(A)(i, p) = a[i * a_row + p * a_step].
  const size_t a_row = variant == Variant::kTN ? 1 : static_cast<size_t>(lda);
  const int a_step = variant == Variant::kTN ? lda : 1;
  // Scratch for packed panels; PackBPanel writes all kc x kNR values of it
  // before the microkernel reads any.
  alignas(64) float pack[kKC * kNR];
  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    for (int j0 = 0; j0 < n; j0 += kNR) {
      const int cols = std::min(kNR, n - j0);
      const float* bp = b + static_cast<size_t>(k0) * ldb + j0;
      int ldbp = ldb;
      if (variant == Variant::kNT || cols < kNR) {
        PackBPanel(variant, b, ldb, k0, kc, j0, cols, pack);
        bp = pack;
        ldbp = kNR;
      }
      for (int i0 = 0; i0 < m; i0 += kMR) {
        const int rows = std::min(kMR, m - i0);
        const float* ar[kMR];
        for (int r = 0; r < kMR; ++r) {
          ar[r] = a + static_cast<size_t>(i0 + std::min(r, rows - 1)) * a_row +
                  static_cast<size_t>(k0) * a_step;
        }
        MicroKernel4x16(kc, ar, a_step, bp, ldbp,
                        c + static_cast<size_t>(i0) * ldc + j0, ldc, rows,
                        cols);
      }
    }
  }
}

#endif  // DJ_KERNELS_X86

void SgemmDispatch(Variant variant, int m, int n, int k, const float* a,
                   int lda, const float* b, int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    SgemmAvx2(variant, m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  SgemmScalar(variant, m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace

Tier DetectedTier() {
  static const Tier tier = DetectTierOnce();
  return tier;
}

Tier ActiveTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced != 0) return static_cast<Tier>(forced - 1);
  return DetectedTier();
}

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2+fma" : "scalar";
}

void ForceTierForTest(Tier tier) {
  if (tier == Tier::kAvx2) {
#if DJ_KERNELS_X86
    DJ_CHECK_MSG(__builtin_cpu_supports("avx2") &&
                     __builtin_cpu_supports("fma"),
                 "cannot force the AVX2 tier: hardware lacks avx2+fma");
#else
    DJ_CHECK_MSG(false, "cannot force the AVX2 tier: not an x86-64 build");
#endif
  }
  g_forced_tier.store(1 + static_cast<int>(tier), std::memory_order_relaxed);
}

void ClearForcedTierForTest() {
  g_forced_tier.store(0, std::memory_order_relaxed);
}

float Dot(const float* a, const float* b, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) return DotAvx2(a, b, n);
#endif
  return DotScalar(a, b, n);
}

float SquaredL2(const float* a, const float* b, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) return SquaredL2Avx2(a, b, n);
#endif
  return SquaredL2Scalar(a, b, n);
}

float SquaredL2Sq8(const float* q, const u8* codes, const float* lo,
                   const float* scale, int n) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    return SquaredL2Sq8Avx2(q, codes, lo, scale, n);
  }
#endif
  return SquaredL2Sq8Scalar(q, codes, lo, scale, n);
}

void Axpy(int n, float alpha, const float* x, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    AxpyAvx2(n, alpha, x, y);
    return;
  }
#endif
  AxpyScalar(n, alpha, x, y);
}

void ScaleAdd(int n, float alpha, const float* x, float beta, float* y) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    ScaleAddAvx2(n, alpha, x, beta, y);
    return;
  }
#endif
  ScaleAddScalar(n, alpha, x, beta, y);
}

void GeluTanh(int n, const float* x, float* out) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    GeluTanhAvx2(n, x, out);
    return;
  }
#endif
  GeluTanhScalar(n, x, out);
}

void Softmax(int n, const float* x, const float* mask, float* out) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    SoftmaxAvx2(n, x, mask, out);
    return;
  }
#endif
  SoftmaxScalar(n, x, mask, out);
}

void SgemmNN(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kNN, m, n, k, a, lda, b, ldb, c, ldc);
}

void SgemmNT(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kNT, m, n, k, a, lda, b, ldb, c, ldc);
}

void SgemmTN(int m, int n, int k, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  SgemmDispatch(Variant::kTN, m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace kern
}  // namespace deepjoin
