#include "util/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

// The one translation unit allowed to touch SIMD intrinsics (dj_lint rule
// `simd-intrinsics`). The AVX2 paths are compiled with per-function target
// attributes so the file builds with the tree's baseline flags and the
// vector code is only ever *executed* after a cpuid check.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DJ_KERNELS_X86 1
#include <immintrin.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace deepjoin {
namespace kern {

namespace {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// 0 = no override, else 1 + static_cast<int>(Tier).
std::atomic<int> g_forced_tier{0};
// Set by PinAvx2GemmForTest: the kAvx2 tier's GEMM runs the 4x16 kernel.
std::atomic<bool> g_pinned_avx2_gemm{false};

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

// Whether the kAvx2 tier's GEMM may run the 16-lane microkernel. The
// cpuid check also covers OS support for the zmm register state.
bool HasAvx512Gemm() {
#if DJ_KERNELS_X86
  static const bool has = __builtin_cpu_supports("avx512f");
  return has;
#else
  return false;
#endif
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

float LayerNormScalar(int n, const float* x, const float* gamma,
                      const float* beta, float eps, float* xhat, float* out) {
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
    if (xhat != nullptr) xhat[j] = h;
    out[j] = gamma[j] * h + beta[j];
  }
  return is;
}

// GEMM k-block, shared by every path so the per-element chain (seeded 0
// per KC block of k, ascending within it) is tier-independent in SHAPE —
// only the fused-vs-unfused arithmetic differs. One block covers every
// repo shape.
constexpr int kKC = 256;

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

/// Softmax of x * scale (+ mask). Softmax passes scale 1 (an exact
/// multiply); Attention folds its scale and bias row in here, which gives
/// the bits of a separate ScaleAdd and Axpy(1) pass.
__attribute__((target("avx2,fma")))
void SoftmaxAvx2(int n, const float* x, float scale, const float* mask,
                 float* out) {
  const int body = n & ~7;
  const __m256i tail = Mask8(n - body);
  const __m256 sv = _mm256_set1_ps(scale);
  // Pass 1: out = x * scale (+ mask), running max seeded like the scalar
  // tier.
  __m256 vmax = _mm256_set1_ps(-1e30f);
  for (int i = 0; i < body; i += 8) {
    __m256 v = _mm256_mul_ps(sv, _mm256_loadu_ps(x + i));
    if (mask != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(mask + i));
    _mm256_storeu_ps(out + i, v);
    vmax = _mm256_max_ps(vmax, v);
  }
  if (body < n) {
    __m256 v = _mm256_mul_ps(sv, _mm256_maskload_ps(x + body, tail));
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

// Fixed-order sum of 4 double lanes: (l0+l2) + (l1+l3).
__attribute__((target("avx2")))
inline double HSum4d(__m256d acc) {
  const __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

// The 8 floats at x (the first `valid` of them; the rest read as 0),
// widened to two 4-lane doubles.
__attribute__((target("avx2")))
inline void Widen8(const float* x, int valid, __m256d& lo, __m256d& hi) {
  const __m256 v = valid >= 8 ? _mm256_loadu_ps(x)
                              : _mm256_maskload_ps(x, Mask8(valid));
  lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

__attribute__((target("avx2,fma")))
float LayerNormAvx2(int n, const float* x, const float* gamma,
                    const float* beta, float eps, float* xhat, float* out) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  for (int i = 0; i < n; i += 8) {
    __m256d lo, hi;
    Widen8(x + i, n - i, lo, hi);
    acc0 = _mm256_add_pd(acc0, lo);
    acc1 = _mm256_add_pd(acc1, hi);
  }
  const double mean = HSum4d(_mm256_add_pd(acc0, acc1)) / n;
  const __m256d mv = _mm256_set1_pd(mean);
  acc0 = _mm256_setzero_pd();
  acc1 = _mm256_setzero_pd();
  for (int i = 0; i < n; i += 8) {
    __m256d lo, hi;
    Widen8(x + i, n - i, lo, hi);
    __m256d d0 = _mm256_sub_pd(lo, mv), d1 = _mm256_sub_pd(hi, mv);
    if (n - i < 8) {
      // Tail lanes read 0, so their deviation is -mean: zero it.
      const __m256i m = Mask8(n - i);
      d0 = _mm256_and_pd(d0, _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
                                 _mm256_castsi256_si128(m))));
      d1 = _mm256_and_pd(d1, _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
                                 _mm256_extracti128_si256(m, 1))));
    }
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  const double var = HSum4d(_mm256_add_pd(acc0, acc1)) / n;
  const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
  const __m256 fm = _mm256_set1_ps(static_cast<float>(mean));
  const __m256 isv = _mm256_set1_ps(is);
  // x == out: each 8-block is read before it is written.
  for (int i = 0; i < n; i += 8) {
    const __m256i m = Mask8(std::min(8, n - i));
    const __m256 h =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_maskload_ps(x + i, m), fm), isv);
    if (xhat != nullptr) _mm256_maskstore_ps(xhat + i, m, h);
    _mm256_maskstore_ps(out + i, m,
                        _mm256_fmadd_ps(_mm256_maskload_ps(gamma + i, m), h,
                                        _mm256_maskload_ps(beta + i, m)));
  }
  return is;
}

// ---- 16-lane helpers ------------------------------------------------------
//
// Exp16 and Gelu16 do the operations of Exp8 and Gelu8 per lane, so they
// give the same bits; the attention kernel and the AMX store use them.

// GCC 12 reports its own undefined pass-through operand in several
// unmasked AVX-512 intrinsics as maybe-uninitialized, so the code below
// spells them as their all-lanes maskz forms (the same instructions).
constexpr __mmask16 kAll16 = 0xFFFF;

// First `valid` of 16 lanes (all for valid >= 16, none for valid <= 0).
inline __mmask16 Mask16(int valid) {
  if (valid >= 16) return 0xFFFF;
  return valid <= 0 ? 0 : static_cast<__mmask16>((1u << valid) - 1u);
}

/// The low and high 8 lanes (half 0 or 1) of a 16-lane vector.
__attribute__((target("avx512f")))
inline __m256 Half8(__m512 v, int half) {
  return _mm256_castpd_ps(
      half == 0 ? _mm512_maskz_extractf64x4_pd(0xFF, _mm512_castps_pd(v), 0)
                : _mm512_maskz_extractf64x4_pd(0xFF, _mm512_castps_pd(v), 1));
}

/// The maximum of the 16 lanes, in every lane.
__attribute__((target("avx512f,avx2")))
inline __m512 BroadcastMax16(__m512 v) {
  const __m256 m8 = _mm256_max_ps(Half8(v, 0), Half8(v, 1));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8),
                         _mm256_extractf128_ps(m8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  return _mm512_maskz_broadcastss_ps(kAll16, m4);
}

/// Exp8 on 16 lanes.
__attribute__((target("avx512f")))
inline __m512 Exp16(__m512 x) {
  const __m512 lo = _mm512_set1_ps(-87.33654f);
  const __mmask16 underflow = _mm512_cmp_ps_mask(x, lo, _CMP_LT_OQ);
  x = _mm512_maskz_min_ps(kAll16, _mm512_maskz_max_ps(kAll16, x, lo),
                          _mm512_set1_ps(88.0f));
  const __m512 n = _mm512_maskz_roundscale_ps(
      kAll16, _mm512_mul_ps(x, _mm512_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693359375f), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.12194440e-4f), r);
  __m512 p = _mm512_set1_ps(1.9875691500e-4f);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.3981999507e-3f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(8.3334519073e-3f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(4.1665795894e-2f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.6666665459e-1f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(5.0000001201e-1f));
  const __m512 er = _mm512_add_ps(
      _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r), _mm512_set1_ps(1.0f));
  const __m512 pow2n = _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
      kAll16,
      _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAll16, n),
                       _mm512_set1_epi32(127)),
      23));
  return _mm512_maskz_mul_ps(static_cast<__mmask16>(~underflow), er, pow2n);
}

/// Gelu8 on 16 lanes.
__attribute__((target("avx512f")))
inline __m512 Gelu16(__m512 v) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 v3 = _mm512_mul_ps(
      _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.044715f), v), v), v);
  const __m512 z = _mm512_mul_ps(_mm512_set1_ps(kGeluC), _mm512_add_ps(v, v3));
  const __m512 e2z = Exp16(_mm512_add_ps(z, z));
  const __m512 t = _mm512_sub_ps(
      one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e2z, one)));
  return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), v),
                       _mm512_add_ps(one, t));
}

// ---- Register-resident attention head (kAvx512 path) ----------------------
//
// For L <= 64 and d_head <= 16, one head runs in registers and L1: two
// rows of scores at a time (kNV 16-lane vectors each) from a transposed
// copy of K_h, softmax on those registers, then P V_h eight rows at a
// time. The loops over register arrays are fully unrolled so the arrays
// stay in zmm registers. Every value takes the same operations as the
// chain Attention documents (SgemmNT's chain from 0, then 0 + chain;
// * scale; + bias; SoftmaxAvx2's max, Exp8, 8-lane sum order and
// normalise; SgemmNN's chain), so the result is that chain's, bit for bit.

/// Scale, bias and softmax of one score row held in s[0..kNV); writes the
/// probabilities (zeros past L) to prow.
template <int kNV>
__attribute__((target("avx512f,avx2")))
inline void SoftmaxRegs(__m512* s, const __mmask16* valid, __m512 sv,
                        const float* brow, float* prow) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 vmax = _mm512_set1_ps(-1e30f);
  #pragma GCC unroll 4
  for (int t = 0; t < kNV; ++t) {
    __m512 x = _mm512_mul_ps(sv, _mm512_add_ps(zero, s[t]));
    if (brow != nullptr) {
      x = _mm512_add_ps(x, _mm512_maskz_loadu_ps(valid[t], brow + 16 * t));
    }
    s[t] = x;
    vmax = _mm512_mask_max_ps(vmax, valid[t], vmax, x);
  }
  const __m512 maxv = BroadcastMax16(vmax);
  __m256 acc = _mm256_setzero_ps();
  #pragma GCC unroll 4
  for (int t = 0; t < kNV; ++t) {
    s[t] = _mm512_maskz_mov_ps(valid[t], Exp16(_mm512_sub_ps(s[t], maxv)));
    acc = _mm256_add_ps(acc, Half8(s[t], 0));
    acc = _mm256_add_ps(acc, Half8(s[t], 1));
  }
  const __m512 inv = _mm512_set1_ps(1.0f / HSum8(acc));
  #pragma GCC unroll 4
  for (int t = 0; t < kNV; ++t) {
    _mm512_store_ps(prow + 16 * t, _mm512_mul_ps(s[t], inv));
  }
}

template <int kNV>
__attribute__((target("avx512f,avx2")))
DJ_NOALLOC void AttentionAvx512(int L, int dh, const float* q, const float* k,
                                const float* v, int ld, float scale,
                                const float* bias, float* out, int ldo) {
  constexpr int kW = 16 * kNV;  // padded score row
  alignas(64) float kt[16 * kW];
  alignas(64) float probs[64 * kW];
  for (int p = 0; p < dh; ++p) {
    for (int j = 0; j < kW; ++j) {
      kt[p * kW + j] = j < L ? k[static_cast<size_t>(j) * ld + p] : 0.0f;
    }
  }
  __mmask16 valid[kNV];
  #pragma GCC unroll 4
  for (int t = 0; t < kNV; ++t) valid[t] = Mask16(L - 16 * t);
  const __m512 sv = _mm512_set1_ps(scale);
  const __m512 zero = _mm512_setzero_ps();
  for (int i = 0; i < L; i += 2) {
    // An odd last row pairs with itself; the copy is not stored.
    const int i1 = std::min(i + 1, L - 1);
    const float* q0 = q + static_cast<size_t>(i) * ld;
    const float* q1 = q + static_cast<size_t>(i1) * ld;
    __m512 s0[kNV], s1[kNV];
    #pragma GCC unroll 4
    for (int t = 0; t < kNV; ++t) s0[t] = s1[t] = zero;
    for (int p = 0; p < dh; ++p) {
      const __m512 a0 = _mm512_set1_ps(q0[p]);
      const __m512 a1 = _mm512_set1_ps(q1[p]);
      #pragma GCC unroll 4
      for (int t = 0; t < kNV; ++t) {
        const __m512 kv = _mm512_load_ps(kt + p * kW + 16 * t);
        s0[t] = _mm512_fmadd_ps(a0, kv, s0[t]);
        s1[t] = _mm512_fmadd_ps(a1, kv, s1[t]);
      }
    }
    SoftmaxRegs<kNV>(s0, valid, sv, bias ? bias + (L - 1 - i) : nullptr,
                     probs + i * kW);
    if (i1 > i) {
      SoftmaxRegs<kNV>(s1, valid, sv, bias ? bias + (L - 1 - i1) : nullptr,
                       probs + i1 * kW);
    }
  }
  const __mmask16 vm = Mask16(dh);
  for (int i0 = 0; i0 < L; i0 += 8) {
    const float* pr[8];
    #pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) pr[r] = probs + std::min(i0 + r, L - 1) * kW;
    __m512 c[8];
    #pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) c[r] = zero;
    for (int j = 0; j < L; ++j) {
      const __m512 vv =
          _mm512_maskz_loadu_ps(vm, v + static_cast<size_t>(j) * ld);
      #pragma GCC unroll 8
      for (int r = 0; r < 8; ++r) {
        c[r] = _mm512_fmadd_ps(_mm512_set1_ps(pr[r][j]), vv, c[r]);
      }
    }
    for (int r = 0; r < 8 && i0 + r < L; ++r) {
      _mm512_mask_storeu_ps(out + static_cast<size_t>(i0 + r) * ldo, vm,
                            _mm512_add_ps(zero, c[r]));
    }
  }
}

// ---- GEMM: two microkernels, one blocked loop nest -------------------------
//
// Both microkernels compute the kAvx2 tier's documented chain: every
// accumulator lane of C(i, j) starts at 0 per KC block and takes one FMA
// per k, ascending, and the block sum is added into C. IEEE FMA rounds
// the same at any vector width, so the 16-lane kernel's results are
// bit-identical to the 8-lane kernel's.

/// A microkernel updates the `rows` x `cols` corner of C at c (ldc apart)
/// with one KC block: row r of op(A) starts at a[r] and steps by a_step
/// per k, and b holds kc rows of the tile's kNR B columns, ldb apart.
/// Rows past `rows` alias the last valid row (so nothing past op(A) is
/// read) and are never stored.
using MicroKernelFn = void (*)(int kc, const float* const* a, int a_step,
                               const float* b, int ldb, float* c, int ldc,
                               int rows, int cols);

/// 4x16 AVX2 microkernel. B rows are read as two full 8-float vectors, so
/// SgemmBlocked hands it a zero-padded panel when cols < 16. The eight
/// accumulators are named variables, not an array, so they stay in
/// registers at -O2.
__attribute__((target("avx2,fma")))
DJ_NOALLOC void MicroKernel4x16(int kc, const float* const* a, int a_step,
                                const float* b, int ldb, float* c, int ldc,
                                int rows, int cols) {
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
  const __m256 acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
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

// One row's k step: C row += broadcast(a) * B, over kNV 16-lane vectors.
template <int kNV>
__attribute__((target("avx512f")))
inline void RowFma16(const float* a, __m512 b0, __m512 b1, __m512& c0,
                     __m512& c1) {
  const __m512 av = _mm512_set1_ps(*a);
  c0 = _mm512_fmadd_ps(av, b0, c0);
  if constexpr (kNV > 1) c1 = _mm512_fmadd_ps(av, b1, c1);
}

template <int kNV>
__attribute__((target("avx512f")))
inline void StoreRow16(float* crow, __mmask16 m0, __mmask16 m1, __m512 c0,
                       __m512 c1) {
  _mm512_mask_storeu_ps(
      crow, m0, _mm512_add_ps(_mm512_maskz_loadu_ps(m0, crow), c0));
  if constexpr (kNV > 1) {
    if (m1 != 0) {
      _mm512_mask_storeu_ps(
          crow + 16, m1,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m1, crow + 16), c1));
    }
  }
}

/// 8 x (16 * kNV) AVX-512 microkernel. B rows are read with masked loads
/// that never touch columns past `cols`, so column tails need no packed
/// panel. Up to 16 zmm accumulators, named so they stay in registers.
template <int kNV>
__attribute__((target("avx512f")))
DJ_NOALLOC void MicroKernel8x16V(int kc, const float* const* a, int a_step,
                                 const float* b, int ldb, float* c, int ldc,
                                 int rows, int cols) {
  const __mmask16 m0 = Mask16(cols);
  const __mmask16 m1 = Mask16(cols - 16);
  const float* a0 = a[0];
  const float* a1 = a[1];
  const float* a2 = a[2];
  const float* a3 = a[3];
  const float* a4 = a[4];
  const float* a5 = a[5];
  const float* a6 = a[6];
  const float* a7 = a[7];
  const __m512 z = _mm512_setzero_ps();
  __m512 c00 = z, c01 = z, c10 = z, c11 = z, c20 = z, c21 = z, c30 = z,
         c31 = z, c40 = z, c41 = z, c50 = z, c51 = z, c60 = z, c61 = z,
         c70 = z, c71 = z;
  for (int p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_maskz_loadu_ps(m0, b);
    const __m512 b1 = kNV > 1 ? _mm512_maskz_loadu_ps(m1, b + 16) : z;
    RowFma16<kNV>(a0, b0, b1, c00, c01);
    RowFma16<kNV>(a1, b0, b1, c10, c11);
    RowFma16<kNV>(a2, b0, b1, c20, c21);
    RowFma16<kNV>(a3, b0, b1, c30, c31);
    RowFma16<kNV>(a4, b0, b1, c40, c41);
    RowFma16<kNV>(a5, b0, b1, c50, c51);
    RowFma16<kNV>(a6, b0, b1, c60, c61);
    RowFma16<kNV>(a7, b0, b1, c70, c71);
    b += ldb;
    a0 += a_step;
    a1 += a_step;
    a2 += a_step;
    a3 += a_step;
    a4 += a_step;
    a5 += a_step;
    a6 += a_step;
    a7 += a_step;
  }
  const __m512 acc[8][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31},
                            {c40, c41}, {c50, c51}, {c60, c61}, {c70, c71}};
  for (int r = 0; r < rows; ++r) {
    StoreRow16<kNV>(c + static_cast<size_t>(r) * ldc, m0, m1, acc[r][0],
                    acc[r][1]);
  }
}

struct Avx2Tile {
  static constexpr int kMR = 4;
  static constexpr int kNR = 16;
  static constexpr bool kPacksColumnTail = true;
  static constexpr MicroKernelFn kKernel = MicroKernel4x16;
};

template <int kNV>
struct Avx512Tile {
  static constexpr int kMR = 8;
  static constexpr int kNR = 16 * kNV;
  static constexpr bool kPacksColumnTail = false;
  static constexpr MicroKernelFn kKernel = MicroKernel8x16V<kNV>;
};

/// Packs the kc x `cols` block of op(B) at (k0, j0) into a zero-padded
/// kc x nr panel, k-major.
DJ_NOALLOC void PackBPanel(Variant variant, const float* b, int ldb, int k0,
                           int kc, int j0, int cols, int nr, float* out) {
  for (int p = 0; p < kc; ++p) {
    float* dst = out + static_cast<size_t>(p) * nr;
    if (variant == Variant::kNT) {
      for (int j = 0; j < cols; ++j) {
        dst[j] = b[static_cast<size_t>(j0 + j) * ldb + k0 + p];
      }
    } else {
      const float* src = b + static_cast<size_t>(k0 + p) * ldb + j0;
      for (int j = 0; j < cols; ++j) dst[j] = src[j];
    }
    for (int j = cols; j < nr; ++j) dst[j] = 0.0f;
  }
}

/// Blocked GEMM loop nest for both microkernels. Per KC block and kNR-column
/// panel of op(B), every kMR-row panel of op(A) runs through the
/// microkernel while the B panel stays in L1. A is always read in place.
/// A B panel is packed into a stack buffer for NT (B^T is
/// column-strided) and, for a tile that cannot mask its loads, for the
/// narrower last panel; it is read in place otherwise.
template <typename Tile>
DJ_NOALLOC void SgemmBlocked(Variant variant, int m, int n, int k,
                             const float* a, int lda, const float* b, int ldb,
                             float* c, int ldc) {
  constexpr int kMR = Tile::kMR;
  constexpr int kNR = Tile::kNR;
  // op(A)(i, p) = a[i * a_row + p * a_step].
  const size_t a_row = variant == Variant::kTN ? 1 : static_cast<size_t>(lda);
  const int a_step = variant == Variant::kTN ? lda : 1;
  // PackBPanel writes all kc x kNR values before the microkernel reads any.
  alignas(64) float pack[kKC * kNR];
  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    for (int j0 = 0; j0 < n; j0 += kNR) {
      const int cols = std::min(kNR, n - j0);
      const float* bp = b + static_cast<size_t>(k0) * ldb + j0;
      int ldbp = ldb;
      if (variant == Variant::kNT || (Tile::kPacksColumnTail && cols < kNR)) {
        PackBPanel(variant, b, ldb, k0, kc, j0, cols, kNR, pack);
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
        Tile::kKernel(kc, ar, a_step, bp, ldbp,
                      c + static_cast<size_t>(i0) * ldc + j0, ldc, rows, cols);
      }
    }
  }
}

#endif  // DJ_KERNELS_X86

void SgemmDispatch(Variant variant, int m, int n, int k, const float* a,
                   int lda, const float* b, int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
#if DJ_KERNELS_X86
  switch (ActiveGemmPath()) {
    case GemmPath::kAvx512:
      // One-vector panels for narrow B (the per-head context GEMM, n =
      // d_head = 16), where the 8x32 tile would run half empty.
      if (n <= 16) {
        SgemmBlocked<Avx512Tile<1>>(variant, m, n, k, a, lda, b, ldb, c, ldc);
      } else {
        SgemmBlocked<Avx512Tile<2>>(variant, m, n, k, a, lda, b, ldb, c, ldc);
      }
      return;
    case GemmPath::kAvx2:
      SgemmBlocked<Avx2Tile>(variant, m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case GemmPath::kScalar:
      break;
  }
#endif
  SgemmScalar(variant, m, n, k, a, lda, b, ldb, c, ldc);
}

/// Zeroes `rows` rows of `cols` floats, ld apart.
void ZeroRows(int rows, int cols, float* c, int ld) {
  for (int i = 0; i < rows; ++i) {
    std::memset(c + static_cast<size_t>(i) * ld, 0,
                sizeof(float) * static_cast<size_t>(cols));
  }
}

// ---------------------------------------------------------------------------
// AMX-BF16 linear
// ---------------------------------------------------------------------------

constexpr int kAmxRows = 16;   // tile rows (M) and B tile rows (K / 2)
constexpr int kAmxK = 32;      // bf16 values per A tile row
constexpr int kAmxN = 32;      // output columns per pair of C tiles
constexpr int kAmxBTile = kAmxRows * kAmxK;  // u16 per B tile

int RoundUp(int v, int to) { return (v + to - 1) / to * to; }

/// float -> bf16, round to nearest even (inputs are finite).
inline u16 ToBf16(float f) {
  u32 u;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<u16>(u >> 16);
}

#if DJ_KERNELS_X86

// Tile registers: 0-3 accumulate a 32 x 32 output block, 4-5 hold two
// 16-row A tiles, 6-7 two 16-column B tiles. Every tile is 16 rows of 64
// bytes; padding makes every shape fit.
struct alignas(64) AmxTileConfig {
  u8 palette = 1;
  u8 start_row = 0;
  u8 reserved[14] = {};
  u16 colsb[16] = {64, 64, 64, 64, 64, 64, 64, 64};
  u8 rows[16] = {16, 16, 16, 16, 16, 16, 16, 16};
};

__attribute__((target("amx-tile")))
void AmxLoadConfig(const AmxTileConfig* config) { _tile_loadconfig(config); }

__attribute__((target("amx-tile")))
void AmxRelease() { _tile_release(); }

bool AmxPermissionOnce() {
  if (!__builtin_cpu_supports("amx-tile") ||
      !__builtin_cpu_supports("amx-bf16") ||
      !__builtin_cpu_supports("avx512f")) {
    return false;
  }
  // Linux gates tile data per process: ARCH_REQ_XCOMP_PERM (0x1023) for
  // XFEATURE_XTILEDATA (18). A refusal leaves the FP32 path in charge.
  return syscall(SYS_arch_prctl, 0x1023, 18) == 0;
}

/// Rounds the first `valid` floats at x to bf16 (ToBf16 on 16 lanes) and
/// stores 16 values (zeros past `valid`).
__attribute__((target("avx512f")))
inline void Bf16Store16(const float* x, int valid, u16* dst) {
  const __m512i u =
      _mm512_castps_si512(_mm512_maskz_loadu_ps(Mask16(valid), x));
  const __m512i lsb = _mm512_and_si512(_mm512_maskz_srli_epi32(kAll16, u, 16),
                                       _mm512_set1_epi32(1));
  const __m512i r = _mm512_add_epi32(
      u, _mm512_add_epi32(lsb, _mm512_set1_epi32(0x7FFF)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm512_maskz_cvtepi32_epi16(
                          kAll16, _mm512_maskz_srli_epi32(kAll16, r, 16)));
}

/// Bias, optional GELU and the store of one row of up to 32 outputs.
__attribute__((target("avx512f")))
inline void AmxStoreRow(const float* acc, const float* bias, bool gelu,
                        int cols, float* y) {
  for (int h = 0; h < kAmxN && h < cols; h += 16) {
    const __mmask16 m = Mask16(cols - h);
    __m512 v = _mm512_add_ps(_mm512_loadu_ps(acc + h),
                             _mm512_maskz_loadu_ps(m, bias + h));
    if (gelu) v = Gelu16(v);
    _mm512_mask_storeu_ps(y + h, m, v);
  }
}

/// One 16- or 32-row block (kTwo: two A tiles) against every 32-column
/// pair of B tiles.
template <bool kTwo>
__attribute__((target("amx-tile,amx-bf16,avx512f,avx2,fma")))
void AmxRowBlock(int rows, int n, int kp, const u16* xa, const u16* packed,
                 const float* bias, bool gelu, float* y, int ldy) {
  alignas(64) float acc[2 * kAmxRows][kAmxN];
  const int kblocks = kp / kAmxK;
  const size_t a_stride = static_cast<size_t>(kp) * sizeof(u16);
  const u16* xb = xa + static_cast<size_t>(kAmxRows) * kp;
  for (int j0 = 0; j0 < n; j0 += kAmxN) {
    const u16* bp = packed + static_cast<size_t>(j0 / kAmxN) * kblocks * 2 *
                                 kAmxBTile;
    _tile_zero(0);
    _tile_zero(1);
    if constexpr (kTwo) {
      _tile_zero(2);
      _tile_zero(3);
    }
    for (int kb = 0; kb < kblocks; ++kb) {
      _tile_loadd(4, xa + kb * kAmxK, a_stride);
      _tile_loadd(6, bp, 64);
      _tile_loadd(7, bp + kAmxBTile, 64);
      _tile_dpbf16ps(0, 4, 6);
      _tile_dpbf16ps(1, 4, 7);
      if constexpr (kTwo) {
        _tile_loadd(5, xb + kb * kAmxK, a_stride);
        _tile_dpbf16ps(2, 5, 6);
        _tile_dpbf16ps(3, 5, 7);
      }
      bp += 2 * kAmxBTile;
    }
    _tile_stored(0, &acc[0][0], sizeof(acc[0]));
    _tile_stored(1, &acc[0][16], sizeof(acc[0]));
    if constexpr (kTwo) {
      _tile_stored(2, &acc[16][0], sizeof(acc[0]));
      _tile_stored(3, &acc[16][16], sizeof(acc[0]));
    }
    const int cols = std::min(kAmxN, n - j0);
    for (int r = 0; r < rows; ++r) {
      AmxStoreRow(acc[r], bias + j0, gelu, cols,
                  y + static_cast<size_t>(r) * ldy + j0);
    }
  }
}

__attribute__((target("amx-tile,amx-bf16,avx512f,avx2,fma")))
void AmxLinearImpl(int m, int n, int k, const float* x, int ldx,
                   const u16* packed, const float* bias, bool gelu, u16* xbuf,
                   float* y, int ldy) {
  const int kp = RoundUp(k, kAmxK);
  const int mp = RoundUp(m, kAmxRows);
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<size_t>(i) * ldx;
    u16* dst = xbuf + static_cast<size_t>(i) * kp;
    for (int p = 0; p < kp; p += 16) Bf16Store16(xr + p, k - p, dst + p);
  }
  std::memset(xbuf + static_cast<size_t>(m) * kp, 0,
              sizeof(u16) * static_cast<size_t>(mp - m) * kp);
  for (int i0 = 0; i0 < m; i0 += 2 * kAmxRows) {
    const int rows = std::min(2 * kAmxRows, m - i0);
    const u16* xa = xbuf + static_cast<size_t>(i0) * kp;
    float* yr = y + static_cast<size_t>(i0) * ldy;
    if (rows > kAmxRows) {
      AmxRowBlock<true>(rows, n, kp, xa, packed, bias, gelu, yr, ldy);
    } else {
      AmxRowBlock<false>(rows, n, kp, xa, packed, bias, gelu, yr, ldy);
    }
  }
}

#endif  // DJ_KERNELS_X86

bool AmxAvailableOnce() {
#if DJ_KERNELS_X86
  return AmxPermissionOnce();
#else
  return false;
#endif
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
  g_pinned_avx2_gemm.store(false, std::memory_order_relaxed);
}

GemmPath ActiveGemmPath() {
  if (ActiveTier() == Tier::kScalar) return GemmPath::kScalar;
  if (g_pinned_avx2_gemm.load(std::memory_order_relaxed) || !HasAvx512Gemm()) {
    return GemmPath::kAvx2;
  }
  return GemmPath::kAvx512;
}

const char* GemmPathName(GemmPath path) {
  switch (path) {
    case GemmPath::kAvx512: return "avx512-8x32";
    case GemmPath::kAvx2: return "avx2-4x16";
    case GemmPath::kScalar: break;
  }
  return "scalar";
}

void PinAvx2GemmForTest() {
  g_pinned_avx2_gemm.store(true, std::memory_order_relaxed);
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
    SoftmaxAvx2(n, x, 1.0f, mask, out);
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

void Linear(int m, int n, int k, const float* x, int ldx, const float* w,
            const float* bias, bool gelu, float* y, int ldy) {
  ZeroRows(m, n, y, ldy);
  SgemmDispatch(Variant::kNN, m, n, k, x, ldx, w, n, y, ldy);
  const bool avx2 = ActiveTier() == Tier::kAvx2;
  for (int i = 0; i < m; ++i) {
    float* row = y + static_cast<size_t>(i) * ldy;
#if DJ_KERNELS_X86
    if (avx2) {
      AxpyAvx2(n, 1.0f, bias, row);
      if (gelu) GeluTanhAvx2(n, row, row);
      continue;
    }
#endif
    AxpyScalar(n, 1.0f, bias, row);
    if (gelu) GeluTanhScalar(n, row, row);
  }
}

void Attention(int L, int dh, const float* q, const float* k, const float* v,
               int ld, float scale, const float* bias, float* scores, int lds,
               float* out, int ldo) {
#if DJ_KERNELS_X86
  if (ActiveGemmPath() == GemmPath::kAvx512 && L <= 64 && dh <= 16) {
    using Fn = void (*)(int, int, const float*, const float*, const float*,
                        int, float, const float*, float*, int);
    static constexpr Fn kByWidth[] = {AttentionAvx512<1>, AttentionAvx512<2>,
                                      AttentionAvx512<3>, AttentionAvx512<4>};
    kByWidth[(L - 1) / 16](L, dh, q, k, v, ld, scale, bias, out, ldo);
    return;
  }
#endif
  ZeroRows(L, L, scores, lds);
  SgemmDispatch(Variant::kNT, L, L, dh, q, ld, k, ld, scores, lds);
  const bool avx2 = ActiveTier() == Tier::kAvx2;
  for (int i = 0; i < L; ++i) {
    float* row = scores + static_cast<size_t>(i) * lds;
    const float* brow = bias != nullptr ? bias + (L - 1 - i) : nullptr;
#if DJ_KERNELS_X86
    if (avx2) {
      SoftmaxAvx2(L, row, scale, brow, row);
      continue;
    }
#endif
    ScaleAddScalar(L, scale, row, 0.0f, row);
    if (brow != nullptr) AxpyScalar(L, 1.0f, brow, row);
    SoftmaxScalar(L, row, nullptr, row);
  }
  ZeroRows(L, dh, out, ldo);
  SgemmDispatch(Variant::kNN, L, dh, L, scores, lds, v, ld, out, ldo);
}

float LayerNorm(int n, const float* x, const float* gamma, const float* beta,
                float eps, float* xhat, float* out) {
#if DJ_KERNELS_X86
  if (ActiveTier() == Tier::kAvx2) {
    return LayerNormAvx2(n, x, gamma, beta, eps, xhat, out);
  }
#endif
  return LayerNormScalar(n, x, gamma, beta, eps, xhat, out);
}

bool AmxLinearAvailable() {
  static const bool available = AmxAvailableOnce();
  return available;
}

bool AmxLinearActive() {
  return g_forced_tier.load(std::memory_order_relaxed) == 0 &&
         DetectedTier() == Tier::kAvx2 && AmxLinearAvailable();
}

const char* LinearPathName() {
  return AmxLinearActive() ? "amx-bf16" : "fp32";
}

size_t AmxPackedWeightSize(int k, int n) {
  return static_cast<size_t>(RoundUp(k, kAmxK)) * RoundUp(n, kAmxN);
}

size_t AmxActivationSize(int m, int k) {
  return static_cast<size_t>(RoundUp(m, kAmxRows)) * RoundUp(k, kAmxK);
}

void AmxPackWeight(int k, int n, const float* w, u16* packed) {
  const int kblocks = RoundUp(k, kAmxK) / kAmxK;
  const int ntiles = RoundUp(n, kAmxN) / 16;
  // B tile t of k-block kb: row r holds the pairs (w[2r][c], w[2r+1][c])
  // for its 16 columns c, k counted from kb * 32.
  for (int t = 0; t < ntiles; ++t) {
    for (int kb = 0; kb < kblocks; ++kb) {
      u16* tile = packed + (static_cast<size_t>(t / 2) * kblocks + kb) * 2 *
                               kAmxBTile + (t % 2) * kAmxBTile;
      for (int r = 0; r < kAmxRows; ++r) {
        for (int c = 0; c < 16; ++c) {
          for (int e = 0; e < 2; ++e) {
            const int kk = kb * kAmxK + 2 * r + e, nn = t * 16 + c;
            tile[r * kAmxK + 2 * c + e] =
                kk < k && nn < n ? ToBf16(w[static_cast<size_t>(kk) * n + nn])
                                 : 0;
          }
        }
      }
    }
  }
}

void AmxBegin() {
#if DJ_KERNELS_X86
  static const AmxTileConfig config;
  AmxLoadConfig(&config);
#endif
}

void AmxEnd() {
#if DJ_KERNELS_X86
  AmxRelease();
#endif
}

void AmxLinear(int m, int n, int k, const float* x, int ldx,
               const u16* packed, const float* bias, bool gelu, u16* xbuf,
               float* y, int ldy) {
#if DJ_KERNELS_X86
  AmxLinearImpl(m, n, k, x, ldx, packed, bias, gelu, xbuf, y, ldy);
#else
  DJ_CHECK_MSG(false, "AmxLinear needs an x86-64 build");
#endif
}

}  // namespace kern
}  // namespace deepjoin
