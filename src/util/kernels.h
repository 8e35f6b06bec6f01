// Runtime-dispatched compute kernels — the single home for SIMD in this
// tree (enforced by dj_lint rule `simd-intrinsics`). Every hot float loop
// in the repo (GEMM for training/inference, L2 distances for ANN search,
// axpy/scale for autograd, GELU/softmax for the transformer) routes
// through this API.
//
// Dispatch: one of two tiers is selected once, at first use, via cpuid:
//   kAvx2   — AVX2 + FMA vector paths (x86-64 with both features)
//   kScalar — portable scalar fallback (also forced by setting the
//             environment variable DJ_FORCE_SCALAR_KERNELS=1, for parity
//             testing and for reproducing results across machines)
// Tests may pin the tier in-process with ForceTierForTest().
// A tier names a numeric contract, not the widest ISA its kernels use:
// within kAvx2, Sgemm* runs a 16-lane AVX-512 microkernel on hosts with
// avx512f (GemmPath::kAvx512) and the 8-lane one elsewhere. Both compute
// the kAvx2 chain below, bit for bit, so TierName still says "avx2+fma".
//
// Determinism contract (DESIGN.md §8): every kernel has a FIXED, documented
// reduction order per tier. Two calls with the same inputs in the same tier
// return bit-identical results — regardless of pointer alignment, leading
// dimensions, blocking, or how callers partition rows across threads.
// Results may differ in low-order bits BETWEEN tiers (the AVX2 tier uses
// fused multiply-add and multi-lane reduction trees); anything that must be
// reproducible across machines should pin the scalar tier.
//
// Reduction orders:
//  * Dot / SquaredL2, scalar tier: one sequential accumulator over i
//    ascending, unfused (`acc = acc + a[i]*b[i]` — two roundings).
//  * Dot / SquaredL2, AVX2 tier: two 8-lane FMA accumulators acc0/acc1 fed
//    by interleaved 16-element blocks (acc0 takes lanes [16t, 16t+8),
//    acc1 takes [16t+8, 16t+16)); one optional extra 8-element block into
//    acc0; lanewise acc = acc0 + acc1; horizontal sum in the fixed order
//    ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); then the <8 tail folded in
//    sequentially with std::fma.
//  * Sgemm{NN,NT,TN}, both tiers: each C(i,j) is a single chain over k —
//    seeded at 0 per KC-sized k-block (KC = 256), k ascending within the
//    block (AVX2: one FMA per step; scalar: unfused multiply-add), block
//    sums added into C in ascending block order. The chain never depends
//    on the variant, tile position, vector width (the 8-lane and 16-lane
//    microkernels of the AVX2 tier give the same bits: an FMA rounds the
//    same in any lane) or m/n partitioning, which is what makes
//    row-parallel GEMM bit-identical to serial.
//  * Axpy (y += a*x) and ScaleAdd (y = a*x + b*y): elementwise; AVX2 uses
//    fma(a, x, y) resp. fma(b, y, a*x), scalar keeps separate roundings.
//    With a == 1, Axpy is an exact add in both tiers (1*x is exact), so
//    pure additions stay bit-identical across tiers. ScaleAdd with b == 0
//    writes a*x without reading y (safe on uninitialised y). ScaleAdd with
//    b == 1 is y + fl(a*x) in both tiers (AVX2: fma(1, y, a*x); scalar:
//    a*x + 1*y; 1*y is exact), i.e. the two roundings of a scalar
//    `y += x*a` loop, bit-identical across tiers.
//  * SquaredL2Sq8 (asymmetric: float query vs SQ8 codes), scalar tier: one
//    sequential accumulator over i ascending; per element the decode is
//    unfused (t = scale[i]*codes[i]; v = lo[i]+t — two roundings), then
//    d = q[i]-v and acc = acc + d*d (unfused).
//  * SquaredL2Sq8, AVX2 tier: same two-accumulator interleaved-16 shape as
//    SquaredL2 (acc0 takes lanes [16t, 16t+8), acc1 [16t+8, 16t+16); one
//    optional extra 8-block into acc0). Per 8-lane block the codes are
//    widened u8 -> i32 -> float (exact for values <= 255), decoded with a
//    single FMA v = fma(scale, code, lo), then d = q - v and
//    acc = fma(d, d, acc). Horizontal sum in the same fixed order
//    ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); the <8 tail folds in
//    sequentially with std::fma for both the decode and the accumulate.
//  * GeluTanh, scalar tier: per element, with c = kGeluC,
//    t = std::tanh(c * (v + 0.044715f*v*v*v)) and out = 0.5f*v*(1.0f + t),
//    products left to right, every operation rounded separately.
//  * GeluTanh, AVX2 tier: elementwise, so a value's result does not depend
//    on its lane or on n. z = c * (v + ((0.044715f*v)*v)*v) unfused, then
//    tanh(z) = 1 - 2/(e^{2z} + 1) with an IEEE divide and Exp8 below, then
//    out = (0.5f*v) * (1 + t). The tail (< 8 values) runs the same vector
//    code under Mask8.
//  * Softmax, scalar tier: v[j] = x[j] (+ mask[j]); max over j ascending
//    seeded at -1e30f; e[j] = std::exp(v[j] - max); sum accumulated in
//    double, j ascending; inv = float(1.0/sum); out[j] = e[j] * inv.
//  * Softmax, AVX2 tier: same max (order-free) and the same v - max;
//    e = Exp8(v - max); the sum is one 8-lane float accumulator over
//    8-blocks ascending (masked tail lanes add 0), reduced in the fixed
//    order ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); inv = 1.0f/sum (float);
//    out = e * inv.
//  * Exp8 (internal to the AVX2 tier, Cephes style): inputs clamped to
//    [-87.33654f, 88.0f]; n = round-to-nearest(x*log2e); r = x - n*C1 -
//    n*C2 (C1 + C2 = ln 2, one FMA each); degree-5 polynomial p(r) by
//    Horner FMAs; e^r = fma(p, r*r, r) + 1; times 2^n built by an exponent
//    add. Inputs below -87.33654f (about ln 2^-126) return exactly 0.
//    Relative error is a few ulp. Measured cross-tier gaps: GELU and
//    softmax within 3e-7 of double references in both tiers
//    (kernels_test bounds them at 1e-6 and 5e-7), encoder outputs within
//    2.1e-7 of each other (tools/encoder_probe; ctest bounds it at 1e-4).
//
// Alignment: kernels never REQUIRE alignment (all loads/stores are
// unaligned ops); nn::Matrix guarantees 64-byte-aligned storage so the
// common case runs on aligned addresses anyway.
#ifndef DEEPJOIN_UTIL_KERNELS_H_
#define DEEPJOIN_UTIL_KERNELS_H_

#include <cstddef>
#include <new>

#include "util/alloc_guard.h"
#include "util/common.h"

namespace deepjoin {
namespace kern {

enum class Tier { kScalar, kAvx2 };

/// The tier every kernel call dispatches on: the forced-for-test tier if
/// set, else the detected one. Detection runs once (cpuid + the
/// DJ_FORCE_SCALAR_KERNELS environment variable) and is then cached.
Tier ActiveTier();

/// What the hardware (plus DJ_FORCE_SCALAR_KERNELS) supports, ignoring any
/// ForceTierForTest override.
Tier DetectedTier();

const char* TierName(Tier tier);

/// Test hook: pin the dispatch tier in-process. Forcing kAvx2 on hardware
/// without AVX2+FMA is a checked error. Not thread-safe against concurrent
/// kernel calls — flip tiers only between test phases.
void ForceTierForTest(Tier tier);
/// Clears ForceTierForTest and PinAvx2GemmForTest.
void ClearForcedTierForTest();

/// The microkernel Sgemm* runs on. kAvx512 is not a tier: it computes the
/// kAvx2 tier's documented chain on 16-lane registers, so every result is
/// bit-identical to kAvx2's. It is chosen whenever the active tier is
/// kAvx2 and the host has avx512f.
enum class GemmPath { kScalar, kAvx2, kAvx512 };
GemmPath ActiveGemmPath();
const char* GemmPathName(GemmPath path);

/// Test hook: pin the kAvx2 tier's GEMM to its 8-lane 4x16 microkernel on
/// hosts that also have avx512f, so tests can compare the two paths.
void PinAvx2GemmForTest();

// Every kernel below is DJ_NOALLOC: pure loops over caller-owned buffers
// (the contract tools/dj_alloc verifies across both dispatch tiers).

/// sum_i a[i]*b[i]
DJ_NOALLOC float Dot(const float* a, const float* b, int n);

/// sum_i (a[i]-b[i])^2
DJ_NOALLOC float SquaredL2(const float* a, const float* b, int n);

/// Fused asymmetric SQ8 distance: sum_i (q[i] - (lo[i] + scale[i] *
/// codes[i]))^2. The quantized row is decoded lane-by-lane inside the
/// accumulation loop (never materialised), which is what lets quantized
/// search run without a per-row decompress buffer.
DJ_NOALLOC float SquaredL2Sq8(const float* q, const u8* codes,
                              const float* lo, const float* scale, int n);

/// y[i] += alpha * x[i]
DJ_NOALLOC void Axpy(int n, float alpha, const float* x, float* y);

/// y[i] = alpha * x[i] + beta * y[i]; beta == 0 never reads y (so y may be
/// uninitialised), and x == y aliasing is allowed.
DJ_NOALLOC void ScaleAdd(int n, float alpha, const float* x, float beta,
                         float* y);

inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

/// out[i] = GELU(x[i]), tanh approximation (BERT's variant):
/// 0.5*v*(1 + tanh(sqrt(2/pi)*(v + 0.044715*v^3))). x == out is allowed.
DJ_NOALLOC void GeluTanh(int n, const float* x, float* out);

/// Numerically stable softmax over one row of n scores; `mask`, if
/// non-null, is added to x first. x == out is allowed.
DJ_NOALLOC void Softmax(int n, const float* x, const float* mask,
                        float* out);

// Blocked single-precision GEMM, accumulating: C += op(A) @ op(B).
// All matrices are row-major with explicit leading dimensions (so callers
// can run on sub-views, e.g. per-head column slices, without copies).
//   NN: A is [m,k] (lda >= k), B is [k,n] (ldb >= n)
//   NT: A is [m,k] (lda >= k), B is [n,k] (ldb >= k)  — C += A @ B^T
//   TN: A is [k,m] (lda >= m), B is [k,n] (ldb >= n)  — C += A^T @ B
// C is [m,n] (ldc >= n) and must not alias A or B.
// The AVX2 tier reads A and NN/TN panels of B in place and packs NT
// panels (B^T is column-strided) into a stack buffer. Its 16-lane
// microkernel (8x32 tiles, 8x16 when n <= 16) reads column tails with
// masked loads; the 8-lane one (4x16 tiles) packs the last,
// narrower-than-16 panel into the zero-padded stack buffer instead. The
// scalar tier's thread-local accumulator strip grows to the widest n seen
// and then reuses capacity (DJ_NOALLOC steady state).
DJ_NOALLOC void SgemmNN(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);
DJ_NOALLOC void SgemmNT(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);
DJ_NOALLOC void SgemmTN(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc);

/// Minimal aligned allocator so nn::Matrix (and kernel tests) can keep
/// rows on cache-line boundaries. Value-initialises like std::allocator.
template <typename T, size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two >= alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    // Placement-form operator new is the ownership-explicit aligned
    // allocation primitive; deallocate() below is its paired release.
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

}  // namespace kern
}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_KERNELS_H_
