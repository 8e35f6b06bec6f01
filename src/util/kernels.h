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
// The AMX linear (AmxLinear, inference only) is the one kernel that does
// not compute its tier's FP32 chain. It runs the transformer workspace
// forward's six per-layer linears on AMX-BF16 tiles when AmxLinearActive():
// the DETECTED tier is kAvx2, no tier is forced (ForceTierForTest), the
// host has amx-tile + amx-bf16 + avx512f, and the one-time per-process
// arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA) request succeeded. Anything
// else (a failed check, a refused request, a forced tier) silently keeps
// the FP32 GEMM; nothing aborts, and there is no switch to flip. It is not
// a tier because nothing else changes: every other kernel, training
// (the autograd graph), TransformerEncoder::Encode and every forced tier
// stay on the FP32 contract, and TierName stays "avx2+fma". What it
// changes is the embedding's numeric contract, bounded under "bf16
// contract" below; an index and its queries must be encoded through the
// same path (they are whenever both are encoded on one host).
//
// Determinism contract (DESIGN.md §8): every kernel has a FIXED, documented
// reduction order per tier. kernels.cc compiles with -ffp-contract=off, so
// an FMA happens only where a kernel calls one: "unfused" below means two
// roundings in the compiled code too. Two calls with the same inputs in
// the same tier return bit-identical results — regardless of pointer
// alignment, leading dimensions, blocking, or how callers partition rows
// across threads.
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
//  * Attention, both tiers: exactly the unfused chain, per head: S = 0 +
//    SgemmNT(Q_h, K_h); per row ScaleAdd(scale, beta 0), Axpy(1, bias
//    slice) when a bias row is given, Softmax (no mask); then ctx_h = 0 +
//    SgemmNN(P, V_h). The AVX2 tier folds the scale and the bias add into
//    Softmax's first pass (v = x*scale + b: the same two roundings). On
//    kAvx512 with L <= 64 and d_head <= 16, a register-resident kernel
//    keeps each score row in zmm registers from the QK^T chain through the
//    softmax, with every value taking the chain's operations (its exp is
//    Exp8 per lane on 16 lanes, its sum adds 8-lane halves in order); the
//    result is the chain's, bit for bit (kernels_test, L = 1..80, both
//    position modes, every GEMM path).
//  * LayerNorm, scalar tier: mean = sum x[j] in double, j ascending, / n;
//    var = sum (x[j] - mean)^2 in double, j ascending, / n; is =
//    float(1/sqrt(var + eps)); h = (x[j] - float(mean)) * is (float, two
//    roundings); out = gamma*h + beta (unfused).
//  * LayerNorm, AVX2 tier: x widened to double; the sum and the squared
//    deviations each run in two 4-lane double accumulators (acc0 takes
//    elements [8t, 8t+4), acc1 [8t+4, 8t+8); tail lanes add 0), reduced
//    as (a0+a2)+(a1+a3) over a = acc0+acc1; var's terms are fma(d, d,
//    acc). is, float(mean) and h as in the scalar tier; out =
//    fma(gamma, h, beta) (one rounding). kernels_test bounds out within
//    2e-6 * (1 + |ref|) of a double reference for n in {8..256}.
//  * bf16 contract (AmxLinear only): activations and weights are rounded
//    to bf16 (round to nearest even) and multiplied on AMX tiles with
//    FP32 accumulation (tdpbf16ps: per 2-element pair, an order the ISA
//    leaves to the hardware), then the bias is added in float and the
//    AVX2 tier's GELU formula applied. Per output, |y - y_fp32| <=
//    kBf16LinearAbsTol + kBf16LinearRelTol * sum_p |x_p * w_p| (the
//    relative part is two bf16 roundings, 2 * 2^-9, with margin;
//    kernels_test checks it on padded shapes). Through the encoder (two
//    layers, LayerNorm renormalising), every encoder_probe embedding is
//    within kBf16EmbeddingAbsTol of its FP32 value with cosine at least
//    kBf16EmbeddingMinCosine (ctest encoder_probe_amx_vs_fp32); measured
//    on its 2688 values: max |diff| 1.2e-4, min cosine 0.99999998. The
//    result is deterministic and depends on a row's own values only:
//    batching, threads and call order do not change it.
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

// ---- Transformer ops ------------------------------------------------------

/// FP32 linear: y[m,n] = x[m,k] @ w[k,n] + bias, then GELU when `gelu`.
/// Exactly the chain of SgemmNN into zeroed rows, Axpy(1, bias) per row
/// and GeluTanh, so it matches autograd's MatMul + AddRowVector (+ Gelu).
/// w is row-major with leading dimension n; y must not alias x.
DJ_NOALLOC void Linear(int m, int n, int k, const float* x, int ldx,
                       const float* w, const float* bias, bool gelu, float* y,
                       int ldy);

/// One attention head over L tokens: out = softmax(scale * Q K^T + B) V.
/// q, k and v point at the head's first column of [L, ld] matrices and the
/// head is dh wide. `bias`, when non-null, holds 2L - 1 values: row i adds
/// bias[L - 1 - i + j] at column j (the relative bias depends on j - i
/// only). `scores` is caller scratch of L rows (lds >= L). Writes the
/// [L, dh] context at out (ldo apart) without reading it.
DJ_NOALLOC void Attention(int L, int dh, const float* q, const float* k,
                          const float* v, int ld, float scale,
                          const float* bias, float* scores, int lds,
                          float* out, int ldo);

/// LayerNorm of one row with learned gain/bias. Writes the normalised row
/// to `xhat` when non-null (the backward caches it) and returns the
/// inverse stddev. x == out is allowed.
DJ_NOALLOC float LayerNorm(int n, const float* x, const float* gamma,
                           const float* beta, float eps, float* xhat,
                           float* out);

// ---- AMX-BF16 linear (inference only; see the dispatch note above) ------

/// Host support and a granted tile-data permission, ignoring any forced
/// tier. Decides whether a workspace keeps bf16 weight copies at all.
bool AmxLinearAvailable();
/// AmxLinearAvailable() and the unforced detected tier is kAvx2: the
/// workspace forward then runs its linears on AmxLinear.
bool AmxLinearActive();
/// The linear path the workspace forward takes now: "amx-bf16" or "fp32".
const char* LinearPathName();

/// u16 elements of a [k, n] weight's bf16 VNNI copy and of the bf16 tile
/// buffer for an [m, k] activation (both zero-padded: rows to 16, k to 32,
/// n to 32).
size_t AmxPackedWeightSize(int k, int n);
size_t AmxActivationSize(int m, int k);
/// Rounds the row-major [k, n] weight w to bf16 and lays it out as AMX B
/// tiles (pairs of 16-column tiles, k-blocks of 32 consecutive).
DJ_NOALLOC void AmxPackWeight(int k, int n, const float* w, u16* packed);
/// Loads the tile configuration AmxLinear uses on this thread, and
/// releases the tiles again; one pair brackets each forward.
DJ_NOALLOC void AmxBegin();
DJ_NOALLOC void AmxEnd();
/// y[m,n] = bf16(x) @ packed + bias, then GELU when `gelu` (bias and GELU
/// applied as each output tile is stored). `xbuf` holds
/// AmxActivationSize(m, k) u16. Call between AmxBegin and AmxEnd, and only
/// when AmxLinearActive().
DJ_NOALLOC void AmxLinear(int m, int n, int k, const float* x, int ldx,
                          const u16* packed, const float* bias, bool gelu,
                          u16* xbuf, float* y, int ldy);
/// The bf16 contract's bounds (the "bf16 contract" entry above).
inline constexpr float kBf16LinearAbsTol = 1e-6f;
inline constexpr float kBf16LinearRelTol = 1.0f / 128.0f;
inline constexpr float kBf16EmbeddingAbsTol = 2e-3f;
inline constexpr double kBf16EmbeddingMinCosine = 0.9999;

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
