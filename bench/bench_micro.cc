// Micro-benchmarks (google-benchmark) over the library's hot kernels:
// column encoding, ANN search, exact search, sketching and training steps.
// These complement the table harnesses: they isolate per-component cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench/common.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "util/kernels.h"
#include "util/metrics.h"

namespace deepjoin {
namespace {

using bench::BenchConfig;
using bench::BenchEnv;

BenchEnv& SharedEnv() {
  static BenchEnv* env = [] {
    BenchConfig cfg;
    cfg.repo_size = 2000;
    cfg.sample_size = 200;
    cfg.num_queries = 10;
    return std::make_unique<BenchEnv>(cfg).release();
  }();
  return *env;
}

// ---- Kernel-layer benchmarks (util/kernels.h) ------------------------------
// The trailing benchmark arg selects the dispatch tier: 0 = scalar,
// 1 = avx2+fma (skipped when the host lacks it). tools/bench_snapshot.sh
// records both so BENCH_micro.json always carries the scalar/SIMD ratio.

bool PinTier(benchmark::State& state, std::int64_t tier_arg) {
  if (tier_arg == 1 && kern::DetectedTier() != kern::Tier::kAvx2) {
    state.SkipWithError("avx2 tier unavailable on this host");
    return false;
  }
  kern::ForceTierForTest(tier_arg == 1 ? kern::Tier::kAvx2
                                       : kern::Tier::kScalar);
  return true;
}

// The GEMM and encoder benchmarks take a GEMM path instead: 0 = scalar,
// 1 = avx2+fma on the 8-lane 4x16 microkernel, 2 = the same tier on the
// 16-lane 8x32 AVX-512 microkernel (skipped when the host lacks it). The
// encoder benchmarks also take 3 = the unforced detected tier with the
// AMX-BF16 linear (skipped where kern::AmxLinearActive() is false).
bool PinGemmPath(benchmark::State& state, std::int64_t path_arg) {
  if (path_arg == 3) {
    kern::ClearForcedTierForTest();
    if (!kern::AmxLinearActive()) {
      state.SkipWithError("AMX-BF16 linear unavailable on this host");
      return false;
    }
    state.SetLabel(kern::LinearPathName());
    return true;
  }
  if (!PinTier(state, path_arg == 0 ? 0 : 1)) return false;
  if (path_arg == 1) kern::PinAvx2GemmForTest();
  if (path_arg == 2 && kern::ActiveGemmPath() != kern::GemmPath::kAvx512) {
    kern::ClearForcedTierForTest();
    state.SkipWithError("avx512 GEMM path unavailable on this host");
    return false;
  }
  state.SetLabel(kern::GemmPathName(kern::ActiveGemmPath()));
  return true;
}

std::vector<float> BenchVector(int n, int salt) {
  std::vector<float> v(static_cast<size_t>(n));
  Rng rng(static_cast<u64>(salt));
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

void BM_KernelDot(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  if (!PinTier(state, state.range(1))) return;
  const auto a = BenchVector(dim, 1);
  const auto b = BenchVector(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::Dot(a.data(), b.data(), dim));
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_KernelDot)->ArgsProduct({{32, 48, 64, 128}, {0, 1}});

void BM_KernelSquaredL2(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  if (!PinTier(state, state.range(1))) return;
  const auto a = BenchVector(dim, 3);
  const auto b = BenchVector(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::SquaredL2(a.data(), b.data(), dim));
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_KernelSquaredL2)->ArgsProduct({{32, 48, 64, 128}, {0, 1}});

// The repo's GEMM shapes: transformer forward/backward at the two model
// sizes (d_model 48/64, d_ff 192/256) over max_seq_len = 64 rows and over
// L = 50 rows (the benchmark lake's mean column length), plus the two
// per-head attention GEMMs at L = 50 (d_head 16). Last arg = GEMM path.
void SgemmShapes(benchmark::internal::Benchmark* b) {
  for (std::int64_t path : {0, 1, 2}) {
    for (std::int64_t m : {64, 50}) {
      b->Args({m, 192, 48, path});   // DistilSim FFN up
      b->Args({m, 48, 192, path});   // DistilSim FFN down
      b->Args({m, 256, 64, path});   // MPNetSim FFN up
      b->Args({m, 64, 256, path});   // MPNetSim FFN down
      b->Args({m, 64, 64, path});    // QKV projection (d=64)
    }
    b->Args({50, 50, 16, path});     // per-head scores
    b->Args({50, 16, 50, path});     // per-head context
  }
}

void BM_SgemmNN(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (!PinGemmPath(state, state.range(3))) return;
  const auto a = BenchVector(m * k, 5);
  const auto b = BenchVector(k * n, 6);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    kern::SgemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  kern::ClearForcedTierForTest();
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);  // MACs*2
}
BENCHMARK(BM_SgemmNN)->Apply(SgemmShapes);

void BM_SgemmNT(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (!PinGemmPath(state, state.range(3))) return;
  const auto a = BenchVector(m * k, 7);
  const auto b = BenchVector(n * k, 8);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    kern::SgemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  kern::ClearForcedTierForTest();
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmNT)->Apply(SgemmShapes);

void BM_SgemmTN(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (!PinGemmPath(state, state.range(3))) return;
  const auto a = BenchVector(k * m, 9);
  const auto b = BenchVector(k * n, 10);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    kern::SgemmTN(m, n, k, a.data(), m, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  kern::ClearForcedTierForTest();
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_SgemmTN)->Apply(SgemmShapes);

// Pre-kernel baseline: the naive row*col triple loop the MatMul*Accum
// variants used before the kernel layer. Kept so BENCH_micro.json always
// carries the before/after ratio on the machine that produced it.
void BM_NaiveGemmNN(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = BenchVector(m * k, 11);
  const auto b = BenchVector(k * n, 12);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        float s = 0.0f;
        for (int p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
        c[static_cast<size_t>(i) * n + j] += s;
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_NaiveGemmNN)
    ->Args({64, 192, 48})
    ->Args({64, 48, 192})
    ->Args({64, 256, 64})
    ->Args({64, 64, 256})
    ->Args({64, 64, 64});

void BM_FastTextCellEmbed(benchmark::State& state) {
  auto& env = SharedEnv();
  std::vector<float> out(env.ft().dim());
  size_t i = 0;
  const auto& cells = env.repo().column(0).cells;
  for (auto _ : state) {
    env.ft().TextVectorInto(cells[i++ % cells.size()], out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FastTextCellEmbed);

// Synonym training as the offline setup runs it: the bench corpus's
// lexicon, dim 64 (the PLM encoder's token-embedding width), strength 0.8,
// 2 epochs, on a fresh embedder per iteration (the table fill is untimed).
void BM_TrainSynonyms(benchmark::State& state) {
  const auto lexicon = SharedEnv().generator().SynonymLexicon();
  FastTextConfig fc;
  fc.dim = 64;
  for (auto _ : state) {
    state.PauseTiming();
    FastTextEmbedder ft(fc);
    state.ResumeTiming();
    ft.TrainSynonyms(lexicon, 0.8, 2);
    benchmark::DoNotOptimize(&ft);
  }
  state.counters["groups"] = static_cast<double>(lexicon.size());
}
BENCHMARK(BM_TrainSynonyms)->Unit(benchmark::kMillisecond);

void BM_TransformColumn(benchmark::State& state) {
  auto& env = SharedEnv();
  core::TransformConfig tc;
  tc.dict = &env.tok().dict();
  size_t i = 0;
  for (auto _ : state) {
    auto text = core::TransformColumn(
        env.repo().column(static_cast<u32>(i++ % env.repo().size())), tc);
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_TransformColumn);

void BM_PlmEncodeColumn(benchmark::State& state) {
  auto& env = SharedEnv();
  static core::PlmColumnEncoder* encoder = [&] {
    core::PlmEncoderConfig pc;
    pc.kind = core::PlmKind::kMPNetSim;
    return std::make_unique<core::PlmColumnEncoder>(pc, env.sample(),
                                                    env.ft()).release();
  }();
  size_t i = 0;
  for (auto _ : state) {
    auto v = encoder->Encode(
        env.repo().column(static_cast<u32>(i++ % env.repo().size())));
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_PlmEncodeColumn);

// Same encode loop with the DJ_METRICS kill switch thrown: the delta
// against BM_PlmEncodeColumn is the instrumentation overhead DESIGN.md §9
// budgets at <2%. bench_snapshot.sh records both in BENCH_micro.json.
void BM_PlmEncodeColumnMetricsOff(benchmark::State& state) {
  auto& env = SharedEnv();
  static core::PlmColumnEncoder* encoder = [&] {
    core::PlmEncoderConfig pc;
    pc.kind = core::PlmKind::kMPNetSim;
    return std::make_unique<core::PlmColumnEncoder>(pc, env.sample(),
                                                    env.ft()).release();
  }();
  const bool was_enabled = metrics::SetEnabledForTest(false);
  size_t i = 0;
  for (auto _ : state) {
    auto v = encoder->Encode(
        env.repo().column(static_cast<u32>(i++ % env.repo().size())));
    benchmark::DoNotOptimize(v.data());
  }
  metrics::SetEnabledForTest(was_enabled);
}
BENCHMARK(BM_PlmEncodeColumnMetricsOff);

// EncodeToVector fast path vs the graph-building path it replaced
// (NoGradGuard + Encode + copy — what EncodeToVector did before the
// workspace forward). Same encoder, same columns, both tiers.
core::PlmColumnEncoder& SharedMpnetEncoder() {
  auto& env = SharedEnv();
  static core::PlmColumnEncoder* encoder = [&] {
    core::PlmEncoderConfig pc;
    pc.kind = core::PlmKind::kMPNetSim;
    return std::make_unique<core::PlmColumnEncoder>(pc, env.sample(),
                                                    env.ft()).release();
  }();
  return *encoder;
}

// Encodes a fixed set of the lake's first 256 columns, each encoded once
// before the clock starts: scratch buffers grow to the longest column seen,
// so the timed loop sees the steady state, not first-call growth.
void BM_EncodeToVectorFastPath(benchmark::State& state) {
  auto& env = SharedEnv();
  auto& encoder = SharedMpnetEncoder();
  if (!PinGemmPath(state, state.range(0))) return;
  std::vector<float> out(static_cast<size_t>(encoder.dim()));
  const u32 columns = std::min<u32>(256, static_cast<u32>(env.repo().size()));
  for (u32 c = 0; c < columns; ++c) {
    encoder.EncodeInto(env.repo().column(c), out.data());
  }
  u32 i = 0;
  for (auto _ : state) {
    encoder.EncodeInto(env.repo().column(i++ % columns), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_EncodeToVectorFastPath)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Times the real workspace forward block by block: the shared MPNetSim
// encoder (d_model 64, 4 heads, d_ff 256, 2 layers, relative bias) on one
// column of L = 50 tokens, the benchmark lake's mean. A lap timer rides
// the forward's probe: each counter is one block's microseconds per
// forward, summed over both layers; the iteration time adds the
// embedding, mean pooling, the workspace pool and the timer reads.
// Arg = GEMM path.
struct LapTimer final : nn::ForwardProbe {
  using Clock = std::chrono::steady_clock;
  void Lap(nn::ForwardBlock block) override {
    const Clock::time_point now = Clock::now();
    total_ns[static_cast<int>(block)] +=
        std::chrono::duration<double, std::nano>(now - mark).count();
    mark = now;
  }
  Clock::time_point mark = Clock::now();
  double total_ns[static_cast<int>(nn::ForwardBlock::kCount)] = {};
};

void BM_ForwardBlocks(benchmark::State& state) {
  nn::TransformerEncoder& encoder = SharedMpnetEncoder().transformer();
  if (!PinGemmPath(state, state.range(0))) return;
  const nn::TransformerConfig& tc = encoder.config();
  std::vector<u32> ids(50);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = (i * 13) % tc.vocab_size;
  std::vector<float> out(static_cast<size_t>(tc.d_model));
  LapTimer timer;
  for (auto _ : state) {
    encoder.EncodeToVector(ids, out.data(), timer);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  // By ForwardBlock. kEmbed's lap only restarts the clock: it also spans
  // the previous iteration's mean pool, so it gets no counter.
  static constexpr const char* kNames[] = {
      nullptr, "qkv_us", "attn_us", "out_ln_us", "ffn1_gelu_us", "ffn2_ln_us"};
  for (int b = 1; b < static_cast<int>(nn::ForwardBlock::kCount); ++b) {
    state.counters[kNames[b]] = benchmark::Counter(
        timer.total_ns[b] * 1e-3, benchmark::Counter::kAvgIterations);
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_ForwardBlocks)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// One attention head at the MPNetSim shape: L = 50 tokens, d_head 16,
// with a relative-bias row. Arg = GEMM path.
void BM_Attention(benchmark::State& state) {
  if (!PinGemmPath(state, state.range(0))) return;
  const int L = 50, dh = 16, ld = 64;
  const auto q = BenchVector(L * ld, 14);
  const auto k = BenchVector(L * ld, 15);
  const auto v = BenchVector(L * ld, 16);
  const auto bias = BenchVector(2 * L - 1, 17);
  std::vector<float> scores(static_cast<size_t>(L) * L);
  std::vector<float> out(static_cast<size_t>(L) * ld);
  for (auto _ : state) {
    kern::Attention(L, dh, q.data(), k.data(), v.data(), ld, 0.25f,
                    bias.data(), scores.data(), L, out.data(), ld);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_Attention)->Arg(0)->Arg(1)->Arg(2);

// One forward linear at the MPNetSim shapes over L = 50 rows: the Q, K,
// V and output projections (k = n = 64), FFN1 (64 -> 256, GELU) and FFN2
// (256 -> 64). Args: k, n, gelu, path (0 = SgemmNN plus the bias and
// GELU epilogue via kern::Linear on the 16-lane path, 1 = kern::AmxLinear
// from a weight packed once, activation rounding included).
void BM_Linear(benchmark::State& state) {
  const int m = 50;
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const bool gelu = state.range(2) != 0;
  const bool amx = state.range(3) == 1;
  if (!PinGemmPath(state, amx ? 3 : 2)) return;
  const auto x = BenchVector(m * k, 11);
  const auto w = BenchVector(k * n, 12);
  const auto bias = BenchVector(n, 13);
  std::vector<float> y(static_cast<size_t>(m) * n);
  std::vector<u16> packed, xbuf;
  if (amx) {
    packed.resize(kern::AmxPackedWeightSize(k, n));
    xbuf.resize(kern::AmxActivationSize(m, k));
    kern::AmxPackWeight(k, n, w.data(), packed.data());
    kern::AmxBegin();
  }
  for (auto _ : state) {
    if (amx) {
      kern::AmxLinear(m, n, k, x.data(), k, packed.data(), bias.data(), gelu,
                      xbuf.data(), y.data(), n);
    } else {
      kern::Linear(m, n, k, x.data(), k, w.data(), bias.data(), gelu,
                   y.data(), n);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  if (amx) kern::AmxEnd();
  kern::ClearForcedTierForTest();
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_Linear)->ArgsProduct({{64}, {64}, {0}, {0, 1}})
    ->ArgsProduct({{64}, {256}, {1}, {0, 1}})
    ->ArgsProduct({{256}, {64}, {0}, {0, 1}});

// The forward pass's two transcendental loops at the MPNetSim shapes: one
// FFN row (d_ff 256) and one attention-score row (L = 50, the mean
// tokens per column of the benchmark lake). Arg = tier.
void BM_GeluTanh(benchmark::State& state) {
  if (!PinTier(state, state.range(0))) return;
  const int n = 256;
  const auto x = BenchVector(n, 5);
  std::vector<float> out(static_cast<size_t>(n));
  for (auto _ : state) {
    kern::GeluTanh(n, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_GeluTanh)->Arg(0)->Arg(1);

void BM_Softmax(benchmark::State& state) {
  if (!PinTier(state, state.range(0))) return;
  const int n = 50;
  const auto x = BenchVector(n, 6);
  std::vector<float> out(static_cast<size_t>(n));
  for (auto _ : state) {
    kern::Softmax(n, x.data(), nullptr, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_Softmax)->Arg(0)->Arg(1);

void BM_EncodeToVectorGraph(benchmark::State& state) {
  auto& env = SharedEnv();
  auto& encoder = SharedMpnetEncoder();
  if (!PinTier(state, state.range(0))) return;
  size_t i = 0;
  for (auto _ : state) {
    nn::NoGradGuard guard;
    nn::VarPtr v = encoder.EncodeForTraining(
        env.repo().column(static_cast<u32>(i++ % env.repo().size())));
    benchmark::DoNotOptimize(v->value().data());
  }
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_EncodeToVectorGraph)->Arg(0)->Arg(1);

void BM_HnswSearch(benchmark::State& state) {
  const int dim = 32;
  // Deliberately leaked so teardown stays off the benchmark clock.
  static ann::HnswIndex* index = [&] {
    ann::HnswConfig hc;
    hc.dim = dim;
    auto idx = std::make_unique<ann::HnswIndex>(hc);
    Rng rng(1);
    std::vector<float> v(dim);
    for (int i = 0; i < 20000; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      idx->Add(v.data());
    }
    return idx.release();
  }();
  Rng rng(2);
  std::vector<float> q(dim);
  for (auto _ : state) {
    for (auto& x : q) x = static_cast<float>(rng.Normal());
    auto hits = index->Search(q.data(), static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_HnswSearch)->Arg(10)->Arg(50);

// Steady-state variant: SearchInto with a capacity-reusing output vector —
// the DJ_NOALLOC contract path EmbeddingSearcher::SearchInto rides (its
// zero allocations are asserted under a ban in alloc_guard_test).
void BM_HnswSearchInto(benchmark::State& state) {
  const int dim = 32;
  static ann::HnswIndex* index = [&] {
    ann::HnswConfig hc;
    hc.dim = dim;
    auto idx = std::make_unique<ann::HnswIndex>(hc);
    Rng rng(1);
    std::vector<float> v(dim);
    for (int i = 0; i < 20000; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      idx->Add(v.data());
    }
    return idx.release();
  }();
  Rng rng(2);
  std::vector<float> q(dim);
  std::vector<ann::Neighbor> hits;
  const ann::AnnSearchParams params;
  const auto k = static_cast<size_t>(state.range(0));
  for (auto& x : q) x = static_cast<float>(rng.Normal());
  index->SearchInto(q.data(), k, params, &hits);  // warm scratch + pool
  for (auto _ : state) {
    for (auto& x : q) x = static_cast<float>(rng.Normal());
    index->SearchInto(q.data(), k, params, &hits);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_HnswSearchInto)->Arg(10)->Arg(50);

// HNSW search with metrics disabled; paired with BM_HnswSearch the ratio
// bounds the per-search instrumentation cost (counter adds + histogram
// record per Search call).
void BM_HnswSearchMetricsOff(benchmark::State& state) {
  const int dim = 32;
  static ann::HnswIndex* index = [&] {
    ann::HnswConfig hc;
    hc.dim = dim;
    auto idx = std::make_unique<ann::HnswIndex>(hc);
    Rng rng(1);
    std::vector<float> v(dim);
    for (int i = 0; i < 20000; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      idx->Add(v.data());
    }
    return idx.release();
  }();
  const bool was_enabled = metrics::SetEnabledForTest(false);
  Rng rng(2);
  std::vector<float> q(dim);
  for (auto _ : state) {
    for (auto& x : q) x = static_cast<float>(rng.Normal());
    auto hits = index->Search(q.data(), static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(hits.data());
  }
  metrics::SetEnabledForTest(was_enabled);
}
BENCHMARK(BM_HnswSearchMetricsOff)->Arg(10)->Arg(50);

// Full steady-state DeepJoin query (transform -> tokenize -> transformer
// forward -> HNSW -> copy-out) through EmbeddingSearcher::SearchInto;
// alloc_guard_test runs the same steady state under an allocation ban.
void BM_SearcherSteadyStateQuery(benchmark::State& state) {
  auto& env = SharedEnv();
  static core::EmbeddingSearcher* searcher = [&] {
    core::SearcherConfig sc;
    sc.backend = core::AnnBackend::kHnsw;
    auto s = std::make_unique<core::EmbeddingSearcher>(&SharedMpnetEncoder(),
                                                       sc);
    DJ_CHECK(s->BuildIndex(SharedEnv().repo()).ok());
    return s.release();
  }();
  const core::SearchOptions options{.k = 10, .collect_stats = false};
  core::EmbeddingSearcher::SearchResult result;
  // One pass over every query warms each thread-local scratch buffer and
  // pool to its steady-state footprint before the clock starts.
  for (const auto& q : env.queries()) searcher->SearchInto(q, options, &result);
  size_t i = 0;
  for (auto _ : state) {
    searcher->SearchInto(env.queries()[i++ % env.queries().size()], options,
                         &result);
    benchmark::DoNotOptimize(result.ids.data());
  }
}
BENCHMARK(BM_SearcherSteadyStateQuery);

// Offline build of the paper-default index: MPNetSim encode of 3K columns
// on a 3-thread pool plus HNSW (M 16, ef_construction 120) insertion,
// which overlaps the encode (EmbeddingSearcher::BuildIndex). Wall time.
void BM_BuildIndex(benchmark::State& state) {
  static const lake::Repository* repo = [] {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(1));
    return std::make_unique<lake::Repository>(gen.GenerateRepository(3000))
        .release();
  }();
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kHnsw;
  sc.hnsw_M = 16;
  sc.hnsw_ef_construction = 120;
  ThreadPool pool(3);
  for (auto _ : state) {
    core::EmbeddingSearcher searcher(&SharedMpnetEncoder(), sc);
    DJ_CHECK(searcher.BuildIndex(*repo, &pool).ok());
    benchmark::DoNotOptimize(searcher.index_size());
  }
  state.counters["cols_per_s"] = benchmark::Counter(
      static_cast<double>(repo->size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BuildIndex)->Unit(benchmark::kMillisecond)->UseRealTime();

// Batched flat scan — the serving layer's flat execution path (DESIGN.md
// §13). Arg (the batch size) riders board one FlatIndex::SharedScan
// together and ride it to empty, so they share one pass over the corpus:
// scalar row-major below kBatchGemmMinQueries riders, tiled SGEMM at or
// above it. Per-item time falls as the batch grows; the Arg(1) row is the
// single-query baseline, and the small Args bracket the GEMM cutover. The
// corpus here is cache-resident, so this tracks the compute amortisation
// only — BENCH_serve.json measures the full memory-bound regime.
void BM_FlatSearchBatch(benchmark::State& state) {
  const int dim = 64;
  static ann::FlatIndex* index = [&] {
    auto idx = std::make_unique<ann::FlatIndex>(dim);
    Rng rng(1);
    std::vector<float> v(dim);
    for (int i = 0; i < 100000; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      idx->Add(v.data());
    }
    return idx.release();
  }();
  const auto batch = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> queries(batch * static_cast<size_t>(dim));
  for (auto& x : queries) x = static_cast<float>(rng.Normal());
  ann::FlatIndex::SharedScan scan(index);
  std::vector<size_t> done;
  std::vector<ann::Neighbor> out;
  const auto run_batch = [&] {
    for (size_t q = 0; q < batch; ++q) {
      scan.Board(queries.data() + q * static_cast<size_t>(dim), 10);
    }
    while (!scan.empty()) {
      done.clear();
      scan.Step(&done);
      for (const size_t slot : done) scan.Harvest(slot, &out);
    }
  };
  run_batch();  // warms the rider slots and the per-tile scratch
  for (auto _ : state) {
    run_batch();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(batch));
}
BENCHMARK(BM_FlatSearchBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64);

void BM_JosieSearch(benchmark::State& state) {
  auto& env = SharedEnv();
  static join::JosieIndex* index =
      std::make_unique<join::JosieIndex>(&env.tok()).release();
  std::vector<join::TokenSet> qts;
  for (const auto& q : env.queries()) qts.push_back(env.tok().EncodeQuery(q));
  size_t i = 0;
  for (auto _ : state) {
    auto hits = index->SearchTopK(qts[i++ % qts.size()], 10);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_JosieSearch);

void BM_MinHashSignature(benchmark::State& state) {
  auto& env = SharedEnv();
  const auto& tokens = env.tok().columns()[0].tokens;
  for (auto _ : state) {
    auto sig = join::MinHashSignature::Compute(tokens, 128);
    benchmark::DoNotOptimize(sig.values().data());
  }
}
BENCHMARK(BM_MinHashSignature);

void BM_SemanticJoinability(benchmark::State& state) {
  auto& env = SharedEnv();
  auto& store = const_cast<BenchEnv&>(env).store();
  const auto& qv = const_cast<BenchEnv&>(env).QueryVectors(0);
  const size_t nq = env.queries()[0].cells.size();
  u32 c = 0;
  for (auto _ : state) {
    const u32 id = c++ % static_cast<u32>(store.num_columns());
    benchmark::DoNotOptimize(join::SemanticJoinability(
        qv.data(), nq, store.column_vectors(id), store.column_count(id),
        store.dim(), 0.9f));
  }
}
BENCHMARK(BM_SemanticJoinability);

void BM_FineTuneStep(benchmark::State& state) {
  auto& env = SharedEnv();
  static core::PlmColumnEncoder* encoder = [&] {
    core::PlmEncoderConfig pc;
    pc.kind = core::PlmKind::kMPNetSim;
    return std::make_unique<core::PlmColumnEncoder>(pc, env.sample(),
                                                    env.ft()).release();
  }();
  nn::AdamW opt(encoder->transformer().params().params(), nn::AdamConfig{});
  const int batch = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    std::vector<nn::VarPtr> xs, ys;
    for (int b = 0; b < batch; ++b) {
      const auto& col =
          env.sample()[(i + static_cast<size_t>(b)) % env.sample().size()];
      xs.push_back(encoder->EncodeForTraining(col));
      ys.push_back(encoder->EncodeForTraining(col));
    }
    i += static_cast<size_t>(batch);
    auto loss = nn::MultipleNegativesRankingLoss(xs, ys);
    nn::Backward(loss);
    opt.Step(1.0);
    encoder->transformer().params().ZeroGrads();
  }
}
BENCHMARK(BM_FineTuneStep)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace deepjoin

BENCHMARK_MAIN();
