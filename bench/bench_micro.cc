// Micro-benchmarks (google-benchmark) over the library's hot kernels:
// column encoding, ANN search, exact search, sketching and training steps.
// These complement the table harnesses: they isolate per-component cost.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/common.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/alloc_guard.h"
#include "util/kernels.h"
#include "util/metrics.h"

namespace deepjoin {
namespace {

using bench::BenchConfig;
using bench::BenchEnv;

// Attaches an allocs-per-op counter when the alloc-guard runtime is
// compiled in (Debug / -DDJ_ALLOC_GUARD=ON builds). Release snapshots
// simply omit the column — the guard's new/delete hooks are not there to
// count, and timing numbers stay unperturbed.
void ReportAllocsPerOp(benchmark::State& state,
                       const alloc_guard::ScopedAllocCount& tally) {
  if (!alloc_guard::Enabled()) return;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(tally.allocations()),
                         benchmark::Counter::kAvgIterations);
}

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
// sizes (d_model 48/64, d_ff 192/256) over max_seq_len = 64 rows.
void SgemmShapes(benchmark::internal::Benchmark* b) {
  for (std::int64_t tier : {0, 1}) {
    b->Args({64, 192, 48, tier});   // DistilSim FFN up
    b->Args({64, 48, 192, tier});   // DistilSim FFN down
    b->Args({64, 256, 64, tier});   // MPNetSim FFN up
    b->Args({64, 64, 256, tier});   // MPNetSim FFN down
    b->Args({64, 64, 64, tier});    // QKV projection (d=64)
  }
}

void BM_SgemmNN(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (!PinTier(state, state.range(3))) return;
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
  if (!PinTier(state, state.range(3))) return;
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
  if (!PinTier(state, state.range(3))) return;
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

void BM_EncodeToVectorFastPath(benchmark::State& state) {
  auto& env = SharedEnv();
  auto& encoder = SharedMpnetEncoder();
  if (!PinTier(state, state.range(0))) return;
  std::vector<float> out(static_cast<size_t>(encoder.dim()));
  size_t i = 0;
  // Warm the thread-local scratch and workspace pool so the tally below
  // sees the steady state, not first-call growth.
  encoder.EncodeInto(env.repo().column(0), out.data());
  alloc_guard::ScopedAllocCount tally;
  for (auto _ : state) {
    encoder.EncodeInto(
        env.repo().column(static_cast<u32>(i++ % env.repo().size())),
        out.data());
    benchmark::DoNotOptimize(out.data());
  }
  ReportAllocsPerOp(state, tally);
  kern::ClearForcedTierForTest();
}
BENCHMARK(BM_EncodeToVectorFastPath)->Arg(0)->Arg(1);

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
  alloc_guard::ScopedAllocCount tally;
  for (auto _ : state) {
    for (auto& x : q) x = static_cast<float>(rng.Normal());
    auto hits = index->Search(q.data(), static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(hits.data());
  }
  ReportAllocsPerOp(state, tally);
}
BENCHMARK(BM_HnswSearch)->Arg(10)->Arg(50);

// Steady-state variant: SearchInto with a capacity-reusing output vector —
// the DJ_NOALLOC contract path EmbeddingSearcher::SearchInto rides. Paired
// with BM_HnswSearch, the allocs_per_op counters (guard-enabled builds)
// show the convenience wrapper's per-call result vector vs zero here.
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
  alloc_guard::ScopedAllocCount tally;
  for (auto _ : state) {
    for (auto& x : q) x = static_cast<float>(rng.Normal());
    index->SearchInto(q.data(), k, params, &hits);
    benchmark::DoNotOptimize(hits.data());
  }
  ReportAllocsPerOp(state, tally);
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
// forward -> HNSW -> copy-out) through EmbeddingSearcher::SearchInto. In
// guard-enabled builds allocs_per_op is the headline allocations-per-query
// number; the guarded test suite pins it to zero.
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
  // pool to its steady-state footprint before the tally starts.
  for (const auto& q : env.queries()) searcher->SearchInto(q, options, &result);
  size_t i = 0;
  alloc_guard::ScopedAllocCount tally;
  for (auto _ : state) {
    searcher->SearchInto(env.queries()[i++ % env.queries().size()], options,
                         &result);
    benchmark::DoNotOptimize(result.ids.data());
  }
  ReportAllocsPerOp(state, tally);
}
BENCHMARK(BM_SearcherSteadyStateQuery);

// Batched flat scan — the serving-layer execution path (DESIGN.md §13).
// FlatIndex::SearchBatchInto amortises one pass over the corpus across the
// whole batch via blocked SGEMM, so per-item time falls as Arg (the batch
// size) grows; the Arg(1) row is the unbatched per-query baseline the
// serving sweep's saturation_speedup figure compares against. The corpus
// here is cache-resident, so this tracks the compute amortisation only —
// BENCH_serve.json measures the full memory-bound regime.
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
  std::vector<std::vector<ann::Neighbor>> outs(batch);
  const ann::AnnSearchParams params;
  index->SearchBatchInto(queries.data(), batch, 10, params, outs.data());
  alloc_guard::ScopedAllocCount tally;
  for (auto _ : state) {
    index->SearchBatchInto(queries.data(), batch, 10, params, outs.data());
    benchmark::DoNotOptimize(outs[0].data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(batch));
  ReportAllocsPerOp(state, tally);
}
BENCHMARK(BM_FlatSearchBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

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
