// Tests for the allocation-discipline runtime (src/util/alloc_guard.h):
// ScopedAllocCount tallies, ScopedAllocBan nesting and abort semantics
// (death tests), delete-under-ban legality, and the layer's acceptance
// proofs — after warmup, each DJ_NOALLOC path of the online query runs
// under a ban and performs ZERO heap allocations: the transformer forward
// on every GEMM path the host has, HNSW SearchInto, a full DeepJoin
// search (PLM encode + HNSW traversal), and StreamScan's HNSW riders.
// Every case runs in every build: the binary links dj_guard.
#include "util/alloc_guard.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ann/hnsw.h"
#include "core/searcher.h"
#include "lake/generator.h"
#include "nn/transformer.h"
#include "util/kernels.h"
#include "util/lock_rank.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace deepjoin {
namespace {

// Linking dj_guard is the only switch, and it turns on both runtimes: the
// operator new replacement (the tally sees the allocation) and the
// lock-rank hooks (the ranked lock lands on the held stack).
TEST(AllocGuardTest, LinkingTheGuardTurnsOnBothRuntimes) {
  alloc_guard::ScopedAllocCount tally;
  auto p = std::make_unique<int>(5);
  EXPECT_GE(tally.allocations(), 1u);
  EXPECT_EQ(*p, 5);

  ASSERT_TRUE(lock_rank::Enabled());
  Mutex mu("test.guard.linked", 73);
  const size_t depth = lock_rank::HeldDepth();
  MutexLock lock(mu);
  EXPECT_EQ(lock_rank::HeldDepth(), depth + 1);
}

TEST(AllocGuardTest, CountObservesAllocations) {
  alloc_guard::ScopedAllocCount tally;
  const std::uint64_t before = tally.allocations();
  auto p = std::make_unique<std::uint64_t>(42);
  EXPECT_GE(tally.allocations(), before + 1);
  EXPECT_GE(tally.bytes(), sizeof(std::uint64_t));
  EXPECT_EQ(*p, 42u);
}

TEST(AllocGuardTest, CountScopesNestIndependently) {
  alloc_guard::ScopedAllocCount outer;
  auto a = std::make_unique<int>(1);
  alloc_guard::ScopedAllocCount inner;
  auto b = std::make_unique<int>(2);
  // The inner scope saw only the second allocation; the outer saw both.
  EXPECT_GE(inner.allocations(), 1u);
  EXPECT_GE(outer.allocations(), inner.allocations() + 1);
  EXPECT_EQ(*a + *b, 3);
}

TEST(AllocGuardTest, ProcessTotalsAreMonotonic) {
  const std::uint64_t allocs0 = alloc_guard::TotalAllocations();
  const std::uint64_t bytes0 = alloc_guard::TotalBytes();
  auto p = std::make_unique<double>(1.0);
  EXPECT_GT(alloc_guard::TotalAllocations(), allocs0);
  EXPECT_GE(alloc_guard::TotalBytes(), bytes0 + sizeof(double));
  EXPECT_EQ(*p, 1.0);
}

TEST(AllocGuardTest, PublishMetricsExportsGauges) {
  auto p = std::make_unique<int>(9);
  (void)*p;
  alloc_guard::PublishMetrics();
  const auto snapshot = metrics::MetricsRegistry::Global().Snapshot();
  bool saw_count = false;
  bool saw_bytes = false;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "dj_alloc_count") saw_count = g.value > 0;
    if (g.name == "dj_alloc_bytes") saw_bytes = g.value > 0;
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_bytes);
}

TEST(AllocGuardTest, NestedBansUnwindCleanly) {
  {
    alloc_guard::ScopedAllocBan outer("outer");
    { alloc_guard::ScopedAllocBan inner("inner"); }
  }
  // Fully unwound: allocation is legal again.
  std::vector<int> v(8, 3);
  EXPECT_EQ(v.size(), 8u);
}

TEST(AllocGuardTest, DeleteUnderBanIsAllowed) {
  int* p = new int(3);  // dj_lint: allow(naked-new)
  {
    alloc_guard::ScopedAllocBan ban("release is always legal");
    delete p;
  }
  SUCCEED();
}

TEST(AllocGuardDeathTest, AllocationUnderBanAborts) {
  EXPECT_DEATH(
      {
        alloc_guard::ScopedAllocBan ban("death test ban");
        int* leak = new int(7);  // dj_lint: allow(naked-new)
        (void)leak;
      },
      "heap allocation of .* under ScopedAllocBan\\(\"death test ban\"\\)");
}

TEST(AllocGuardDeathTest, InnermostBanSiteIsReported) {
  EXPECT_DEATH(
      {
        alloc_guard::ScopedAllocBan outer("outer ban");
        alloc_guard::ScopedAllocBan inner("inner ban");
        int* leak = new int(7);  // dj_lint: allow(naked-new)
        (void)leak;
      },
      "ScopedAllocBan\\(\"inner ban\"\\)");
}

TEST(AllocGuardDeathTest, DestroyedInnerBanRestoresOuterContext) {
  EXPECT_DEATH(
      {
        alloc_guard::ScopedAllocBan outer("outer ban");
        { alloc_guard::ScopedAllocBan inner("inner ban"); }
        int* leak = new int(7);  // dj_lint: allow(naked-new)
        (void)leak;
      },
      "ScopedAllocBan\\(\"outer ban\"\\)");
}

// The GEMM paths the transformer forward can take: the scalar tier, the
// AVX2 tier's 8-lane and 16-lane microkernels, and the AMX-BF16 linear.
enum class ForwardPath { kScalar, kAvx2_8, kAvx512_16, kAmx };

std::string ForwardPathName(
    const ::testing::TestParamInfo<ForwardPath>& info) {
  switch (info.param) {
    case ForwardPath::kScalar: return "Scalar";
    case ForwardPath::kAvx2_8: return "Avx2EightLane";
    case ForwardPath::kAvx512_16: return "Avx512SixteenLane";
    case ForwardPath::kAmx: return "AmxBf16";
  }
  return "Unknown";
}

class AllocGuardForwardTest : public ::testing::TestWithParam<ForwardPath> {
 protected:
  void TearDown() override { kern::ClearForcedTierForTest(); }

  /// Pins the path under test; false (with the reason) when this host
  /// lacks it.
  bool PinPath(std::string* why) {
    using kern::GemmPath;
    using kern::Tier;
    kern::ClearForcedTierForTest();
    switch (GetParam()) {
      case ForwardPath::kScalar:
        kern::ForceTierForTest(Tier::kScalar);
        return kern::ActiveGemmPath() == GemmPath::kScalar;
      case ForwardPath::kAvx2_8:
        if (kern::DetectedTier() != Tier::kAvx2) break;
        kern::ForceTierForTest(Tier::kAvx2);
        kern::PinAvx2GemmForTest();
        return kern::ActiveGemmPath() == GemmPath::kAvx2;
      case ForwardPath::kAvx512_16:
        if (kern::DetectedTier() != Tier::kAvx2) break;
        kern::ForceTierForTest(Tier::kAvx2);
        if (kern::ActiveGemmPath() != GemmPath::kAvx512) break;
        return true;
      case ForwardPath::kAmx:
        if (!kern::AmxLinearActive()) break;
        return std::string(kern::LinearPathName()) == "amx-bf16";
    }
    *why = "GEMM path unavailable on this host";
    return false;
  }
};

// TransformerEncoder::EncodeToVector (the workspace forward) allocates
// nothing once its workspace is warm, on every GEMM path: the forced
// scalar tier, both AVX2-tier microkernels and the AMX-BF16 linear.
TEST_P(AllocGuardForwardTest, EncodeToVectorPerformsZeroAllocations) {
  std::string why;
  if (!PinPath(&why)) GTEST_SKIP() << why;
  nn::TransformerConfig tc;
  tc.vocab_size = 200;
  tc.max_seq_len = 48;
  tc.position_mode = nn::PositionMode::kRelativeBias;
  nn::TransformerEncoder encoder(tc);
  Rng rng(31);
  std::vector<std::vector<u32>> sequences;
  for (const size_t len : {48, 7, 30, 1, 48}) {
    std::vector<u32> ids(len);
    for (u32& id : ids) {
      id = static_cast<u32>(rng.UniformU64(static_cast<u64>(tc.vocab_size)));
    }
    sequences.push_back(std::move(ids));
  }
  std::vector<float> out(static_cast<size_t>(tc.d_model));
  // Warmup at the longest length grows the workspace (and, on AMX, packs
  // the bf16 weight copies) to its steady-state footprint.
  encoder.EncodeToVector(sequences[0], out.data());

  alloc_guard::ScopedAllocCount tally;
  {
    alloc_guard::ScopedAllocBan ban("steady-state transformer forward");
    for (const auto& ids : sequences) encoder.EncodeToVector(ids, out.data());
  }
  EXPECT_EQ(tally.allocations(), 0u);
  // The ban covered real work: the embedding is finite and nonzero.
  float norm = 0.0f;
  for (const float v : out) norm += v * v;
  EXPECT_GT(norm, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(GemmPaths, AllocGuardForwardTest,
                         ::testing::Values(ForwardPath::kScalar,
                                           ForwardPath::kAvx2_8,
                                           ForwardPath::kAvx512_16,
                                           ForwardPath::kAmx),
                         ForwardPathName);

// HnswIndex::SearchInto writes into a capacity-reusing buffer on pooled
// scratch: after one warm query at the widest beam, queries at any beam up
// to it (tombstones included) allocate nothing.
TEST(AllocGuardHnswTest, SearchIntoPerformsZeroAllocations) {
  constexpr int kDim = 16;
  constexpr size_t kVectors = 600;
  ann::HnswConfig hc;
  hc.dim = kDim;
  ann::HnswIndex index(hc);
  Rng rng(17);
  std::vector<float> data(kVectors * kDim);
  for (float& v : data) v = static_cast<float>(rng.Normal());
  for (size_t i = 0; i < kVectors; ++i) index.Add(&data[i * kDim]);
  for (u32 id = 0; id < 60; id += 3) ASSERT_TRUE(index.Remove(id).ok());

  std::vector<ann::Neighbor> hits;
  ann::AnnSearchParams widest;
  widest.ef_search = 128;
  index.SearchInto(&data[0], 50, widest, &hits);

  alloc_guard::ScopedAllocCount tally;
  {
    alloc_guard::ScopedAllocBan ban("steady-state HNSW SearchInto");
    for (size_t q = 0; q < 40; ++q) {
      ann::AnnSearchParams params;
      params.ef_search = q % 2 == 0 ? 0 : 128;  // default beam, then widest
      index.SearchInto(&data[(q * 7 % kVectors) * kDim], q % 2 == 0 ? 10 : 50,
                       params, &hits);
      ASSERT_FALSE(hits.empty());
    }
  }
  EXPECT_EQ(tally.allocations(), 0u);
}

// Conditions of the DJ_NOALLOC contract's steady state for the searcher:
// scratch and pools warmed by prior queries on this thread, collect_stats
// off, HNSW backend.
class AllocGuardSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(909));
    const lake::Repository repo = gen.GenerateRepository(80);
    queries_ = gen.GenerateQueries(6, 0x77);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    core::PlmEncoderConfig pc;
    pc.kind = core::PlmKind::kDistilSim;
    pc.max_seq_len = 32;
    encoder_ =
        std::make_unique<core::PlmColumnEncoder>(pc, queries_, *embedder_);
    core::SearcherConfig sc;
    sc.backend = core::AnnBackend::kHnsw;
    searcher_ = std::make_unique<core::EmbeddingSearcher>(encoder_.get(), sc);
    ASSERT_TRUE(searcher_->BuildIndex(repo).ok());
  }

  const core::SearchOptions options_{.k = 10, .collect_stats = false};
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<core::PlmColumnEncoder> encoder_;
  std::unique_ptr<core::EmbeddingSearcher> searcher_;
};

// The layer's acceptance proof: after warmup, a full DeepJoin query —
// transform, tokenize, vocab lookup, transformer forward, HNSW traversal,
// result copy-out — performs zero heap allocations. The whole steady-state
// query runs under a ScopedAllocBan, so any regression aborts with the
// allocating site's size, and a ScopedAllocCount double-checks the tally.
TEST_F(AllocGuardSearchTest, SteadyStateSearchPerformsZeroAllocations) {
  core::EmbeddingSearcher::SearchResult result;
  // Warmup: grows every thread-local scratch buffer, the HNSW visited
  // pool, the transformer workspace pool, and the function-local metric
  // statics to their steady-state footprint.
  for (int i = 0; i < 3; ++i) {
    searcher_->SearchInto(queries_[i % queries_.size()], options_, &result);
  }
  ASSERT_EQ(result.ids.size(), 10u);

  alloc_guard::ScopedAllocCount tally;
  {
    alloc_guard::ScopedAllocBan ban("steady-state DeepJoin search");
    for (size_t i = 0; i < queries_.size(); ++i) {
      searcher_->SearchInto(queries_[i], options_, &result);
    }
  }
  EXPECT_EQ(tally.allocations(), 0u);
  EXPECT_EQ(tally.bytes(), 0u);
  EXPECT_EQ(result.ids.size(), 10u);
}

// The serve dispatcher's HNSW path: a StreamScan session boards a group
// encoded inline (pool = nullptr), steps it and harvests every rider. Once
// the session's rider slots, staging buffers and the caller's result
// vectors have grown, a whole Board/Step/Harvest round allocates nothing,
// and each rider still equals a direct SearchInto.
TEST_F(AllocGuardSearchTest, StreamScanHnswRidersPerformZeroAllocations) {
  using StreamScan = core::EmbeddingSearcher::StreamScan;
  std::vector<core::EmbeddingSearcher::SearchResult> direct(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    searcher_->SearchInto(queries_[i], options_, &direct[i]);
  }

  StreamScan scan = searcher_->NewStreamScan();
  ASSERT_TRUE(scan.valid());
  std::vector<StreamScan::Boarder> group(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    group[i] = {&queries_[i], options_};
  }
  std::vector<size_t> done;
  done.reserve(group.size());
  std::vector<core::EmbeddingSearcher::SearchResult> results(group.size());
  const auto round = [&] {
    scan.Board(group.data(), group.size(), /*pool=*/nullptr);
    done.clear();
    while (!scan.empty()) scan.Step(&done);
    for (size_t i = 0; i < group.size(); ++i) {
      scan.Harvest(group[i].slot, &results[i]);
    }
  };
  round();  // warmup: rider slots, qbuf/hitbuf, result capacity

  alloc_guard::ScopedAllocCount tally;
  {
    alloc_guard::ScopedAllocBan ban("steady-state StreamScan HNSW riders");
    for (int r = 0; r < 3; ++r) round();
  }
  EXPECT_EQ(tally.allocations(), 0u);
  EXPECT_EQ(done.size(), group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(results[i].ids, direct[i].ids) << "rider " << i;
  }
}

}  // namespace
}  // namespace deepjoin
