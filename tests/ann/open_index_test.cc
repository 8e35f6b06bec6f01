// The unified open/save API end to end (DESIGN.md §14): every backend x
// {owned, mapped} round trip through SaveIndexFile/OpenIndex, SQ8 saves
// with refine_factor reranking, clean failure when mmap itself fails
// (FaultInjectionEnv), header and graph rejections (foreign magic, future
// version, an inconsistent HNSW entry point) as DataLoss, and a
// mapped-path corruption torture — one byte flipped per 64-byte stride
// must yield a non-OK open or defined (and detectable) results, never UB.
// Runs under the `fault` ctest label so the ASan/UBSan legs of
// tools/check.sh cover the mapped reads.
#include "ann/index_io.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ann/hnsw.h"
#include "ann/ivfpq.h"
#include "ann/vector_index.h"
#include "util/rng.h"

namespace deepjoin {
namespace ann {
namespace {

constexpr int kDim = 16;
constexpr u64 kRows = 400;

std::vector<float> RandomRows(u64 n, int dim, u64 seed) {
  Rng rng(seed);
  std::vector<float> rows(n * static_cast<u64>(dim));
  for (float& v : rows) {
    v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
  }
  return rows;
}

class OpenIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = RandomRows(kRows, kDim, 42);
    queries_ = RandomRows(8, kDim, 1337);
    // Per-test filename: ctest runs each case as its own process, so a
    // shared name races under `ctest -j`.
    path_ = std::string(::testing::TempDir()) + "/djix_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  const float* query(size_t q) const {
    return queries_.data() + q * static_cast<size_t>(kDim);
  }

  std::unique_ptr<VectorIndex> BuildBackend(const std::string& kind) {
    if (kind == "flat") {
      auto index = std::make_unique<FlatIndex>(kDim);
      index->AddBatch(rows_.data(), kRows);
      return index;
    }
    if (kind == "hnsw") {
      HnswConfig hc;
      hc.dim = kDim;
      hc.M = 8;
      hc.ef_construction = 64;
      hc.max_elements = kRows;
      auto index = std::make_unique<HnswIndex>(hc);
      index->AddBatch(rows_.data(), kRows);
      return index;
    }
    IvfPqConfig ic;
    ic.dim = kDim;
    ic.nlist = 8;
    ic.m = 4;
    ic.nprobe = 8;  // scan every cell: deterministic results
    ic.hnsw_coarse = (kind == "ivfpq+hnsw");
    auto index = std::make_unique<IvfPqIndex>(ic);
    index->Train(rows_.data(), kRows);
    index->AddBatch(rows_.data(), kRows);
    return index;
  }

  /// Fraction of `want` ids present in `got` (both order-insensitive).
  static double Overlap(const std::vector<Neighbor>& want,
                        const std::vector<Neighbor>& got) {
    size_t agree = 0;
    for (const Neighbor& w : want) {
      for (const Neighbor& g : got) {
        if (g.id == w.id) {
          ++agree;
          break;
        }
      }
    }
    return want.empty() ? 1.0
                        : static_cast<double>(agree) /
                              static_cast<double>(want.size());
  }

  std::vector<float> rows_;
  std::vector<float> queries_;
  std::string path_;
};

// Each backend survives save -> open in both map modes with results
// identical to the in-memory original (same data, same structure, same
// scoring order).
TEST_F(OpenIndexTest, EveryBackendRoundTripsOwnedAndMapped) {
  for (const std::string kind : {"flat", "hnsw", "ivfpq", "ivfpq+hnsw"}) {
    auto original = BuildBackend(kind);
    ASSERT_EQ(original->name(), kind);
    ASSERT_TRUE(SaveIndexFile(*original, path_).ok()) << kind;

    for (const MapMode map : {MapMode::kOwned, MapMode::kMapped}) {
      OpenOptions open;
      open.map = map;
      auto loaded = OpenIndex(path_, open);
      ASSERT_TRUE(loaded.ok())
          << kind << ": " << loaded.status().ToString();
      const auto& index = *loaded.value();
      EXPECT_STREQ(index.name(), kind.c_str());
      EXPECT_EQ(index.size(), kRows);
      EXPECT_EQ(index.dim(), kDim);
      for (size_t q = 0; q < 8; ++q) {
        const auto want = original->Search(query(q), 10);
        const auto got = index.Search(query(q), 10);
        ASSERT_EQ(got.size(), want.size()) << kind;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << kind << " q=" << q;
          EXPECT_EQ(got[i].dist, want[i].dist) << kind << " q=" << q;
        }
      }
    }
  }
}

// Float -> SQ8 conversion at save time, with the float refinement payload
// enabling exact reranking: refined top-10s recover the float ground
// truth almost everywhere, and strictly improve on unrefined SQ8.
TEST_F(OpenIndexTest, QuantizedSaveWithRefineRecoversFloatRecall) {
  FlatIndex original(kDim);
  original.AddBatch(rows_.data(), kRows);
  SaveOptions save;
  save.storage = StorageKind::kSq8;
  save.keep_float_refine = true;
  ASSERT_TRUE(SaveIndexFile(original, path_, save).ok());

  OpenOptions open;
  open.map = MapMode::kMapped;
  auto loaded = OpenIndex(path_, open);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& index = *loaded.value();
  ASSERT_EQ(index.AsFlat()->store().kind(), StorageKind::kSq8);
  ASSERT_NE(index.AsFlat()->refine_store(), nullptr);

  double refined_recall = 0.0;
  for (size_t q = 0; q < 8; ++q) {
    const auto want = original.Search(query(q), 10);
    AnnSearchParams refine;
    refine.refine_factor = 4;
    refined_recall += Overlap(want, index.Search(query(q), 10, refine));
  }
  refined_recall /= 8.0;
  // Exact reranking over a 4x candidate pool: demand a conservative
  // floor well above what raw SQ8 scoring alone guarantees.
  EXPECT_GE(refined_recall, 0.9) << "refined recall " << refined_recall;
}

// An SQ8 save without the refinement payload still opens and searches;
// asking such a file for a float open is refused (quantization is lossy —
// there is nothing to reconstruct from).
TEST_F(OpenIndexTest, Sq8OnlyFileServesQuantizedAndRefusesFloatOpen) {
  FlatIndex original(kDim);
  original.AddBatch(rows_.data(), kRows);
  SaveOptions save;
  save.storage = StorageKind::kSq8;
  ASSERT_TRUE(SaveIndexFile(original, path_, save).ok());

  auto loaded = OpenIndex(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->AsFlat()->store().kind(), StorageKind::kSq8);
  double recall = 0.0;
  for (size_t q = 0; q < 8; ++q) {
    const auto want = original.Search(query(q), 10);
    recall += Overlap(want, loaded.value()->Search(query(q), 10));
  }
  EXPECT_GE(recall / 8.0, 0.5);  // lossy but far from random

  OpenOptions as_float;
  as_float.storage = StorageKind::kFloat;
  auto refused = OpenIndex(path_, as_float);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

// Graph backends quantize at save time too: an HNSW saved as SQ8 opens
// read-only and still routes to near-neighbours.
TEST_F(OpenIndexTest, HnswQuantizedSaveRoundTrips) {
  auto original = BuildBackend("hnsw");
  SaveOptions save;
  save.storage = StorageKind::kSq8;
  save.keep_float_refine = true;
  ASSERT_TRUE(SaveIndexFile(*original, path_, save).ok());

  OpenOptions open;
  open.map = MapMode::kMapped;
  auto loaded = OpenIndex(path_, open);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto* hnsw = static_cast<HnswIndex*>(loaded.value().get());
  EXPECT_TRUE(hnsw->read_only());
  double recall = 0.0;
  for (size_t q = 0; q < 8; ++q) {
    const auto want = original->Search(query(q), 10);
    AnnSearchParams refine;
    refine.refine_factor = 4;
    recall += Overlap(want, hnsw->Search(query(q), 10, refine));
  }
  EXPECT_GE(recall / 8.0, 0.8);
}

// An index with no rows survives both open modes (the packed graph is the
// single upper-offset word, the row section is empty).
TEST_F(OpenIndexTest, EmptyHnswRoundTripsOwnedAndMapped) {
  HnswConfig hc;
  hc.dim = kDim;
  hc.M = 8;
  const HnswIndex empty(hc);
  ASSERT_TRUE(SaveIndexFile(empty, path_).ok());
  for (const MapMode map : {MapMode::kOwned, MapMode::kMapped}) {
    auto loaded = OpenIndex(path_, OpenOptions{.map = map});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_STREQ(loaded.value()->name(), "hnsw");
    EXPECT_EQ(loaded.value()->size(), 0u);
    EXPECT_EQ(loaded.value()->dim(), kDim);
    EXPECT_TRUE(loaded.value()->Search(query(0), 5).empty());
  }
}

// A well-formed record file whose first word is not DJIX — here the magic
// of the retired standalone HNSW format — is refused as DataLoss.
TEST_F(OpenIndexTest, ForeignMagicIsDataLossNotAbort) {
  {
    BinaryWriter writer(path_);
    ASSERT_TRUE(writer.Open().ok());
    writer.WriteU32(0x484E5357);  // "HNSW"
    writer.WriteU32(2);
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = OpenIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(OpenIndexTest, FutureVersionIsDataLossNamingIt) {
  const u32 future = kDjIndexVersion + 1;
  {
    BinaryWriter writer(path_);
    ASSERT_TRUE(writer.Open().ok());
    writer.WriteU32(kDjIndexMagic);
    writer.WriteU32(future);
    writer.WriteString("hnsw");
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = OpenIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(std::to_string(future)),
            std::string::npos)
      << loaded.status().ToString();
}

// Every record's CRC is valid, so only the semantic graph checks stand
// between this file and a live index: one node at level 0 whose stored
// entry point is out of range must reach BuildLive's rejection.
TEST_F(OpenIndexTest, InconsistentHnswEntryPointIsDataLoss) {
  constexpr int kM = 2;
  constexpr u32 kCap0 = 1 + 2 * kM;  // level-0 row: count + 2M ids
  {
    BinaryWriter writer(path_);
    ASSERT_TRUE(writer.Open().ok());
    writer.WriteU32(kDjIndexMagic);
    writer.WriteU32(kDjIndexVersion);
    writer.WriteString("hnsw");
    writer.WriteI32(2);    // dim
    writer.WriteI32(kM);   // M
    writer.WriteI32(8);    // ef_construction
    writer.WriteI32(8);    // ef_search
    writer.WriteU64(11);   // seed
    writer.WriteU32(16);   // max_elements
    writer.WriteU64(1);    // n
    writer.WriteU32(5);    // entry point: out of range
    writer.WriteI32(0);    // max_level
    writer.WriteU32Array(nullptr, 0);  // tombstones
    writer.WriteU32(static_cast<u32>(StorageKind::kFloat));
    writer.WriteU32(0);    // no refinement payload
    writer.WriteU64(0);    // upper_len
    // Packed graph: levels[1], an empty level-0 row, upper offsets[2].
    std::vector<u32> words(1 + kCap0 + 2, 0);
    writer.WriteAlignedSection(words.data(), words.size() * sizeof(u32));
    const float row[2] = {0.0f, 1.0f};
    ASSERT_TRUE(
        FloatStore::SaveFromRows(writer, 2, 1, [&row](u64) { return row; })
            .ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = OpenIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(
                "entry point inconsistent with levels"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(OpenIndexTest, MissingFileIsIoErrorNotCrash) {
  auto loaded = OpenIndex(std::string(::testing::TempDir()) + "/absent.djx");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// When mmap itself fails (resource exhaustion, filesystem without mmap
// support), a mapped open degrades to a clean error — not a crash, not a
// silent owned fallback.
TEST_F(OpenIndexTest, MapFailureSurfacesAsStatus) {
  FlatIndex original(kDim);
  original.AddBatch(rows_.data(), kRows);
  ASSERT_TRUE(SaveIndexFile(original, path_).ok());

  FaultInjectionEnv fault(Env::Default());
  OpenOptions open;
  open.map = MapMode::kMapped;
  // Learn how many NewMappedRegion calls a clean open makes.
  {
    auto ok = OpenIndex(path_, open, &fault);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  }
  const i64 maps = fault.counters().maps;
  ASSERT_GE(maps, 1);
  // Fail each one in turn.
  for (i64 k = 0; k < maps; ++k) {
    fault.ResetCounters();
    fault.plan().fail_map_index = k;
    auto loaded = OpenIndex(path_, open, &fault);
    ASSERT_FALSE(loaded.ok()) << "map fault " << k << " was swallowed";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

// The mapped-path torture. Zero-copy opens skip the eager whole-file CRC
// sweep, so a flipped byte can make it into a live index — the contract
// is weaker than the owned path's (which must refuse the file) but still
// absolute: the open fails cleanly, OR the index serves well-defined
// results and a full verification detects the damage. ASan (via the
// `fault` label) turns any out-of-bounds mapped read into a hard failure.
TEST_F(OpenIndexTest, MappedOpenSurvivesBitFlipTorture) {
  FlatIndex original(kDim);
  original.AddBatch(rows_.data(), kRows);
  SaveOptions save;
  save.storage = StorageKind::kSq8;
  save.keep_float_refine = true;
  ASSERT_TRUE(SaveIndexFile(original, path_, save).ok());

  std::string baseline;
  {
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    baseline.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(baseline.size(), 4096u);

  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  OpenOptions open;
  open.map = MapMode::kMapped;
  size_t opened_ok = 0;
  for (size_t i = 0; i < baseline.size(); i += 64) {
    file.seekp(static_cast<long>(i));
    file.put(static_cast<char>(baseline[i] ^ '\xFF'));
    file.flush();

    auto loaded = OpenIndex(path_, open);
    if (loaded.ok()) {
      // The flip landed in a lazily-verified section. Searches must stay
      // defined; a full check must notice the corruption.
      ++opened_ok;
      const auto& index = *loaded.value();
      for (size_t q = 0; q < 2; ++q) {
        AnnSearchParams refine;
        refine.refine_factor = 2;
        const auto got = index.Search(query(q), 5, refine);
        ASSERT_LE(got.size(), 5u) << "byte " << i;
        for (const Neighbor& nb : got) {
          ASSERT_LT(nb.id, kRows) << "byte " << i;
        }
      }
      const auto* flat = index.AsFlat();
      ASSERT_NE(flat, nullptr);
      Status full = flat->store().VerifyAll();
      if (full.ok() && flat->refine_store() != nullptr) {
        full = flat->refine_store()->VerifyAll();
      }
      EXPECT_FALSE(full.ok()) << "byte " << i << ": flip undetected";
    }

    file.seekp(static_cast<long>(i));
    file.put(baseline[i]);
    file.flush();
  }
  // Sanity: the torture exercised the lazy path, not just header
  // rejections — most flips land in the page-aligned sections.
  EXPECT_GT(opened_ok, 0u);

  // And the restored file still opens with full verification.
  open.verify = VerifyMode::kFull;
  auto pristine = OpenIndex(path_, open);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
}

}  // namespace
}  // namespace ann
}  // namespace deepjoin
