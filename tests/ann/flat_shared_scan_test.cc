// FlatIndex::SharedScan tests (DESIGN.md §13): the cooperative
// tile-granular scan must return exactly what Search() returns for every
// rider — including riders that board mid-scan and ride the wrap-around —
// on both the scalar (small cohort) and tiled-SGEMM (large cohort) arms,
// and with refine_factor reranking on a quantized store.
#include <vector>

#include <gtest/gtest.h>

#include "ann/vector_index.h"
#include "util/rng.h"

namespace deepjoin {
namespace ann {
namespace {

constexpr int kDim = 8;
// > 2 tiles (kScoreTileRows = 2048) so the wrap-around is exercised.
constexpr size_t kRows = 5000;

class FlatSharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    index_ = std::make_unique<FlatIndex>(kDim);
    data_.resize(kRows * kDim);
    for (auto& x : data_) x = static_cast<float>(rng.Normal());
    index_->AddBatch(data_.data(), kRows);
    queries_.resize(16 * kDim);
    for (auto& x : queries_) x = static_cast<float>(rng.Normal());
  }

  const float* query(size_t i) const { return queries_.data() + i * kDim; }

  static std::vector<u32> Ids(const std::vector<Neighbor>& hits) {
    std::vector<u32> ids;
    for (const auto& h : hits) ids.push_back(h.id);
    return ids;
  }

  /// Runs the scan to empty, harvesting every completion into hits[slot].
  void Drain(FlatIndex::SharedScan* scan,
             std::vector<std::vector<Neighbor>>* by_slot) {
    std::vector<size_t> done;
    size_t steps = 0;
    while (!scan->empty()) {
      done.clear();
      scan->Step(&done);
      for (const size_t slot : done) {
        if (slot >= by_slot->size()) by_slot->resize(slot + 1);
        scan->Harvest(slot, &(*by_slot)[slot]);
      }
      ASSERT_LT(++steps, 10000u) << "scan failed to drain";
    }
  }

  std::unique_ptr<FlatIndex> index_;
  std::vector<float> data_;
  std::vector<float> queries_;
};

TEST_F(FlatSharedScanTest, SingleRiderMatchesSearch) {
  FlatIndex::SharedScan scan(index_.get());
  EXPECT_EQ(scan.tiles(), 3u);
  const size_t slot = scan.Board(query(0), 10);
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  // A lone rider takes the scalar arm — bit-identical to Search.
  const auto expect = index_->Search(query(0), 10);
  ASSERT_EQ(hits[slot].size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(hits[slot][i].id, expect[i].id);
    EXPECT_EQ(hits[slot][i].dist, expect[i].dist);
  }
}

TEST_F(FlatSharedScanTest, MidScanBoardingRidesTheWrapAround) {
  FlatIndex::SharedScan scan(index_.get());
  const size_t a = scan.Board(query(0), 7);
  std::vector<size_t> done;
  // Tile 0 is scored with only A aboard; B boards at the tile-1 boundary
  // and must still cover every tile (1, 2, then wrap to 0).
  EXPECT_EQ(scan.Step(&done), 0u);
  const size_t b = scan.Board(query(1), 7);
  EXPECT_EQ(scan.active(), 2u);
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  for (const auto& [slot, q, k] :
       {std::tuple<size_t, size_t, size_t>{a, 0, 7}, {b, 1, 7}}) {
    const auto expect = index_->Search(query(q), k);
    ASSERT_EQ(hits[slot].size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(hits[slot][i].id, expect[i].id) << "rider slot " << slot;
      EXPECT_EQ(hits[slot][i].dist, expect[i].dist);
    }
  }
}

TEST_F(FlatSharedScanTest, GemmCohortMatchesSearch) {
  // 8 riders boarded together take the tiled-SGEMM arm, which recombines
  // distances from row norms; Search sums squared differences. The
  // reduction orders differ, so distances match under a tolerance.
  constexpr size_t kNq = 8;
  FlatIndex::SharedScan scan(index_.get());
  std::vector<size_t> slots;
  for (size_t q = 0; q < kNq; ++q) slots.push_back(scan.Board(query(q), 5));
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  for (size_t q = 0; q < kNq; ++q) {
    const auto expect = index_->Search(query(q), 5);
    ASSERT_EQ(hits[slots[q]].size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_NEAR(hits[slots[q]][i].dist, expect[i].dist, 1e-3f)
          << "query " << q << " rank " << i;
    }
  }
}

TEST_F(FlatSharedScanTest, RefineRidersMatchSearch) {
  // SQ8 rows plus a float refinement store. Riders boarded with
  // refine_factor 4 over-fetch 4k quantized candidates and rerank them
  // exactly, like Search with the same option. An SQ8 store always takes
  // the store-distance arm, so the comparison is exact.
  auto codes = std::make_unique<Sq8Store>(kDim);
  ASSERT_TRUE(codes->AppendRows(data_.data(), kRows).ok());
  auto exact = std::make_unique<FloatStore>(kDim);
  ASSERT_TRUE(exact->AppendRows(data_.data(), kRows).ok());
  FlatIndex sq8(std::move(codes), std::move(exact),
                std::vector<u8>(kRows, 0), 0);
  AnnSearchParams refine;
  refine.refine_factor = 4;
  FlatIndex::SharedScan scan(&sq8);
  std::vector<size_t> slots;
  for (size_t q = 0; q < 8; ++q) {
    slots.push_back(scan.Board(query(q), 5, q % 2 == 0 ? 4 : 0));
  }
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  size_t reranked = 0;
  for (size_t q = 0; q < 8; ++q) {
    const auto expect = q % 2 == 0 ? sq8.Search(query(q), 5, refine)
                                   : sq8.Search(query(q), 5);
    const auto& got = hits[slots[q]];
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(got[i].dist, expect[i].dist);
    }
    if (q % 2 == 0 && Ids(got) != Ids(sq8.Search(query(q), 5))) ++reranked;
  }
  // The rerank must change some rider's ids, or the test proves nothing
  // about refine_factor.
  EXPECT_GT(reranked, 0u);
}

TEST_F(FlatSharedScanTest, MixedCohortSizesStayExact) {
  // One rider scans tile 0 alone (scalar arm); seven more board at the
  // next boundary, pushing the cohort onto the SGEMM arm mid-ride. Every
  // rider still sees every row exactly once.
  FlatIndex::SharedScan scan(index_.get());
  const size_t a = scan.Board(query(0), 10);
  std::vector<size_t> done;
  scan.Step(&done);
  std::vector<size_t> slots;
  for (size_t q = 1; q < 8; ++q) slots.push_back(scan.Board(query(q), 10));
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  // Arms differ in reduction order, so compare ids under a distance
  // tolerance rather than bitwise.
  for (size_t q = 0; q < 8; ++q) {
    const size_t slot = (q == 0) ? a : slots[q - 1];
    const auto expect = index_->Search(query(q), 10);
    ASSERT_EQ(hits[slot].size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_NEAR(hits[slot][i].dist, expect[i].dist, 1e-3f)
          << "query " << q << " rank " << i;
    }
  }
}

TEST_F(FlatSharedScanTest, TombstonedRowsAreExcluded) {
  ASSERT_TRUE(index_->Remove(0).ok());
  ASSERT_TRUE(index_->Remove(2500).ok());  // second tile
  ASSERT_TRUE(index_->Remove(4999).ok());  // last row
  FlatIndex::SharedScan scan(index_.get());
  const size_t slot = scan.Board(query(3), static_cast<size_t>(kRows));
  std::vector<std::vector<Neighbor>> hits;
  Drain(&scan, &hits);
  EXPECT_EQ(hits[slot].size(), kRows - 3);
  for (const auto& h : hits[slot]) {
    EXPECT_NE(h.id, 0u);
    EXPECT_NE(h.id, 2500u);
    EXPECT_NE(h.id, 4999u);
  }
}

TEST_F(FlatSharedScanTest, KZeroCompletesEmptyOnNextStep) {
  FlatIndex::SharedScan scan(index_.get());
  const size_t slot = scan.Board(query(0), 0);
  std::vector<size_t> done;
  EXPECT_EQ(scan.Step(&done), 1u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], slot);
  std::vector<Neighbor> out{{1.0f, 1u}};  // must be cleared
  scan.Harvest(slot, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(scan.empty());
}

TEST_F(FlatSharedScanTest, EmptyCorpusCompletesEmpty) {
  FlatIndex empty(kDim);
  FlatIndex::SharedScan scan(&empty);
  EXPECT_EQ(scan.tiles(), 0u);
  const size_t slot = scan.Board(query(0), 5);
  std::vector<size_t> done;
  EXPECT_EQ(scan.Step(&done), 1u);
  std::vector<Neighbor> out;
  scan.Harvest(slot, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(FlatSharedScanTest, HarvestedSlotsAreRecycled) {
  FlatIndex::SharedScan scan(index_.get());
  std::vector<std::vector<Neighbor>> hits;
  const size_t first = scan.Board(query(0), 3);
  Drain(&scan, &hits);
  // The freed slot is reused: a session serving one query at a time never
  // grows its rider pool.
  for (size_t round = 1; round < 4; ++round) {
    EXPECT_EQ(scan.Board(query(round), 3), first);
    Drain(&scan, &hits);
    const auto expect = index_->Search(query(round), 3);
    ASSERT_EQ(hits[first].size(), expect.size());
    EXPECT_EQ(hits[first][0].id, expect[0].id);
  }
}

TEST_F(FlatSharedScanTest, StepWithNoRidersIsANoOp) {
  FlatIndex::SharedScan scan(index_.get());
  std::vector<size_t> done;
  EXPECT_EQ(scan.Step(&done), 0u);
  EXPECT_TRUE(done.empty());
  EXPECT_TRUE(scan.empty());
}

}  // namespace
}  // namespace ann
}  // namespace deepjoin
