// WAL torture at the LiveStore boundary (DESIGN.md §12), with no encoder:
// a history of inserts and removes is logged straight into a store, then
// its WAL is torn at every byte offset of the last records and corrupted
// one byte per stride. Every open must recover exactly an acknowledged
// prefix of the history (checked against a reference index that replays
// the same prefix in memory) or return non-OK, and never crash. Fault-
// labeled: tools/check.sh also runs it under ASan/UBSan.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/live_store.h"
#include "util/env.h"

namespace deepjoin {
namespace core {
namespace {

constexpr int kDim = 8;
constexpr u32 kBase = 6;           // rows in the generation-1 checkpoint
constexpr u32 kFirstColumn = 100;  // base column ids: a non-identity map
constexpr u32 kSteps = 16;         // logged records, inserts:removes 3:1

ann::HnswConfig Config() {
  ann::HnswConfig hc;
  hc.dim = kDim;
  hc.M = 4;
  hc.ef_construction = 16;
  hc.max_elements = 64;
  return hc;
}

std::vector<float> Row(u32 i) {
  std::vector<float> v(kDim);
  for (int d = 0; d < kDim; ++d) {
    v[static_cast<size_t>(d)] = std::sin(0.7f * static_cast<float>(i) +
                                         1.3f * static_cast<float>(d));
  }
  return v;
}

/// One logged mutation: insert Row(column) at `level`, or remove index id
/// `index_id`.
struct Op {
  bool insert = false;
  u32 column = 0;
  i32 level = 0;
  u32 index_id = 0;
};

class LiveStoreTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/live_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    wal_ = dir_ + "/wal-1.log";
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::unique_ptr<LiveStore> OpenStore(const std::string& dir,
                                              Env* env, bool group_commit,
                                              LiveStore::State* recovered) {
    auto store = std::make_unique<LiveStore>(dir, env, kDim, group_commit, 0.0);
    const Status st = store->Open(recovered);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return st.ok() ? std::move(store) : nullptr;
  }

  /// Publishes a base checkpoint with a non-identity id map as generation
  /// 1, then logs the history. ends_[j] is the WAL size once j records
  /// are acknowledged (ends_[0] = the header alone).
  void WriteHistory(bool group_commit) {
    LiveStore::State none;
    auto store = OpenStore(dir_, nullptr, group_commit, &none);
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(none.index, nullptr);
    EXPECT_FALSE(store->log_ok());  // nothing is logged before a publish
    ann::HnswIndex index(Config());
    IdMap map(index.capacity());
    for (u32 i = 0; i < kBase; ++i) {
      i32 level = 0;
      ASSERT_TRUE(index.Insert(Row(kFirstColumn + i).data(), nullptr, &level)
                      .ok());
      base_levels_.push_back(level);
      map.Append(kFirstColumn + i);
    }
    ASSERT_TRUE(store->Publish(index, &map, kFirstColumn + kBase).ok());
    ASSERT_EQ(store->generation(), 1u);
    ends_.push_back(std::filesystem::file_size(wal_));
    u32 next_col = kFirstColumn + kBase;
    for (u32 step = 0; step < kSteps; ++step) {
      Op op;
      u64 lsn = 0;
      if (step % 4 == 3) {
        // Index ids 1, 3, 5 (base rows) and 7 (a logged insert).
        op.index_id = step / 2;
        ASSERT_TRUE(store->LogRemove(op.index_id, &lsn).ok());
        ASSERT_TRUE(index.Remove(op.index_id).ok());
      } else {
        op.insert = true;
        op.column = next_col++;
        op.level = index.DrawLevel();
        const auto v = Row(op.column);
        ASSERT_TRUE(store->LogInsert(op.column, op.level, v.data(), &lsn).ok());
        map.Append(op.column);
        ASSERT_TRUE(index.InsertWithLevel(v.data(), op.level).ok());
      }
      ASSERT_EQ(lsn != 0, group_commit);
      ASSERT_TRUE(store->WaitDurable(lsn).ok());
      ops_.push_back(op);
      ends_.push_back(std::filesystem::file_size(wal_));
    }
    std::ifstream in(wal_, std::ios::binary);
    wal_bytes_.assign(std::istreambuf_iterator<char>(in), {});
    ASSERT_EQ(wal_bytes_.size(), ends_.back());
  }

  /// Replaces the WAL with `bytes` and opens the directory.
  Status OpenWith(const std::string& bytes, LiveStore::State* got) {
    {
      std::ofstream out(wal_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return LiveStore(dir_, nullptr, kDim, false, 0.0).Open(got);
  }

  /// Whole records that end at or before byte `offset` of the WAL.
  size_t RecordsBefore(size_t offset) const {
    size_t n = 0;
    while (n + 1 < ends_.size() && ends_[n + 1] <= offset) ++n;
    return n;
  }

  /// Expects `got` to be exactly the state after the first `n` records.
  void ExpectPrefix(const LiveStore::State& got, size_t n) {
    ann::HnswIndex ref(Config());
    std::vector<u32> cols;
    for (u32 i = 0; i < kBase; ++i) {
      ASSERT_TRUE(
          ref.InsertWithLevel(Row(kFirstColumn + i).data(), base_levels_[i])
              .ok());
      cols.push_back(kFirstColumn + i);
    }
    u32 next_col = kFirstColumn + kBase;
    for (size_t j = 0; j < n; ++j) {
      const Op& op = ops_[j];
      if (op.insert) {
        ASSERT_TRUE(ref.InsertWithLevel(Row(op.column).data(), op.level).ok());
        cols.push_back(op.column);
        next_col = op.column + 1;
      } else {
        ASSERT_TRUE(ref.Remove(op.index_id).ok());
      }
    }
    ASSERT_NE(got.index, nullptr);
    ASSERT_NE(got.map, nullptr);
    EXPECT_EQ(got.generation, 1u);
    EXPECT_EQ(got.next_column_id, next_col);
    ASSERT_EQ(got.index->size(), ref.size());
    ASSERT_EQ(got.map->size(), cols.size());
    for (u32 id = 0; id < static_cast<u32>(ref.size()); ++id) {
      EXPECT_EQ(got.map->At(id), cols[id]) << "id " << id;
      EXPECT_EQ(got.index->IsDeleted(id), ref.IsDeleted(id)) << "id " << id;
    }
    // Same levels, same order: the recovered graph equals the reference.
    for (u32 q = 0; q < 4; ++q) {
      const auto query = Row(1000 + q);
      const auto a = got.index->Search(query.data(), 5);
      const auto b = ref.Search(query.data(), 5);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].dist, b[i].dist);
      }
    }
  }

  std::string dir_;
  std::string wal_;
  std::vector<i32> base_levels_;
  std::vector<Op> ops_;
  std::vector<size_t> ends_;
  std::string wal_bytes_;
};

TEST_F(LiveStoreTortureTest, IntactLogRecoversTheWholeHistory) {
  ASSERT_NO_FATAL_FAILURE(WriteHistory(false));
  LiveStore::State got;
  ASSERT_TRUE(OpenWith(wal_bytes_, &got).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectPrefix(got, kSteps));
}

TEST_F(LiveStoreTortureTest, TornLogRecoversTheAcknowledgedPrefix) {
  ASSERT_NO_FATAL_FAILURE(WriteHistory(false));
  // Every offset inside the header, then every offset of the last three
  // records (two inserts and a remove).
  std::vector<size_t> offsets;
  for (size_t o = 0; o < ends_[0]; ++o) offsets.push_back(o);
  for (size_t o = ends_[kSteps - 3]; o <= ends_[kSteps]; ++o) {
    offsets.push_back(o);
  }
  for (const size_t o : offsets) {
    SCOPED_TRACE("truncated at " + std::to_string(o));
    LiveStore::State got;
    const Status st = OpenWith(wal_bytes_.substr(0, o), &got);
    if (o < ends_[0]) {
      EXPECT_FALSE(st.ok());
      continue;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectPrefix(got, RecordsBefore(o)));
  }
}

TEST_F(LiveStoreTortureTest, FlippedByteRecoversThePrefixBeforeIt) {
  ASSERT_NO_FATAL_FAILURE(WriteHistory(true));  // same bytes as inline sync
  for (size_t o = 0; o < wal_bytes_.size(); o += 3) {
    SCOPED_TRACE("flipped byte " + std::to_string(o));
    std::string bytes = wal_bytes_;
    bytes[o] = static_cast<char>(bytes[o] ^ 0x5a);
    LiveStore::State got;
    const Status st = OpenWith(bytes, &got);
    if (o < ends_[0]) {
      EXPECT_FALSE(st.ok());  // magic, version and generation are checked
      continue;
    }
    // The CRC framing stops replay at the damaged record.
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectPrefix(got, RecordsBefore(o)));
  }
}

TEST_F(LiveStoreTortureTest, FailedAppendRefusesRecordsUntilPublish) {
  FaultInjectionEnv env(Env::Default());
  LiveStore::State none;
  auto store = OpenStore(dir_, &env, false, &none);
  ASSERT_NE(store, nullptr);
  const auto v = Row(0);
  u64 lsn = 0;
  EXPECT_EQ(store->LogInsert(0, 0, v.data(), &lsn).code(),
            StatusCode::kFailedPrecondition);
  ann::HnswIndex index(Config());
  ASSERT_TRUE(store->Publish(index, nullptr, 0).ok());
  ASSERT_TRUE(store->log_ok());

  // A torn append may leave a partial frame at the log's end, so the
  // store refuses every further record until a publish starts a new log.
  env.ResetCounters();
  env.plan().fail_write_index = 0;
  env.plan().short_write = true;
  EXPECT_FALSE(store->LogInsert(0, 0, v.data(), &lsn).ok());
  EXPECT_FALSE(store->log_ok());
  EXPECT_EQ(store->LogRemove(0, &lsn).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store->Publish(index, nullptr, 0).ok());
  EXPECT_EQ(store->generation(), 2u);
  ASSERT_TRUE(store->LogInsert(0, 0, v.data(), &lsn).ok());
  ASSERT_TRUE(index.InsertWithLevel(v.data(), 0).ok());
  store.reset();

  LiveStore::State got;
  ASSERT_NE(OpenStore(dir_, nullptr, false, &got), nullptr);
  ASSERT_NE(got.index, nullptr);
  EXPECT_EQ(got.generation, 2u);
  EXPECT_EQ(got.index->size(), 1u);
  EXPECT_EQ(got.map, nullptr);
  EXPECT_EQ(got.next_column_id, 1u);
}

}  // namespace
}  // namespace core
}  // namespace deepjoin
