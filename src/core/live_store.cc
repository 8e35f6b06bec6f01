#include "core/live_store.h"

#include <algorithm>
#include <cstring>

#include "ann/index_io.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace deepjoin {
namespace core {

namespace {

// ---- On-disk formats ----
//
// MANIFEST (AtomicSave'd DJF1 container): the commit point. Naming
// generation G makes index-G.dj + wal-G.log the authoritative state; the
// previous generation's artifacts are retained until the generation after
// next publishes, so recovery always has a fallback.
constexpr u32 kManifestMagic = 0x444A4D46;  // "DJMF"
constexpr u32 kManifestVersion = 1;
// index-<gen>.dj (AtomicSave'd DJF1 container): next_column_id, the
// optional id->column map, then the embedded index as a DJIX payload
// (ann::SaveIndexPayload).
constexpr u32 kCheckpointMagic = 0x444A434B;  // "DJCK"
constexpr u32 kCheckpointVersion = 1;
// wal-<gen>.log (raw appends): a 16-byte header [magic:u32 version:u32
// generation:u64] then records framed as [len:u32][crc32c(payload):u32]
// [payload]. payload := tag:u8 data. A torn tail (incomplete frame or CRC
// mismatch at the end) is ignored on replay, exactly like a write the
// crash interrupted.
constexpr u32 kWalMagic = 0x444A574C;  // "DJWL"
constexpr u32 kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 16;
constexpr u8 kWalInsert = 1;  // u32 column_id, i32 level, float[dim]
constexpr u8 kWalRemove = 2;  // u32 index_id

void PutU32(std::string* s, u32 v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

u32 GetU32(const char* p) {
  u32 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Opens a DJF1 artifact and checks its leading magic and version words.
Status OpenArtifact(BinaryReader& reader, u32 magic, u32 version,
                    const std::string& what) {
  DJ_RETURN_IF_ERROR(reader.Open());
  u32 got = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&got));
  if (got != magic) return Status::DataLoss(what + ": bad magic");
  DJ_RETURN_IF_ERROR(reader.ReadU32(&got));
  if (got != version) return Status::DataLoss(what + ": unsupported version");
  return Status::OK();
}

metrics::Histogram* PublishHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_snapshot_publish_ms");
  return h;
}

metrics::Counter* WalRecordsCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_wal_records_total");
  return c;
}

// Physical WAL fsyncs. records/syncs is the group-commit amortisation
// ratio: 1.0 with per-record syncs, > 1 once commits batch.
metrics::Counter* WalSyncsCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_wal_syncs_total");
  return c;
}

}  // namespace

LiveStore::LiveStore(std::string dir, Env* env, int dim, bool group_commit,
                     double commit_window_ms)
    : dir_(std::move(dir)),
      env_(env != nullptr ? env : Env::Default()),
      dim_(dim),
      group_commit_(group_commit),
      commit_window_ms_(commit_window_ms) {}

std::string LiveStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

std::string LiveStore::IndexPath(u64 gen) const {
  return dir_ + "/index-" + std::to_string(gen) + ".dj";
}

std::string LiveStore::WalPath(u64 gen) const {
  return dir_ + "/wal-" + std::to_string(gen) + ".log";
}

Status LiveStore::Open(State* recovered) {
  *recovered = State{};
  DJ_RETURN_IF_ERROR(env_->CreateDir(dir_));
  if (!env_->FileExists(ManifestPath())) return Status::OK();
  BinaryReader reader(ManifestPath(), env_);
  DJ_RETURN_IF_ERROR(
      OpenArtifact(reader, kManifestMagic, kManifestVersion, "MANIFEST"));
  u64 gen = 0;
  u64 prev = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU64(&gen));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&prev));
  if (gen == 0) return Status::DataLoss("MANIFEST: generation 0");
  Status st = RecoverGeneration(gen, recovered);
  if (!st.ok() && prev != 0) {
    // The committed generation is unusable. Publication writes every
    // artifact before the MANIFEST flip commits them, so this is damage
    // after the fact (e.g. a corrupt checkpoint). The previous generation
    // is retained for exactly this case.
    st = RecoverGeneration(prev, recovered);
    prev = 0;
  }
  if (st.ok()) prev_generation_ = prev;
  return st;
}

Status LiveStore::RecoverGeneration(u64 gen, State* out) {
  // ---- Checkpoint ----
  BinaryReader reader(IndexPath(gen), env_);
  DJ_RETURN_IF_ERROR(OpenArtifact(reader, kCheckpointMagic,
                                  kCheckpointVersion, "checkpoint"));
  u64 next_col = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU64(&next_col));
  u32 has_map = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&has_map));
  std::vector<u32> flat;
  if (has_map != 0) {
    DJ_RETURN_IF_ERROR(reader.ReadU32Array(&flat));
  }
  // Default OpenOptions produce a live owned-float index, which WAL
  // replay below requires (InsertWithLevel).
  auto loaded = ann::LoadIndexPayload(reader);
  if (!loaded.ok()) return loaded.status();
  std::unique_ptr<ann::VectorIndex> any = std::move(loaded).value();
  if (std::strcmp(any->name(), "hnsw") != 0) {
    return Status::DataLoss("checkpoint: embedded index is not hnsw");
  }
  std::shared_ptr<ann::HnswIndex> index(
      static_cast<ann::HnswIndex*>(any.release()));
  if (index->read_only()) {
    return Status::DataLoss("checkpoint: embedded index is not replayable");
  }
  if (index->dim() != dim_) {
    return Status::InvalidArgument("live checkpoint dimensionality mismatch");
  }
  if (has_map != 0 && flat.size() != index->size()) {
    return Status::DataLoss("checkpoint: id map size mismatch");
  }
  std::shared_ptr<IdMap> map;
  if (has_map != 0) {
    map = std::make_shared<IdMap>(index->capacity());
    for (const u32 c : flat) map->Append(c);
  }
  // ---- WAL replay ----
  std::string wal;
  DJ_RETURN_IF_ERROR(ReadFileToString(env_, WalPath(gen), &wal));
  if (wal.size() < kWalHeaderBytes) {
    return Status::DataLoss("WAL: truncated header");
  }
  if (GetU32(wal.data()) != kWalMagic ||
      GetU32(wal.data() + 4) != kWalVersion) {
    return Status::DataLoss("WAL: bad header");
  }
  u64 wal_gen = 0;
  std::memcpy(&wal_gen, wal.data() + 8, sizeof(wal_gen));
  if (wal_gen != gen) return Status::DataLoss("WAL: generation mismatch");
  const size_t vec_bytes = static_cast<size_t>(dim_) * sizeof(float);
  std::vector<float> vec(static_cast<size_t>(dim_));
  size_t off = kWalHeaderBytes;
  while (wal.size() - off >= 8) {
    const u32 len = GetU32(wal.data() + off);
    const u32 crc = GetU32(wal.data() + off + 4);
    if (static_cast<u64>(len) > wal.size() - off - 8) break;  // torn tail
    const char* payload = wal.data() + off + 8;
    // A bad CRC means the record (and therefore everything after it) was
    // never durably acknowledged: stop, exactly like EOF.
    if (Crc32c(payload, len) != crc) break;
    if (len < 1) return Status::DataLoss("WAL: empty record");
    const u8 tag = static_cast<u8>(payload[0]);
    if (tag == kWalInsert) {
      if (len != 9 + vec_bytes) {
        return Status::DataLoss("WAL: bad insert record size");
      }
      const u32 col = GetU32(payload + 1);
      const i32 level = static_cast<i32>(GetU32(payload + 5));
      std::memcpy(vec.data(), payload + 9, vec_bytes);
      u32 id = 0;
      // Recorded levels replace the RNG draw, so the replayed graph is
      // bit-identical to the pre-crash one.
      const Status st = index->InsertWithLevel(vec.data(), level, &id);
      if (!st.ok()) {
        return Status::DataLoss("WAL replay insert failed: " + st.ToString());
      }
      if (map != nullptr) {
        map->Append(col);
      } else if (col != id) {
        return Status::DataLoss("WAL: identity id mapping violated");
      }
      next_col = std::max<u64>(next_col, static_cast<u64>(col) + 1);
    } else if (tag == kWalRemove) {
      if (len != 5) return Status::DataLoss("WAL: bad remove record size");
      const u32 id = GetU32(payload + 1);
      if (id >= index->size()) {
        return Status::DataLoss("WAL: remove of unknown id");
      }
      const Status st = index->Remove(id);
      if (!st.ok()) {
        return Status::DataLoss("WAL replay remove failed: " + st.ToString());
      }
    } else {
      return Status::DataLoss("WAL: unknown record tag");
    }
    off += 8 + static_cast<size_t>(len);
  }
  if (map == nullptr) next_col = std::max<u64>(next_col, index->size());
  *out = State{std::move(index), std::move(map),
               static_cast<u32>(next_col), gen};
  generation_ = gen;
  return Status::OK();
}

Status LiveStore::LogInsert(u32 column_id, i32 level, const float* vec,
                            u64* lsn) {
  buf_.assign(8, '\0');  // len + crc, patched by AppendFrame
  buf_.push_back(static_cast<char>(kWalInsert));
  PutU32(&buf_, column_id);
  PutU32(&buf_, static_cast<u32>(level));
  buf_.append(reinterpret_cast<const char*>(vec),
              static_cast<size_t>(dim_) * sizeof(float));
  return AppendFrame(lsn);
}

Status LiveStore::LogRemove(u32 index_id, u64* lsn) {
  buf_.assign(8, '\0');
  buf_.push_back(static_cast<char>(kWalRemove));
  PutU32(&buf_, index_id);
  return AppendFrame(lsn);
}

Status LiveStore::AppendFrame(u64* lsn) {
  *lsn = 0;
  if (!log_ok()) {
    // After a failed append the log may end in a torn frame, and replay
    // stops at the first bad frame: a record appended after it would be
    // acknowledged yet unreachable.
    return Status::FailedPrecondition(
        "WAL takes no record until the next publish");
  }
  const u32 len = static_cast<u32>(buf_.size() - 8);
  const u32 crc = Crc32c(buf_.data() + 8, len);
  std::memcpy(&buf_[0], &len, sizeof(len));
  std::memcpy(&buf_[4], &crc, sizeof(crc));
  Status st = wal_->Append(buf_.data(), buf_.size());
  if (st.ok()) {
    WalRecordsCounter()->Increment();
    if (group_commit_) {
      // The caller acknowledges only after WaitDurable(*lsn) succeeds.
      MutexLock lock(commit_mu_);
      *lsn = ++appended_;
    } else {
      st = wal_->Sync();
      if (st.ok()) WalSyncsCounter()->Increment();
    }
  }
  if (!st.ok()) log_ok_ = false;
  return st;
}

bool LiveStore::log_ok() const {
  MutexLock lock(commit_mu_);
  return log_ok_ && commit_error_.ok();
}

Status LiveStore::WaitDurable(u64 lsn) DJ_NO_THREAD_SAFETY_ANALYSIS {
  // Leader/follower: the first waiter to find no sync in flight becomes
  // the leader, lingers for the commit window so concurrent mutators'
  // records join, then issues ONE fsync for everything appended. The
  // manual Unlock around the fsync keeps blocking I/O outside the
  // critical section (DESIGN.md §10); the annotation-free analysis cannot
  // follow the hand-over-hand locking here.
  if (lsn == 0) return Status::OK();  // synced inline by AppendFrame
  commit_mu_.Lock();
  for (;;) {
    if (!commit_error_.ok()) {
      const Status st = commit_error_;
      commit_mu_.Unlock();
      return st;
    }
    if (durable_ >= lsn) {
      commit_mu_.Unlock();
      return Status::OK();
    }
    if (sync_active_) {
      // Ride on the in-flight (or imminent) sync. Bounded wait + re-check
      // rather than an unbounded sleep.
      (void)commit_cv_.WaitFor(commit_mu_, std::chrono::milliseconds(100));
      continue;
    }
    sync_active_ = true;
    if (commit_window_ms_ > 0) {
      (void)commit_cv_.WaitFor(
          commit_mu_,
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double, std::milli>(commit_window_ms_)));
    }
    const u64 target = appended_;
    // The writer token cannot swap wal_ while a sync is active (Publish
    // waits for sync_active_ to clear first).
    WritableFile* file = wal_.get();
    commit_mu_.Unlock();
    Status st = file->Sync();
    commit_mu_.Lock();
    sync_active_ = false;
    if (st.ok()) {
      WalSyncsCounter()->Increment();
      if (target > durable_) durable_ = target;
    } else if (commit_error_.ok()) {
      // Sticky: every waiter past durable_ fails, and the next mutation
      // finds log_ok() false and publishes before appending anything.
      commit_error_ = std::move(st);
    }
    commit_cv_.NotifyAll();
  }
}

Status LiveStore::Publish(const ann::VectorIndex& index, const IdMap* map,
                          u32 next_column_id) {
  WallTimer timer;
  const u64 gen = generation_ + 1;
  const std::string index_path = IndexPath(gen);
  // 1. Checkpoint (atomic: tmp + fsync + rename).
  Status st = AtomicSave(index_path, env_, [&](BinaryWriter& w) -> Status {
    w.WriteU32(kCheckpointMagic);
    w.WriteU32(kCheckpointVersion);
    w.WriteU64(next_column_id);
    w.WriteU32(map != nullptr ? 1 : 0);
    if (map != nullptr) {
      std::vector<u32> flat(map->size());
      for (u32 i = 0; i < static_cast<u32>(flat.size()); ++i) {
        flat[i] = map->At(i);
      }
      w.WriteU32Array(flat.data(), flat.size());
    }
    return ann::SaveIndexPayload(index, w);
  });
  if (!st.ok()) return st;
  // 2. Fresh WAL for the new generation (header written + fsync'd so the
  // file is well-formed before the manifest can name it).
  std::unique_ptr<WritableFile> wal;
  st = env_->NewWritableFile(WalPath(gen), &wal);
  if (st.ok()) {
    std::string header;
    PutU32(&header, kWalMagic);
    PutU32(&header, kWalVersion);
    header.append(reinterpret_cast<const char*>(&gen), sizeof(gen));
    st = wal->Append(header.data(), header.size());
    if (st.ok()) st = wal->Sync();
  }
  if (!st.ok()) {
    env_->RemoveFile(index_path).IgnoreError();
    return st;
  }
  // 3. Commit: flip the MANIFEST. Until this rename lands, recovery sees
  // the previous generation; after it, the new one.
  st = AtomicSave(ManifestPath(), env_, [&](BinaryWriter& w) -> Status {
    w.WriteU32(kManifestMagic);
    w.WriteU32(kManifestVersion);
    w.WriteU64(gen);
    w.WriteU64(generation_);  // retained fallback generation
    return w.status();
  });
  if (!st.ok()) {
    env_->RemoveFile(index_path).IgnoreError();
    env_->RemoveFile(WalPath(gen)).IgnoreError();
    return st;
  }
  // 4. Committed. Retire the grandparent (best-effort: stray files are
  // harmless and get overwritten if their generation number recurs).
  if (prev_generation_ != 0) {
    env_->RemoveFile(IndexPath(prev_generation_)).IgnoreError();
    env_->RemoveFile(WalPath(prev_generation_)).IgnoreError();
  }
  {
    // Swap logs only once no group fsync is in flight on the old one (it
    // closes after the lock is released, when `wal` goes out of scope).
    // Every record appended so far was applied in memory before the
    // checkpoint captured that memory, so it is durable through the
    // checkpoint even if its old-WAL frame is not: waiters on old LSNs
    // are satisfied, not stranded.
    MutexLock lock(commit_mu_);
    while (sync_active_) {
      (void)commit_cv_.WaitFor(commit_mu_, std::chrono::milliseconds(100));
    }
    wal_.swap(wal);
    durable_ = appended_;
    commit_error_ = Status::OK();
    commit_cv_.NotifyAll();
  }
  log_ok_ = true;
  prev_generation_ = generation_;
  generation_ = gen;
  PublishHistogram()->Record(timer.ElapsedMillis());
  return Status::OK();
}

}  // namespace core
}  // namespace deepjoin
