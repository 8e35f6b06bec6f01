#include "core/searcher.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "ann/index_io.h"
#include "util/crc32c.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace deepjoin {
namespace core {

namespace {

// ---- Live-directory on-disk formats (DESIGN.md §12) ----
//
// MANIFEST (AtomicSave'd DJF1 container): the commit point. Naming
// generation G makes index-G.dj + wal-G.log the authoritative state; the
// previous generation's artifacts are retained until the generation after
// next publishes, so recovery always has a fallback.
constexpr u32 kManifestMagic = 0x444A4D46;  // "DJMF"
constexpr u32 kManifestVersion = 1;
// index-<gen>.dj (AtomicSave'd DJF1 container): next_column_id, the
// optional id->column map, then the embedded index as a DJIX payload
// (ann::SaveIndexPayload). Checkpoints written before the unified format
// embedded the legacy standalone-HNSW payload instead; recovery reads
// both (ann::LoadIndexPayload dispatches on the embedded magic).
constexpr u32 kCheckpointMagic = 0x444A434B;  // "DJCK"
constexpr u32 kCheckpointVersion = 1;
// wal-<gen>.log (raw appends, fsync'd per record): a 16-byte header
// [magic:u32 version:u32 generation:u64] then records framed as
// [len:u32][crc32c(payload):u32][payload]. payload := tag:u8 data. A torn
// tail (incomplete frame or CRC mismatch at the end) is ignored on replay,
// exactly like a write the crash interrupted.
constexpr u32 kWalMagic = 0x444A574C;  // "DJWL"
constexpr u32 kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 16;
constexpr u8 kWalInsert = 1;  // u32 column_id, i32 level, float[dim]
constexpr u8 kWalRemove = 2;  // u32 index_id

void PutU32(std::string* s, u32 v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s->append(b, sizeof(v));
}

void PutU64(std::string* s, u64 v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s->append(b, sizeof(v));
}

u32 GetU32(const char* p) {
  u32 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

u64 GetU64(const char* p) {
  u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

ann::AnnSearchParams AnnParamsFrom(const SearchOptions& options) {
  ann::AnnSearchParams params;
  params.ef_search = options.ef_search;
  params.nprobe = options.nprobe;
  params.refine_factor = options.refine_factor;
  return params;
}

ann::HnswConfig MakeHnswConfig(const SearcherConfig& config, int dim,
                               u64 min_capacity) {
  ann::HnswConfig hc;
  hc.dim = dim;
  hc.M = config.hnsw_M;
  hc.ef_construction = config.hnsw_ef_construction;
  hc.ef_search = config.hnsw_ef_search;
  // A bulk build larger than the configured live ceiling raises the
  // capacity to fit (the ceiling gates incremental growth, not builds).
  const u64 cap = std::max<u64>(config.hnsw_max_elements, min_capacity);
  hc.max_elements = static_cast<u32>(
      std::min<u64>(cap, std::numeric_limits<u32>::max()));
  return hc;
}

metrics::Counter* SearchesCounter() {
  // Function-local static: the registry lookup allocates once per process,
  // before the steady state the noalloc contract covers.
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
          "dj_searcher_searches_total");
  return c;
}

metrics::Counter* InsertsCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_index_inserts");
  return c;
}

metrics::Counter* DeletesCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_index_deletes");
  return c;
}

metrics::Counter* CompactionsCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_index_compactions");
  return c;
}

metrics::Counter* SwapsCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_index_snapshot_swaps");
  return c;
}

metrics::Gauge* TombstonesGauge() {
  static metrics::Gauge* const g =
      metrics::MetricsRegistry::Global().GetGauge("dj_index_tombstones");
  return g;
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

// Per-thread query scratch for the allocation-free search path: every
// buffer grows to its working size during warmup and then reuses capacity.
struct QueryScratch {
  std::vector<float> q;               // encoded query embedding
  std::vector<ann::Neighbor> hits;    // raw index results
};

}  // namespace

EmbeddingSearcher::EmbeddingSearcher(ColumnEncoder* encoder,
                                     const SearcherConfig& config)
    : encoder_(encoder), config_(config), dim_(encoder->dim()) {}

std::shared_ptr<const IndexSnapshot> EmbeddingSearcher::PinSnapshot() const {
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

void EmbeddingSearcher::Publish(std::shared_ptr<const IndexSnapshot> snap) {
  {
    MutexLock lock(snapshot_mu_);
    snapshot_ = std::move(snap);
  }
  SwapsCounter()->Increment();
}

std::string EmbeddingSearcher::ManifestPath() const {
  return dir_ + "/MANIFEST";
}

std::string EmbeddingSearcher::IndexPath(u64 gen) const {
  return dir_ + "/index-" + std::to_string(gen) + ".dj";
}

std::string EmbeddingSearcher::WalPath(u64 gen) const {
  return dir_ + "/wal-" + std::to_string(gen) + ".log";
}

template <typename ColumnAt>
void EmbeddingSearcher::EncodeColumns(
    size_t n, const ColumnAt& column_at, float* out, ThreadPool* pool,
    const std::function<void(size_t, size_t)>& on_chunk) const {
  // EncodeInto writes straight into the caller's rows — no per-column
  // vector allocation.
  const auto encode_one = [&](size_t i) {
    encoder_->EncodeInto(column_at(i), out + i * static_cast<size_t>(dim_));
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, encode_one, on_chunk);
  } else {
    for (size_t i = 0; i < n; ++i) encode_one(i);
  }
}

Status EmbeddingSearcher::BuildIndex(const lake::Repository& repo,
                                     ThreadPool* pool, BuildStats* stats) {
  if (config_.backend == AnnBackend::kIvfPq && repo.size() == 0) {
    return Status::InvalidArgument(
        "IVFPQ BuildIndex needs a non-empty repository: the coarse "
        "quantizer trains on the indexed columns");
  }
  trace::TraceCollector collector(stats != nullptr);
  std::shared_ptr<ann::VectorIndex> index;
  {
    DJ_TRACE_SPAN("searcher.build");
    const size_t n = repo.size();
    const size_t dim = static_cast<size_t>(dim_);
    std::vector<float> embeddings(n * dim);
    // Flat (float rows) and HNSW take rows one at a time, so with a pool
    // each finished chunk is inserted while later chunks encode. Rows still
    // go in as 0..n-1, so the index equals an encode-then-add build. IVFPQ
    // and an SQ8 flat store train on the whole batch before adding any.
    switch (config_.backend) {
      case AnnBackend::kFlat:
        index = std::make_shared<ann::FlatIndex>(dim_, config_.flat_storage);
        break;
      case AnnBackend::kHnsw:
        index = std::make_shared<ann::HnswIndex>(
            MakeHnswConfig(config_, dim_, n));
        break;
      case AnnBackend::kIvfPq:
        break;
    }
    const bool streams =
        pool != nullptr &&
        (config_.backend == AnnBackend::kHnsw ||
         (config_.backend == AnnBackend::kFlat &&
          config_.flat_storage == ann::StorageKind::kFloat));
    size_t added = 0;  // rows [0, added) are in the index
    {
      DJ_TRACE_SPAN("searcher.build_encode");
      std::function<void(size_t, size_t)> insert;
      if (streams) {
        insert = [&](size_t lo, size_t hi) {
          index->AddBatch(embeddings.data() + lo * dim, hi - lo);
          added = hi;
        };
      }
      EncodeColumns(
          n,
          [&](size_t i) -> const lake::Column& {
            return repo.column(static_cast<u32>(i));
          },
          embeddings.data(), pool, insert);
    }
    {
      DJ_TRACE_SPAN("searcher.build_index");
      if (config_.backend == AnnBackend::kIvfPq) {
        ann::IvfPqConfig ic;
        ic.dim = dim_;
        ic.nlist = config_.ivfpq_nlist;
        ic.m = config_.ivfpq_m;
        ic.nbits = config_.ivfpq_nbits;
        ic.nprobe = config_.ivfpq_nprobe;
        auto idx = std::make_shared<ann::IvfPqIndex>(ic);
        idx->Train(embeddings.data(), n);
        index = std::move(idx);
      }
      index->AddBatch(embeddings.data() + added * dim, n - added);
    }
  }
  Status publish_st = Status::OK();
  {
    const WriterLock writer(this);
    next_column_id_ = static_cast<u32>(repo.size());
    col_to_index_.clear();
    col_to_index_.reserve(repo.size());
    for (u32 i = 0; i < static_cast<u32>(repo.size()); ++i) {
      col_to_index_[i] = i;
    }
    map_.reset();
    Publish(std::make_shared<const IndexSnapshot>(
        IndexSnapshot{std::move(index), nullptr, generation_}));
    if (LiveLocked()) {
      // The open WAL describes mutations against the index this build just
      // replaced — appending to it would make recovery replay new records
      // on top of the old checkpoint. Poison it so no record lands there,
      // then publish the rebuilt state as a fresh generation. On failure
      // the previous generation stays the durable state and the poison
      // makes the next mutation retry the publish first.
      wal_poisoned_ = true;
      publish_st = RepairWalLocked();
    }
  }
  {
    static metrics::Counter* const builds =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_searcher_builds_total");
    static metrics::Counter* const indexed =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_searcher_columns_indexed_total");
    builds->Increment();
    indexed->Add(repo.size());
  }
  if (stats != nullptr) {
    stats->columns = repo.size();
    stats->trace = collector.Finish();
  }
  return publish_st;
}

Status EmbeddingSearcher::EnsureIndexLocked() {
  if (PinSnapshot() != nullptr) return Status::OK();
  // First column of an empty searcher: start an index (IVFPQ cannot — its
  // quantizer needs training data).
  if (config_.backend == AnnBackend::kIvfPq) {
    return Status::FailedPrecondition(
        "IVFPQ needs BuildIndex() before incremental adds");
  }
  std::shared_ptr<ann::VectorIndex> index;
  if (config_.backend == AnnBackend::kFlat) {
    index = std::make_shared<ann::FlatIndex>(dim_, config_.flat_storage);
  } else {
    index = std::make_shared<ann::HnswIndex>(MakeHnswConfig(config_, dim_, 0));
  }
  next_column_id_ = 0;
  col_to_index_.clear();
  map_.reset();
  Publish(std::make_shared<const IndexSnapshot>(
      IndexSnapshot{std::move(index), nullptr, generation_}));
  return Status::OK();
}

IndexSnapshot EmbeddingSearcher::CurrentStateLocked(u64 gen) const {
  auto snap = PinSnapshot();
  DJ_CHECK_MSG(snap != nullptr, "CurrentStateLocked with no index");
  return IndexSnapshot{snap->index, map_, gen};
}

Result<u32> EmbeddingSearcher::AddColumn(const lake::Column& column) {
  u64 lsn = 0;
  Result<u32> res = AddColumnImpl(column, &lsn);
  if (res.ok() && lsn != 0) {
    // Group commit: the record is appended and the mutation applied, but
    // the acknowledgement waits — outside the writer token, so concurrent
    // mutators pile onto the same fsync — until the record is durable.
    DJ_RETURN_IF_ERROR(
        committer_.WaitDurable(lsn, config_.wal_commit_window_ms));
  }
  return res;
}

Result<u32> EmbeddingSearcher::AddColumnImpl(const lake::Column& column,
                                             u64* lsn) {
  const WriterLock writer(this);
  DJ_RETURN_IF_ERROR(EnsureIndexLocked());
  if (LiveLocked()) {
    DJ_RETURN_IF_ERROR(RepairWalLocked());
  }
  auto snap = PinSnapshot();
  const u32 col = next_column_id_;
  const std::vector<float> v = encoder_->Encode(column);
  u32 id = 0;
  if (config_.backend == AnnBackend::kHnsw) {
    auto* hnsw = static_cast<ann::HnswIndex*>(snap->index.get());
    if (hnsw->size() >= hnsw->capacity()) {
      return Status::FailedPrecondition(
          "hnsw index full (" + std::to_string(hnsw->capacity()) +
          " elements): Compact() or rebuild with a larger "
          "hnsw_max_elements");
    }
    // Durability order: draw the level, make the record durable, then
    // apply — the WAL always describes the graph (recorded levels make
    // replay bit-identical), and a logged-but-unapplied record is exactly
    // what replay handles.
    const i32 level = hnsw->DrawLevel();
    if (LiveLocked()) {
      DJ_RETURN_IF_ERROR(WalAppendInsert(col, level, v, lsn));
    }
    // IdMap before index: readers that see the published id must find its
    // mapping (the index's release-store of the count is the fence).
    if (map_ != nullptr) map_->Append(col);
    DJ_RETURN_IF_ERROR(hnsw->InsertWithLevel(v.data(), level, &id));
  } else {
    id = static_cast<u32>(snap->index->size());
    snap->index->Add(v.data());
  }
  if (map_ == nullptr) {
    DJ_CHECK_MSG(id == col, "identity id space drifted");
  }
  col_to_index_[col] = id;
  next_column_id_ = col + 1;
  InsertsCounter()->Increment();
  return col;
}

Status EmbeddingSearcher::RemoveColumn(u32 column_id) {
  u64 lsn = 0;
  DJ_RETURN_IF_ERROR(RemoveColumnImpl(column_id, &lsn));
  if (lsn != 0) {
    DJ_RETURN_IF_ERROR(
        committer_.WaitDurable(lsn, config_.wal_commit_window_ms));
  }
  return Status::OK();
}

Status EmbeddingSearcher::RemoveColumnImpl(u32 column_id, u64* lsn) {
  const WriterLock writer(this);
  auto snap = PinSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "RemoveColumn before BuildIndex()/AddColumn()");
  }
  if (LiveLocked()) {
    DJ_RETURN_IF_ERROR(RepairWalLocked());
  }
  const auto it = col_to_index_.find(column_id);
  if (it == col_to_index_.end()) {
    return Status::NotFound("column " + std::to_string(column_id) +
                            " is not indexed (never added or already "
                            "removed)");
  }
  const u32 id = it->second;
  if (LiveLocked()) {
    DJ_RETURN_IF_ERROR(WalAppendRemove(id, lsn));
  }
  DJ_RETURN_IF_ERROR(snap->index->Remove(id));
  col_to_index_.erase(it);
  DeletesCounter()->Increment();
  const size_t dead = snap->index->deleted_count();
  TombstonesGauge()->Set(static_cast<double>(dead));
  // Auto-compaction keeps a churn-heavy index from filling up with
  // tombstones. Best-effort: compaction is an optimisation, so a failure
  // (e.g. an injected publish I/O error) does not fail the remove — the
  // tombstoned state stays fully consistent and a later trigger retries.
  if (dead >= config_.compact_min_dead &&
      static_cast<double>(dead) >= config_.compact_dead_fraction *
                                       static_cast<double>(
                                           snap->index->size())) {
    if (config_.compaction_pool != nullptr) {
      // Off-thread: the remove returns now; a worker takes the writer
      // token and compacts in the background (tombstoned reads stay
      // correct in the meantime).
      ScheduleCompaction();
    } else {
      CompactLocked().IgnoreError();
    }
  }
  return Status::OK();
}

void EmbeddingSearcher::ScheduleCompaction() {
  bool expected = false;
  // At most one queued/running background compact; concurrent triggers
  // collapse into it (and a later remove re-arms the trigger).
  if (!compact_scheduled_.compare_exchange_strong(expected, true)) return;
  config_.compaction_pool->Submit([this] {
    Compact().IgnoreError();  // best-effort, like the inline trigger
    compact_scheduled_.store(false);
  });
}

Status EmbeddingSearcher::Compact() {
  const WriterLock writer(this);
  return CompactLocked();
}

Status EmbeddingSearcher::CompactLocked() {
  auto snap = PinSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("Compact before an index exists");
  }
  if (config_.backend != AnnBackend::kHnsw) {
    return Status::FailedPrecondition("Compact supports the HNSW backend only");
  }
  const auto* hnsw = static_cast<const ann::HnswIndex*>(snap->index.get());
  // Rebuild off to the side; searches keep hitting the old snapshot.
  std::vector<u32> new_to_old;
  auto compacted =
      std::make_shared<ann::HnswIndex>(hnsw->CompactedCopy(&new_to_old));
  auto map = std::make_shared<IdMap>(compacted->capacity());
  std::unordered_map<u32, u32> col_map;
  col_map.reserve(new_to_old.size());
  for (u32 nid = 0; nid < static_cast<u32>(new_to_old.size()); ++nid) {
    const u32 col = snap->to_column != nullptr
                        ? snap->to_column->At(new_to_old[nid])
                        : new_to_old[nid];
    map->Append(col);
    col_map[col] = nid;
  }
  IndexSnapshot next{std::move(compacted), map, generation_};
  if (LiveLocked()) {
    // Publish the compacted state as a durable generation BEFORE the
    // in-memory swap: a failure (or crash) leaves both disk and memory on
    // the previous, fully-consistent generation.
    next.generation = generation_ + 1;
    DJ_RETURN_IF_ERROR(PublishGenerationLocked(next));
    wal_poisoned_ = false;
  }
  map_ = std::move(map);
  col_to_index_ = std::move(col_map);
  Publish(std::make_shared<const IndexSnapshot>(std::move(next)));
  CompactionsCounter()->Increment();
  TombstonesGauge()->Set(0.0);
  return Status::OK();
}

Status EmbeddingSearcher::PublishSnapshot() {
  const WriterLock writer(this);
  if (!LiveLocked()) {
    return Status::FailedPrecondition("PublishSnapshot requires OpenLive()");
  }
  IndexSnapshot next = CurrentStateLocked(generation_ + 1);
  DJ_RETURN_IF_ERROR(PublishGenerationLocked(next));
  wal_poisoned_ = false;
  Publish(std::make_shared<const IndexSnapshot>(std::move(next)));
  return Status::OK();
}

void EmbeddingSearcher::AcquireWriter() const {
  MutexLock lock(writer_mu_);
  while (writer_busy_) writer_cv_.Wait(writer_mu_);
  writer_busy_ = true;
}

void EmbeddingSearcher::ReleaseWriter() const {
  {
    MutexLock lock(writer_mu_);
    writer_busy_ = false;
  }
  writer_cv_.NotifyOne();
}

u64 EmbeddingSearcher::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

Status EmbeddingSearcher::OpenLive(const std::string& dir, Env* env) {
  if (config_.backend != AnnBackend::kHnsw) {
    return Status::FailedPrecondition(
        "OpenLive supports the HNSW backend only");
  }
  const WriterLock writer(this);
  if (LiveLocked()) {
    return Status::FailedPrecondition("OpenLive: searcher is already live");
  }
  env_ = env != nullptr ? env : Env::Default();
  dir_ = dir;
  Status st = env_->CreateDir(dir_);
  if (st.ok()) {
    if (env_->FileExists(ManifestPath())) {
      st = RecoverLocked();
    } else {
      // Fresh directory: persist whatever is in memory (an empty index
      // when the searcher is fresh too).
      st = EnsureIndexLocked();
    }
  }
  if (st.ok()) {
    // Roll the recovered (or initial) state forward as a new generation:
    // the WAL cannot be re-opened for append (NewWritableFile truncates),
    // so a fresh checkpoint + fresh WAL re-establishes durability.
    IndexSnapshot next = CurrentStateLocked(generation_ + 1);
    st = PublishGenerationLocked(next);
    if (st.ok()) {
      Publish(std::make_shared<const IndexSnapshot>(std::move(next)));
    }
  }
  if (!st.ok()) {
    // Leave the searcher in-memory only; the directory is untouched
    // beyond best-effort artifacts a future OpenLive overwrites.
    dir_.clear();
    env_ = nullptr;
    wal_.reset();
    wal_poisoned_ = false;
    return st;
  }
  return Status::OK();
}

Status EmbeddingSearcher::PublishGenerationLocked(const IndexSnapshot& state) {
  WallTimer timer;
  if (config_.wal_group_commit) {
    // Wait out any in-flight group fsync before the WAL file it targets
    // can be retired below.
    committer_.Drain();
  }
  const u64 gen = state.generation;
  const std::string index_path = IndexPath(gen);
  const u64 next_col = next_column_id_;
  // 1. Checkpoint (atomic: tmp + fsync + rename).
  Status st = AtomicSave(
      index_path, env_, [&](BinaryWriter& w) -> Status {
        w.WriteU32(kCheckpointMagic);
        w.WriteU32(kCheckpointVersion);
        w.WriteU64(next_col);
        w.WriteU32(state.to_column != nullptr ? 1 : 0);
        if (state.to_column != nullptr) {
          std::vector<u32> flat(state.to_column->size());
          for (u32 i = 0; i < static_cast<u32>(flat.size()); ++i) {
            flat[i] = state.to_column->At(i);
          }
          w.WriteU32Array(flat.data(), flat.size());
        }
        return ann::SaveIndexPayload(*state.index, w);
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
    PutU64(&header, gen);
    st = wal->Append(header.data(), header.size());
    if (st.ok()) st = wal->Sync();
  }
  if (!st.ok()) {
    env_->RemoveFile(index_path).IgnoreError();
    return st;
  }
  // 3. Commit: flip the MANIFEST. Until this rename lands, recovery sees
  // the previous generation; after it, the new one.
  st = AtomicSave(
      ManifestPath(), env_, [&](BinaryWriter& w) -> Status {
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
  wal_ = std::move(wal);
  if (config_.wal_group_commit) {
    // The checkpoint above captured every applied mutation, so Reset
    // marks all outstanding LSNs durable and rebinds to the fresh WAL.
    committer_.Reset(wal_.get());
  }
  prev_generation_ = generation_;
  generation_ = gen;
  PublishHistogram()->Record(timer.ElapsedMillis());
  return Status::OK();
}

Status EmbeddingSearcher::RepairWalLocked() {
  if (config_.wal_group_commit && !committer_.Error().ok()) {
    // A shared fsync failed after its records were appended: the log may
    // end in frames that were never made durable. Same remedy as a torn
    // append — roll a fresh generation.
    wal_poisoned_ = true;
  }
  if (!wal_poisoned_) return Status::OK();
  // A WAL append failed mid-record, so the log may end in a torn frame —
  // appending more records after it would make them unreachable on replay
  // (replay stops at the first bad frame). Roll a fresh generation; until
  // that succeeds every mutation keeps failing while searches and the
  // durable previous generation stay intact.
  IndexSnapshot next = CurrentStateLocked(generation_ + 1);
  DJ_RETURN_IF_ERROR(PublishGenerationLocked(next));
  wal_poisoned_ = false;
  Publish(std::make_shared<const IndexSnapshot>(std::move(next)));
  return Status::OK();
}

Status EmbeddingSearcher::RecoverLocked() {
  BinaryReader reader(ManifestPath(), env_);
  DJ_RETURN_IF_ERROR(reader.Open());
  u32 magic = 0;
  u32 version = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kManifestMagic) {
    return Status::DataLoss("MANIFEST: bad magic");
  }
  DJ_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kManifestVersion) {
    return Status::DataLoss("MANIFEST: unsupported version");
  }
  u64 gen = 0;
  u64 prev = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU64(&gen));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&prev));
  if (gen == 0) return Status::DataLoss("MANIFEST: generation 0");
  Status st = RecoverGenerationLocked(gen, prev);
  if (!st.ok() && prev != 0) {
    // The newest generation is unusable (its publish may have been cut
    // down by a crash after the manifest flip but... the manifest flip is
    // the commit point, so in practice: corruption). Its predecessor is
    // retained exactly for this.
    st = RecoverGenerationLocked(prev, 0);
  }
  return st;
}

Status EmbeddingSearcher::RecoverGenerationLocked(u64 gen, u64 manifest_prev) {
  // ---- Checkpoint ----
  BinaryReader reader(IndexPath(gen), env_);
  DJ_RETURN_IF_ERROR(reader.Open());
  u32 magic = 0;
  u32 version = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::DataLoss("checkpoint: bad magic");
  }
  DJ_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kCheckpointVersion) {
    return Status::DataLoss("checkpoint: unsupported version");
  }
  u64 next_col = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU64(&next_col));
  u32 has_map = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&has_map));
  std::vector<u32> flat;
  if (has_map != 0) {
    DJ_RETURN_IF_ERROR(reader.ReadU32Array(&flat));
  }
  // The embedded index may be a DJIX payload (current checkpoints) or the
  // legacy standalone HNSW payload (pre-DJIX checkpoints) — the dispatch
  // handles both. Default OpenOptions produce a live owned-float index,
  // which WAL replay below requires (InsertWithLevel).
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
  if (GetU64(wal.data() + 8) != gen) {
    return Status::DataLoss("WAL: generation mismatch");
  }
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
      if (static_cast<u64>(col) + 1 > next_col) {
        next_col = static_cast<u64>(col) + 1;
      }
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
  // ---- Commit the recovered state ----
  std::unordered_map<u32, u32> col_map;
  const u32 n = static_cast<u32>(index->size());
  for (u32 id = 0; id < n; ++id) {
    if (index->IsDeleted(id)) continue;
    col_map[map != nullptr ? map->At(id) : id] = id;
  }
  next_column_id_ = static_cast<u32>(
      std::max<u64>(next_col, map != nullptr ? 0 : n));
  col_to_index_ = std::move(col_map);
  map_ = map;
  generation_ = gen;
  prev_generation_ = manifest_prev;
  wal_.reset();
  wal_poisoned_ = false;
  TombstonesGauge()->Set(static_cast<double>(index->deleted_count()));
  Publish(std::make_shared<const IndexSnapshot>(
      IndexSnapshot{std::move(index), std::move(map), gen}));
  return Status::OK();
}

Status EmbeddingSearcher::WalAppendInsert(u32 column_id, i32 level,
                                          const std::vector<float>& vec,
                                          u64* lsn) {
  wal_buf_.clear();
  wal_buf_.append(8, '\0');  // len + crc, patched below
  wal_buf_.push_back(static_cast<char>(kWalInsert));
  PutU32(&wal_buf_, column_id);
  PutU32(&wal_buf_, static_cast<u32>(level));
  wal_buf_.append(reinterpret_cast<const char*>(vec.data()),
                  vec.size() * sizeof(float));
  const u32 len = static_cast<u32>(wal_buf_.size() - 8);
  const u32 crc = Crc32c(wal_buf_.data() + 8, len);
  std::memcpy(&wal_buf_[0], &len, sizeof(len));
  std::memcpy(&wal_buf_[4], &crc, sizeof(crc));
  Status st = wal_->Append(wal_buf_.data(), wal_buf_.size());
  if (st.ok()) {
    WalRecordsCounter()->Increment();
    if (config_.wal_group_commit) {
      // Group commit: register the LSN now, fsync later (shared). The
      // caller acknowledges only after WaitDurable(*lsn) succeeds.
      *lsn = committer_.RecordAppended();
    } else {
      st = wal_->Sync();
      if (st.ok()) WalSyncsCounter()->Increment();
    }
  }
  if (!st.ok()) wal_poisoned_ = true;
  return st;
}

Status EmbeddingSearcher::WalAppendRemove(u32 index_id, u64* lsn) {
  wal_buf_.clear();
  wal_buf_.append(8, '\0');
  wal_buf_.push_back(static_cast<char>(kWalRemove));
  PutU32(&wal_buf_, index_id);
  const u32 len = static_cast<u32>(wal_buf_.size() - 8);
  const u32 crc = Crc32c(wal_buf_.data() + 8, len);
  std::memcpy(&wal_buf_[0], &len, sizeof(len));
  std::memcpy(&wal_buf_[4], &crc, sizeof(crc));
  Status st = wal_->Append(wal_buf_.data(), wal_buf_.size());
  if (st.ok()) {
    WalRecordsCounter()->Increment();
    if (config_.wal_group_commit) {
      *lsn = committer_.RecordAppended();
    } else {
      st = wal_->Sync();
      if (st.ok()) WalSyncsCounter()->Increment();
    }
  }
  if (!st.ok()) wal_poisoned_ = true;
  return st;
}

// ---- WalCommitter (group commit; SearcherConfig::wal_group_commit) ----

void EmbeddingSearcher::WalCommitter::Reset(WritableFile* file) {
  MutexLock lock(mu_);
  file_ = file;
  // Everything appended so far was applied in memory under the writer
  // token, and the caller (PublishGenerationLocked) just checkpointed that
  // very memory into the new generation — so every outstanding record is
  // durable through the checkpoint even though its old-WAL frame may not
  // be. Waiters on old LSNs are satisfied, not stranded.
  durable_ = appended_;
  sync_active_ = false;
  error_ = Status::OK();
  cv_.NotifyAll();
}

u64 EmbeddingSearcher::WalCommitter::RecordAppended() {
  MutexLock lock(mu_);
  return ++appended_;  // LSNs are monotonic across WAL files (see Reset)
}

Status EmbeddingSearcher::WalCommitter::WaitDurable(u64 lsn,
                                                    double window_ms)
    DJ_NO_THREAD_SAFETY_ANALYSIS {
  // Leader/follower: the first waiter to find no sync in flight becomes
  // the leader, lingers for the commit window so concurrent mutators'
  // records join, then issues ONE fsync for everything appended. The
  // manual Unlock around the fsync keeps blocking I/O outside the
  // critical section (DESIGN.md §10); the annotation-free analysis cannot
  // follow the hand-over-hand locking here.
  mu_.Lock();
  for (;;) {
    if (!error_.ok()) {
      const Status st = error_;
      mu_.Unlock();
      return st;
    }
    if (durable_ >= lsn) {
      mu_.Unlock();
      return Status::OK();
    }
    if (sync_active_) {
      // Ride on the in-flight (or imminent) sync. Bounded wait + re-check
      // rather than an unbounded sleep.
      (void)cv_.WaitFor(mu_, std::chrono::milliseconds(100));
      continue;
    }
    sync_active_ = true;
    if (window_ms > 0) {
      (void)cv_.WaitFor(
          mu_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::duration<double, std::milli>(window_ms)));
    }
    const u64 target = appended_;
    WritableFile* file = file_;
    mu_.Unlock();
    Status st = file->Sync();
    mu_.Lock();
    sync_active_ = false;
    if (st.ok()) {
      WalSyncsCounter()->Increment();
      if (target > durable_) durable_ = target;
    } else if (error_.ok()) {
      // Sticky: every waiter past durable_ fails, and the next mutation
      // repairs the WAL (RepairWalLocked) before appending anything.
      error_ = std::move(st);
    }
    cv_.NotifyAll();
  }
}

void EmbeddingSearcher::WalCommitter::Drain() {
  MutexLock lock(mu_);
  while (sync_active_) {
    (void)cv_.WaitFor(mu_, std::chrono::milliseconds(100));
  }
}

Status EmbeddingSearcher::WalCommitter::Error() const {
  MutexLock lock(mu_);
  return error_;
}

Status EmbeddingSearcher::SaveIndex(const std::string& path, Env* env,
                                    const ann::SaveOptions& save) const {
  auto snap = PinSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "SaveIndex before BuildIndex()/AddColumn()");
  }
  return ann::SaveIndexFile(*snap->index, path, save, env);
}

Status EmbeddingSearcher::LoadIndex(const std::string& path, Env* env,
                                    const ann::OpenOptions& open) {
  auto loaded = ann::OpenIndex(path, open, env);
  if (!loaded.ok()) return loaded.status();
  std::shared_ptr<ann::VectorIndex> index(std::move(loaded).value());
  if (index->dim() != dim_) {
    return Status::InvalidArgument("index dimensionality mismatch");
  }
  // Mutators downcast through config_.backend, so a kind mismatch would
  // be UB later — reject it here instead.
  const char* kind = index->name();
  const bool kind_matches =
      (config_.backend == AnnBackend::kFlat &&
       std::strcmp(kind, "flat") == 0) ||
      (config_.backend == AnnBackend::kHnsw &&
       std::strcmp(kind, "hnsw") == 0) ||
      (config_.backend == AnnBackend::kIvfPq &&
       std::strncmp(kind, "ivfpq", 5) == 0);
  if (!kind_matches) {
    return Status::FailedPrecondition(
        std::string("LoadIndex: file holds a '") + kind +
        "' index but the searcher is configured for a different backend");
  }
  const WriterLock writer(this);
  // Legacy single-file load: the id space resets to identity (the file
  // carries the graph only, not the column mapping — see the header).
  const u32 n = static_cast<u32>(index->size());
  next_column_id_ = n;
  col_to_index_.clear();
  for (u32 id = 0; id < n; ++id) {
    if (!index->IsDeleted(id)) col_to_index_[id] = id;
  }
  map_.reset();
  Publish(std::make_shared<const IndexSnapshot>(
      IndexSnapshot{std::move(index), nullptr, generation_}));
  if (LiveLocked()) {
    // Same as BuildIndex: the open WAL belongs to the replaced index.
    wal_poisoned_ = true;
    return RepairWalLocked();
  }
  return Status::OK();
}

EmbeddingSearcher::SearchResult EmbeddingSearcher::Search(
    const lake::Column& query, const SearchOptions& options) {
  SearchResult out;
  SearchInto(query, options, &out);
  return out;
}

void EmbeddingSearcher::SearchInto(const lake::Column& query,
                                   const SearchOptions& options,
                                   SearchResult* out) {
  // RCU read side: pin the snapshot once (a shared_ptr copy under a brief
  // lock) and run the whole query against it — a concurrent Compact or
  // BuildIndex swapping the current snapshot cannot pull the index out
  // from under this query.
  const auto snap = PinSnapshot();
  DJ_CHECK_MSG(snap != nullptr,
               "EmbeddingSearcher::Search() before BuildIndex()/LoadIndex()");
  out->ids.clear();
  trace::TraceCollector collector(options.collect_stats);
  {
    DJ_TRACE_SPAN("searcher.search");
    thread_local QueryScratch tls;
    if (tls.q.size() < static_cast<size_t>(dim_)) {
      // Warmup: the embedding buffer grows to dim_ once.
      tls.q.resize(static_cast<size_t>(dim_));  // dj_alloc: allow(alloc)
    }
    {
      DJ_TRACE_SPAN("searcher.encode");
      encoder_->EncodeInto(query, tls.q.data());
    }
    {
      DJ_TRACE_SPAN("searcher.ann");
      snap->index->SearchInto(tls.q.data(), options.k, AnnParamsFrom(options),
                              &tls.hits);
    }
    const IdMap* map = snap->to_column.get();
    for (const auto& h : tls.hits) {
      // Capacity-reusing result buffer; growth is warmup-only.
      out->ids.push_back(map != nullptr ? map->At(h.id)  // dj_alloc: allow(alloc)
                                        : h.id);
    }
  }
  SearchesCounter()->Increment();
  if (options.collect_stats) {
    // Per-query stats allocate by design; collect_stats == true is
    // excluded from the noalloc steady state (see the header contract).
    out->stats = collector.Finish();  // dj_alloc: allow(alloc)
  }
}

std::vector<EmbeddingSearcher::SearchResult> EmbeddingSearcher::SearchBatch(
    const std::vector<lake::Column>& queries, const SearchOptions& options,
    ThreadPool* pool) {
  const auto snap = PinSnapshot();
  DJ_CHECK_MSG(
      snap != nullptr,
      "EmbeddingSearcher::SearchBatch() before BuildIndex()/LoadIndex()");
  std::vector<SearchResult> outputs(queries.size());
  if (queries.empty()) return outputs;
  DJ_TRACE_SPAN("searcher.search_batch");

  // Encoding is the parallel stage (it dominates; §5.4). One flat buffer
  // for the whole batch; EncodeInto avoids per-query allocation. Worker
  // threads carry no trace collector, so the encode stage is reported
  // amortised per query below — that *is* its per-query cost when the
  // stage runs batched.
  std::vector<float> embeddings(queries.size() * static_cast<size_t>(dim_));
  WallTimer encode;
  EncodeColumns(
      queries.size(),
      [&](size_t i) -> const lake::Column& { return queries[i]; },
      embeddings.data(), pool);
  const double encode_ms_per_query =
      encode.ElapsedMillis() / static_cast<double>(queries.size());

  const ann::AnnSearchParams ann_params = AnnParamsFrom(options);
  const IdMap* map = snap->to_column.get();
  std::vector<ann::Neighbor> hits;  // reused across the batch loop
  for (size_t i = 0; i < queries.size(); ++i) {
    trace::TraceCollector collector(options.collect_stats);
    {
      DJ_TRACE_SPAN("searcher.ann");
      snap->index->SearchInto(
          embeddings.data() + i * static_cast<size_t>(dim_), options.k,
          ann_params, &hits);
    }
    outputs[i].ids.reserve(hits.size());
    for (const auto& h : hits) {
      outputs[i].ids.push_back(map != nullptr ? map->At(h.id) : h.id);
    }
    if (options.collect_stats) {
      // Graft amortised encode + exact ANN under a synthetic per-query
      // root, so children sum to the root by construction.
      trace::QueryStats ann_stats = collector.Finish();
      trace::SpanNode enc;
      enc.name = "searcher.encode";
      enc.elapsed_ms = encode_ms_per_query;
      trace::SpanNode root;
      root.name = "searcher.search";
      root.elapsed_ms = encode_ms_per_query + ann_stats.root.elapsed_ms;
      root.children.push_back(std::move(enc));
      root.children.push_back(std::move(ann_stats.root));
      outputs[i].stats.root = std::move(root);
      outputs[i].stats.counters = std::move(ann_stats.counters);
    }
  }
  SearchesCounter()->Add(queries.size());
  return outputs;
}

EmbeddingSearcher::StreamScan EmbeddingSearcher::NewStreamScan() const {
  StreamScan s;
  s.searcher_ = this;
  s.snap_ = PinSnapshot();
  if (s.snap_ != nullptr) {
    const ann::FlatIndex* const flat = s.snap_->index->AsFlat();
    if (flat != nullptr) {
      s.scan_ = std::make_unique<ann::FlatIndex::SharedScan>(flat);
    }
  }
  return s;
}

bool EmbeddingSearcher::StreamScan::stale() const {
  return searcher_ != nullptr && searcher_->PinSnapshot() != snap_;
}

void EmbeddingSearcher::StreamScan::Board(Boarder* group, size_t n,
                                          ThreadPool* pool) {
  DJ_CHECK_MSG(valid(), "StreamScan::Board on an invalid session");
  if (n == 0) return;
  const size_t d = static_cast<size_t>(searcher_->dim_);
  if (qbuf_.size() < n * d) qbuf_.resize(n * d);
  searcher_->EncodeColumns(
      n, [group](size_t i) -> const lake::Column& { return *group[i].query; },
      qbuf_.data(), pool);
  if (scan_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      group[i].slot = scan_->Board(qbuf_.data() + i * d, group[i].options.k,
                                   group[i].options.refine_factor);
    }
    return;
  }
  // Pinned here, not at session open: a session opened before a
  // compaction must not serve a rider sent after a later remove from the
  // old index, which never receives that tombstone.
  const auto snap = searcher_->PinSnapshot();
  const IdMap* const map = snap->to_column.get();
  for (size_t i = 0; i < n; ++i) {
    size_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = found_.size();
      found_.emplace_back();
    }
    snap->index->SearchInto(qbuf_.data() + i * d, group[i].options.k,
                            AnnParamsFrom(group[i].options), &hitbuf_);
    std::vector<u32>& ids = found_[slot];
    ids.clear();
    for (const auto& h : hitbuf_) {
      ids.push_back(map != nullptr ? map->At(h.id) : h.id);
    }
    pending_.push_back(slot);
    group[i].slot = slot;
  }
}

size_t EmbeddingSearcher::StreamScan::Board(const lake::Column& query,
                                            size_t k) {
  Boarder b{&query, SearchOptions{.k = k}};
  Board(&b, 1, nullptr);
  return b.slot;
}

size_t EmbeddingSearcher::StreamScan::Step(std::vector<size_t>* done) {
  if (scan_ != nullptr) return scan_->Step(done);
  const size_t finished = pending_.size();
  done->insert(done->end(), pending_.begin(), pending_.end());
  pending_.clear();
  return finished;
}

void EmbeddingSearcher::StreamScan::Harvest(size_t slot, SearchResult* out) {
  out->ids.clear();
  if (scan_ != nullptr) {
    scan_->Harvest(slot, &hitbuf_);
    const IdMap* const map = snap_->to_column.get();
    for (const auto& h : hitbuf_) {
      out->ids.push_back(map != nullptr ? map->At(h.id) : h.id);
    }
  } else {
    out->ids.assign(found_[slot].begin(), found_[slot].end());
    free_.push_back(slot);
  }
  SearchesCounter()->Increment();
}

size_t EmbeddingSearcher::StreamScan::active() const {
  return scan_ != nullptr ? scan_->active() : pending_.size();
}

size_t EmbeddingSearcher::index_size() const {
  const auto snap = PinSnapshot();
  return snap != nullptr ? snap->index->size() : 0;
}

size_t EmbeddingSearcher::live_size() const {
  const auto snap = PinSnapshot();
  return snap != nullptr ? snap->index->size() - snap->index->deleted_count()
                         : 0;
}

const ann::VectorIndex& EmbeddingSearcher::index() const {
  const auto snap = PinSnapshot();
  DJ_CHECK_MSG(snap != nullptr,
               "EmbeddingSearcher::index() before BuildIndex()/LoadIndex()");
  return *snap->index;
}

}  // namespace core
}  // namespace deepjoin
