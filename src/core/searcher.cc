#include "core/searcher.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "ann/index_io.h"
#include "util/metrics.h"

namespace deepjoin {
namespace core {

namespace {

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
  // A bulk build larger than HnswConfig's default live ceiling raises the
  // capacity to fit (the ceiling gates incremental growth, not builds).
  const u64 cap = std::max<u64>(hc.max_elements, min_capacity);
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
    // Flat and HNSW take rows one at a time, so with a pool each finished
    // chunk is inserted while later chunks encode. Rows still go in as
    // 0..n-1, so the index equals an encode-then-add build. IVFPQ trains
    // on the whole batch before adding any.
    switch (config_.backend) {
      case AnnBackend::kFlat:
        index = std::make_shared<ann::FlatIndex>(dim_);
        break;
      case AnnBackend::kHnsw:
        index = std::make_shared<ann::HnswIndex>(
            MakeHnswConfig(config_, dim_, n));
        break;
      case AnnBackend::kIvfPq:
        break;
    }
    size_t added = 0;  // rows [0, added) are in the index
    {
      DJ_TRACE_SPAN("searcher.build_encode");
      std::function<void(size_t, size_t)> insert;
      if (pool != nullptr && index != nullptr) {
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
        ic.m = config_.ivfpq_m;
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
    publish_st = ReplaceIndexLocked(std::move(index));
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
    index = std::make_shared<ann::FlatIndex>(dim_);
  } else {
    index = std::make_shared<ann::HnswIndex>(MakeHnswConfig(config_, dim_, 0));
  }
  InstallLocked(std::move(index), nullptr, 0);
  return Status::OK();
}

void EmbeddingSearcher::InstallLocked(std::shared_ptr<ann::VectorIndex> index,
                                      std::shared_ptr<IdMap> map,
                                      u32 next_column_id) {
  auto snap = std::make_shared<const IndexSnapshot>(IndexSnapshot{
      std::move(index), map, store_ != nullptr ? store_->generation() : 0});
  const u32 n = static_cast<u32>(snap->index->size());
  col_to_index_.clear();
  col_to_index_.reserve(n);
  for (u32 id = 0; id < n; ++id) {
    if (!snap->index->IsDeleted(id)) col_to_index_[snap->ColumnOf(id)] = id;
  }
  next_column_id_ = next_column_id;
  map_ = std::move(map);
  TombstonesGauge()->Set(static_cast<double>(snap->index->deleted_count()));
  Publish(std::move(snap));
}

Status EmbeddingSearcher::ReplaceIndexLocked(
    std::shared_ptr<ann::VectorIndex> index) {
  const u32 n = static_cast<u32>(index->size());
  InstallLocked(std::move(index), nullptr, n);
  if (store_ == nullptr) return Status::OK();
  // Appending to the open WAL would make recovery replay new records on
  // top of the replaced index's checkpoint. On a publish failure the
  // previous generation stays the durable state and the next mutation
  // retries the publish first.
  store_->InvalidateLog();
  return PrepareLogLocked();
}

Status EmbeddingSearcher::CommitLocked(std::shared_ptr<ann::VectorIndex> index,
                                       std::shared_ptr<IdMap> map) {
  if (store_ != nullptr) {
    DJ_RETURN_IF_ERROR(store_->Publish(*index, map.get(), next_column_id_));
  }
  InstallLocked(std::move(index), std::move(map), next_column_id_);
  return Status::OK();
}

Status EmbeddingSearcher::PrepareLogLocked() {
  if (store_ == nullptr || store_->log_ok()) return Status::OK();
  // Until this publish succeeds every mutation keeps failing, while
  // searches and the durable previous generation stay intact.
  return CommitLocked(PinSnapshot()->index, map_);
}

Result<u32> EmbeddingSearcher::AddColumn(const lake::Column& column) {
  u64 lsn = 0;
  Result<u32> res = AddColumnImpl(column, &lsn);
  if (lsn != 0) {
    // Group commit: the record is appended and the mutation applied, but
    // the acknowledgement waits — outside the writer token, so concurrent
    // mutators pile onto the same fsync — until the record is durable.
    DJ_RETURN_IF_ERROR(store_->WaitDurable(lsn));
  }
  return res;
}

Result<u32> EmbeddingSearcher::AddColumnImpl(const lake::Column& column,
                                             u64* lsn) {
  const WriterLock writer(this);
  DJ_RETURN_IF_ERROR(EnsureIndexLocked());
  auto snap = PinSnapshot();
  ann::HnswIndex* hnsw = config_.backend == AnnBackend::kHnsw
                             ? static_cast<ann::HnswIndex*>(snap->index.get())
                             : nullptr;
  // Check that the insert can apply before it is logged: replay re-applies
  // every logged record, so a logged insert that failed would come back.
  if (hnsw != nullptr && hnsw->read_only()) {
    return Status::FailedPrecondition(
        "AddColumn on a read-only index (opened mapped or SQ8): load it as "
        "owned float storage to mutate it");
  }
  if (hnsw != nullptr && hnsw->size() >= hnsw->capacity()) {
    return Status::FailedPrecondition(
        "hnsw index full (" + std::to_string(hnsw->capacity()) +
        " elements): Compact() or BuildIndex a larger repository");
  }
  DJ_RETURN_IF_ERROR(PrepareLogLocked());
  const u32 col = next_column_id_;
  const std::vector<float> v = encoder_->Encode(column);
  u32 id = static_cast<u32>(snap->index->size());
  if (hnsw != nullptr) {
    // Draw the level, log, then apply: recorded levels make replay
    // bit-identical.
    const i32 level = hnsw->DrawLevel();
    if (store_ != nullptr) {
      DJ_RETURN_IF_ERROR(store_->LogInsert(col, level, v.data(), lsn));
    }
    // IdMap before index: readers that see the published id must find its
    // mapping (the index's release-store of the count is the fence).
    if (map_ != nullptr) map_->Append(col);
    const Status st = hnsw->InsertWithLevel(v.data(), level, &id);
    DJ_CHECK_MSG(st.ok(), "hnsw insert failed after its checks passed");
  } else {
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
  if (lsn != 0) DJ_RETURN_IF_ERROR(store_->WaitDurable(lsn));
  return Status::OK();
}

Status EmbeddingSearcher::RemoveColumnImpl(u32 column_id, u64* lsn) {
  const WriterLock writer(this);
  auto snap = PinSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "RemoveColumn before BuildIndex()/AddColumn()");
  }
  // May rebuild col_to_index_ (a publish reinstalls), so look up after it.
  DJ_RETURN_IF_ERROR(PrepareLogLocked());
  const auto it = col_to_index_.find(column_id);
  if (it == col_to_index_.end()) {
    return Status::NotFound("column " + std::to_string(column_id) +
                            " is not indexed (never added or already "
                            "removed)");
  }
  const u32 id = it->second;
  if (store_ != nullptr) DJ_RETURN_IF_ERROR(store_->LogRemove(id, lsn));
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
    CompactLocked().IgnoreError();
  }
  return Status::OK();
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
  for (const u32 old_id : new_to_old) map->Append(snap->ColumnOf(old_id));
  // Live: the compacted state is published as a durable generation BEFORE
  // the in-memory swap, so a failure (or crash) leaves both disk and
  // memory on the previous, fully-consistent generation.
  DJ_RETURN_IF_ERROR(CommitLocked(std::move(compacted), std::move(map)));
  CompactionsCounter()->Increment();
  return Status::OK();
}

Status EmbeddingSearcher::PublishSnapshot() {
  const WriterLock writer(this);
  if (store_ == nullptr) {
    return Status::FailedPrecondition("PublishSnapshot requires OpenLive()");
  }
  return CommitLocked(PinSnapshot()->index, map_);
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
  const auto snap = PinSnapshot();
  return snap != nullptr ? snap->generation : 0;
}

Status EmbeddingSearcher::OpenLive(const std::string& dir, Env* env) {
  if (config_.backend != AnnBackend::kHnsw) {
    return Status::FailedPrecondition(
        "OpenLive supports the HNSW backend only");
  }
  const WriterLock writer(this);
  if (store_ != nullptr) {
    return Status::FailedPrecondition("OpenLive: searcher is already live");
  }
  auto store = std::make_unique<LiveStore>(dir, env, dim_,
                                           config_.wal_group_commit,
                                           config_.wal_commit_window_ms);
  LiveStore::State recovered;
  DJ_RETURN_IF_ERROR(store->Open(&recovered));
  if (recovered.index != nullptr) {
    InstallLocked(std::move(recovered.index), std::move(recovered.map),
                  recovered.next_column_id);
  } else {
    // Fresh directory: persist whatever is in memory (an empty index
    // when the searcher is fresh too).
    DJ_RETURN_IF_ERROR(EnsureIndexLocked());
  }
  // A freshly opened store takes no record until it publishes, so this
  // rolls the opened state forward as a new generation. On failure the
  // searcher stays in-memory only.
  store_ = std::move(store);
  const Status st = PrepareLogLocked();
  if (!st.ok()) store_.reset();
  return st;
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
  // Single-file load: the id space resets to identity (the file carries
  // the graph only, not the column mapping — see the header).
  const WriterLock writer(this);
  return ReplaceIndexLocked(std::move(index));
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
    for (const auto& h : tls.hits) {
      // Capacity-reusing result buffer; growth is warmup-only.
      out->ids.push_back(snap->ColumnOf(h.id));  // dj_alloc: allow(alloc)
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
  StreamScan scan = NewStreamScan();
  DJ_CHECK_MSG(
      scan.valid(),
      "EmbeddingSearcher::SearchBatch() before BuildIndex()/LoadIndex()");
  std::vector<StreamScan::Boarder> group(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    group[i] = {&queries[i], options};
  }
  scan.Board(group.data(), group.size(), pool);
  // Every rider is done once the session drains; harvest in input order.
  std::vector<size_t> done;
  while (!scan.empty()) scan.Step(&done);
  std::vector<SearchResult> outputs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    scan.Harvest(group[i].slot, &outputs[i]);
  }
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
      ids.push_back(snap->ColumnOf(h.id));
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
    for (const auto& h : hitbuf_) {
      out->ids.push_back(snap_->ColumnOf(h.id));
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

}  // namespace core
}  // namespace deepjoin
