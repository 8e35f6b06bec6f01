// Embedding-based retrieval (paper §3.3): offline, every repository column
// is encoded and indexed; online, the query column is encoded and its k
// nearest neighbours under Euclidean distance are the discovery results.
// DeepJoin and all embedding baselines share this searcher (as in §5.1,
// "other methods involving column embedding follow the same ANNS scheme").
//
// Live mutability (DESIGN.md §12): the searcher is a concurrent reader /
// single-logical-writer structure. Readers (Search / SearchInto /
// StreamScan) pin an immutable IndexSnapshot through a shared_ptr swap
// (RCU-style: the snapshot lock is held for a pointer copy only, never
// across a query). SearchBatch is one StreamScan group, so every batched
// query — served or direct — runs the same encode-then-search path.
// Mutators (AddColumn, RemoveColumn, Compact, publish, recovery) serialize
// on a writer lock and run alongside readers — the underlying HNSW index
// supports concurrent insert/delete/search natively.
// OpenLive() hands durability to a core::LiveStore: the searcher checks
// that a mutation can apply, has the store log it, then applies it.
#ifndef DEEPJOIN_CORE_SEARCHER_H_
#define DEEPJOIN_CORE_SEARCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ann/hnsw.h"
#include "ann/ivfpq.h"
#include "core/encoders.h"
#include "core/live_store.h"
#include "util/alloc_guard.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace deepjoin {
namespace core {

enum class AnnBackend { kFlat, kHnsw, kIvfPq };

struct SearcherConfig {
  AnnBackend backend = AnnBackend::kHnsw;
  int hnsw_M = 16;
  int hnsw_ef_construction = 120;
  int hnsw_ef_search = 64;  ///< default beam; override per query instead
  // An incrementally grown HNSW index holds HnswConfig's default
  // max_elements (BuildIndex raises it to the repository size); IVFPQ
  // keeps IvfPqConfig's nlist and nbits.
  /// RemoveColumn triggers an automatic Compact() once the index carries
  /// at least `compact_min_dead` tombstones AND they make up at least
  /// `compact_dead_fraction` of the published nodes. Compaction is an
  /// optimisation — an auto-compact failure (e.g. injected publish I/O
  /// error in live mode) does not fail the remove.
  size_t compact_min_dead = 64;
  double compact_dead_fraction = 0.5;
  int ivfpq_m = 8;
  int ivfpq_nprobe = 8;  ///< default probe budget; override per query
  /// Group-commit WAL (live mode): a mutation appends its record, applies
  /// in memory, releases the writer token, and then waits on a shared
  /// committer that issues ONE fsync for every record appended since the
  /// last one (leader/follower). The durability contract is unchanged — a
  /// mutation returns OK only after its record is on disk — but concurrent
  /// mutators share fsyncs instead of paying one each. Off (default):
  /// every record is fsync'd inline before the mutation is applied.
  bool wal_group_commit = false;
  /// How long a group-commit leader lingers for followers before issuing
  /// the shared fsync. 0 = sync immediately (still batches whatever is
  /// already appended). (Config duration, not a timing surface.)
  double wal_commit_window_ms = 0.5;  // dj_lint: allow(adhoc-timing)
};

/// Per-call search options. Replaces the old positional `k` — and the old
/// pattern of mutating SearcherConfig/set_ef_search between calls, which
/// raced with concurrent searches. Overrides ride with the query.
struct SearchOptions {
  size_t k = 10;
  /// > 0: HNSW layer-0 beam width for this query only.
  int ef_search = 0;
  /// > 0: IVFPQ coarse cells scanned for this query only.
  int nprobe = 0;
  /// > 0: rerank k*refine_factor quantized candidates with exact float
  /// distances for this query only (applies to SQ8 indexes that carry a
  /// float refinement store; ignored otherwise).
  int refine_factor = 0;
  /// Collect a per-query trace::QueryStats breakdown. Off: SearchResult
  /// carries ids only and no trace machinery runs for this query.
  bool collect_stats = true;
};

/// Offline build cost breakdown (out-param of BuildIndex). The span tree
/// holds `searcher.build` (the whole build) with two children:
///  - `searcher.build_encode`: the encode of every column, including the
///    flat/HNSW inserts that overlap it on a pool;
///  - `searcher.build_index`: the index work left after the encode (IVFPQ
///    training, and every insert when nothing overlapped).
/// The children sum to no more than `searcher.build`.
struct BuildStats {
  size_t columns = 0;        ///< columns encoded + indexed
  trace::QueryStats trace;   ///< searcher.build span tree
};

/// One RCU-published view of the index. Immutable to readers: a query pins
/// the snapshot (shared_ptr copy under a brief lock) and works entirely
/// off it, so a concurrent Compact/BuildIndex swapping the current
/// snapshot never invalidates an in-flight search. The index object itself
/// is internally concurrent (inserts/removes by the writer are visible to
/// pinned readers — that is the point: a snapshot fixes *identity and id
/// space*, not contents).
struct IndexSnapshot {
  std::shared_ptr<ann::VectorIndex> index;
  /// Maps index ids to repository column ids; nullptr = identity (true
  /// until the first compaction renumbers the id space).
  std::shared_ptr<const IdMap> to_column;
  /// Durable generation this view descends from (0 = in-memory only).
  u64 generation = 0;

  /// The repository column id of index id `id`.
  DJ_NOALLOC u32 ColumnOf(u32 id) const {
    return to_column != nullptr ? to_column->At(id) : id;
  }
};

class EmbeddingSearcher {
 public:
  /// `encoder` must outlive the searcher.
  EmbeddingSearcher(ColumnEncoder* encoder, const SearcherConfig& config);

  /// Encodes and indexes the whole repository (offline phase). When a
  /// thread pool is given, the encoding stage — the dominant cost — runs
  /// in parallel across columns, and a flat or HNSW index inserts each
  /// finished chunk of rows on the calling thread while later chunks
  /// encode; rows still go in as 0..n-1, so the index is the same as a
  /// serial build's (IVFPQ trains on all rows first). Fails
  /// (InvalidArgument) for an IVFPQ backend with an empty repository: its
  /// quantizer needs training data.
  /// Replaces the current snapshot (column ids reset to identity); in live
  /// mode the rebuilt state is immediately published as a new durable
  /// generation (the old generation's WAL describes the replaced index,
  /// so it is retired). A publish failure is returned — the rebuilt index
  /// serves searches from memory, the previous generation stays the
  /// durable state, and the next mutation retries the publish. On
  /// `stats`, reports the build cost breakdown.
  [[nodiscard]] Status BuildIndex(const lake::Repository& repo,
                                  ThreadPool* pool = nullptr,
                                  BuildStats* stats = nullptr);

  /// Incrementally adds one column (new tables landing in the lake):
  /// encodes it and inserts the embedding into the live index, returning
  /// the column id Search will report for it (== repository position when
  /// adds mirror repository appends). Runs alongside concurrent searches.
  /// In live mode the insert is WAL-logged (fsync'd) before it is applied,
  /// so a crash never loses an acknowledged add. HNSW and flat support
  /// this natively; IVFPQ requires a trained quantizer, i.e. a prior
  /// BuildIndex — without one this returns FailedPrecondition.
  [[nodiscard]] Result<u32> AddColumn(const lake::Column& column);

  /// Tombstones the column with id `column_id` (as returned by AddColumn /
  /// reported by Search): it stops appearing in results immediately, for
  /// every ef_search, on Search and on every StreamScan rider (SearchBatch
  /// included) that boards after the remove returns. NotFound when the
  /// id was never added or was already removed. In live mode the delete is
  /// WAL-logged first. May trigger an automatic Compact (see
  /// SearcherConfig).
  [[nodiscard]] Status RemoveColumn(u32 column_id);

  /// Rebuilds the index without tombstoned nodes, off to the side —
  /// searches keep running against the old snapshot until the compacted
  /// one swaps in (RCU). Index ids are renumbered; the snapshot's IdMap
  /// keeps reported column ids stable. In live mode the compacted state is
  /// published as a new durable generation *before* the in-memory swap, so
  /// a crash mid-compaction leaves the previous generation intact. HNSW
  /// backend only.
  [[nodiscard]] Status Compact();

  // ---- Live durability (DESIGN.md §12) ----

  /// Opens (or creates) a live index directory and switches the searcher
  /// into durable mode. An existing directory is recovered bit-identically
  /// (LiveStore::Open); the recovered (or in-memory) state is then rolled
  /// forward as a new generation. HNSW backend only. `env` nullptr →
  /// Env::Default(); the env must outlive the searcher.
  [[nodiscard]] Status OpenLive(const std::string& dir, Env* env = nullptr);

  /// Checkpoints the current state as a new durable generation and starts
  /// a fresh WAL (live mode only). On failure the previous generation —
  /// including the WAL records logged so far — remains the durable state.
  [[nodiscard]] Status PublishSnapshot();

  /// Current durable generation (0 until OpenLive publishes one).
  u64 generation() const;

  /// Persists / restores the built index through the unified DJIX format
  /// (ann::SaveIndexFile / ann::OpenIndex), any backend. `save` can
  /// convert the representation (SaveOptions::storage = kSq8 quantizes at
  /// save time); `open` picks the served representation and residency
  /// (OpenOptions::map = kMapped opens zero-copy in O(1) — read-only:
  /// subsequent mutations fail with FailedPrecondition, searches work).
  /// The loaded kind must match the configured backend.
  ///
  /// Single-file semantics are unchanged: only the index travels, so
  /// loading resets column ids to identity (use OpenLive for a mapping-
  /// preserving lifecycle). Loading into a live searcher republishes the
  /// loaded state as a new generation, like BuildIndex. Saves are atomic
  /// (tmp + fsync + rename; a crash or failure leaves the previous
  /// artifact intact); corrupt or foreign files load as DataLoss, never
  /// an abort. `env` nullptr → Env::Default().
  Status SaveIndex(const std::string& path, Env* env = nullptr,
                   const ann::SaveOptions& save = {}) const;
  Status LoadIndex(const std::string& path, Env* env = nullptr,
                   const ann::OpenOptions& open = {});

  struct SearchResult {
    std::vector<u32> ids;  ///< repository column ids, nearest first
    /// Per-query breakdown: span tree rooted at "searcher.search" (with
    /// "searcher.encode" / "searcher.ann" children) plus backend counters
    /// (hnsw.dist_evals, ivfpq.probes, ...). Empty when
    /// SearchOptions::collect_stats is false.
    trace::QueryStats stats;
  };

  /// Online top-k search for one query column. Safe to call concurrently
  /// with AddColumn / RemoveColumn / Compact from other threads.
  SearchResult Search(const lake::Column& query,
                      const SearchOptions& options = {});

  /// Allocation-free steady-state query path: encodes into thread-local
  /// capacity-reusing scratch, runs the pinned snapshot's index through
  /// VectorIndex::SearchInto, and refills out->ids in place. Search()
  /// forwards here. The DJ_NOALLOC contract (enforced by tools/dj_alloc
  /// and the bans in alloc_guard_test) covers the steady state: scratch
  /// and pools warmed up, options.collect_stats == false (a TraceCollector
  /// allocates by design), and an HNSW backend (flat and IVFPQ SearchInto
  /// build a TopK per query).
  DJ_NOALLOC void SearchInto(const lake::Column& query,
                             const SearchOptions& options, SearchResult* out);

  /// Batched search — the accelerated path standing in for the paper's GPU
  /// rows, which batch the encode stage (see DESIGN.md). One StreamScan
  /// session boards every query as one group, encoded in parallel on
  /// `pool` (nullptr: inline), and results come back in input order. The
  /// batch is served exactly as QueryService serves a boarding group: on a
  /// float flat index, a group of 6 or more riders scores each corpus tile
  /// with one SGEMM (distances within float rounding of Search); on HNSW
  /// and IVFPQ every query runs SearchInto against one pinned snapshot.
  /// Only ids are filled: options.collect_stats is ignored (Search gives
  /// per-query stats). Aborts before an index exists, like Search.
  std::vector<SearchResult> SearchBatch(
      const std::vector<lake::Column>& queries, const SearchOptions& options,
      ThreadPool* pool);

  /// Pins the current snapshot (tests, tools, and callers that need a
  /// stable view across several operations). nullptr before the first
  /// BuildIndex/AddColumn/OpenLive.
  std::shared_ptr<const IndexSnapshot> PinSnapshot() const;

  /// Streaming query session for the serving layer and SearchBatch
  /// (DESIGN.md §13), any backend. Construction pins the current snapshot;
  /// queries Board() between Steps and Harvest() maps hits to repository
  /// column ids. On a flat snapshot every rider rides one full wrap of
  /// FlatIndex::SharedScan. On any other backend a rider is searched at
  /// boarding (VectorIndex::SearchInto with its own options, against the
  /// snapshot current at boarding, so it sees every remove acknowledged
  /// before it boarded) and completes on the next Step. Single-owner (one
  /// dispatcher thread drives it). Sessions are cheap to open; callers
  /// drain and start a fresh one when stale() reports the searcher has
  /// published a newer snapshot.
  class StreamScan {
   public:
    /// One query of a boarding group: the column (caller-owned; read
    /// during Board only), its per-query options, and the rider slot
    /// Board assigns it.
    struct Boarder {
      const lake::Column* query = nullptr;
      SearchOptions options;
      size_t slot = 0;  ///< out: valid until Harvest frees it
    };

    /// False when no index existed when the session opened.
    bool valid() const { return snap_ != nullptr; }
    /// True once the searcher published a snapshot other than the pinned
    /// one (compaction / rebuild): stop boarding, drain, reopen.
    bool stale() const;
    /// Encodes the `n` columns of `group` — in parallel on `pool` when
    /// given — and boards each with its own options, filling
    /// group[i].slot. Requires valid(). options.collect_stats is ignored.
    void Board(Boarder* group, size_t n, ThreadPool* pool);
    /// Boards one column wanting `k` results (the n = 1 group); returns
    /// its rider slot.
    size_t Board(const lake::Column& query, size_t k);
    /// Advances every rider by one step (a corpus tile on flat); appends
    /// completed rider slots to `*done` and returns how many completed.
    size_t Step(std::vector<size_t>* done);
    /// Fills out->ids (nearest first, repository column ids) for a done
    /// rider and recycles its slot. out->stats is left untouched.
    void Harvest(size_t slot, SearchResult* out);
    /// Riders boarded and not yet reported done by Step.
    size_t active() const;
    bool empty() const { return active() == 0; }

   private:
    friend class EmbeddingSearcher;
    const EmbeddingSearcher* searcher_ = nullptr;
    std::shared_ptr<const IndexSnapshot> snap_;
    std::unique_ptr<ann::FlatIndex::SharedScan> scan_;  // flat snapshot
    std::vector<float> qbuf_;            // encoded group, n x dim
    std::vector<ann::Neighbor> hitbuf_;  // index hits staging
    // Riders on other backends: slot -> column ids found at boarding
    // (capacity reused across riders), recycled slots, and the slots
    // that complete on the next Step.
    std::vector<std::vector<u32>> found_;
    std::vector<size_t> free_;
    std::vector<size_t> pending_;
  };

  /// Opens a streaming scan session against the current snapshot.
  StreamScan NewStreamScan() const;

  /// Published vectors in the current index, tombstones included.
  size_t index_size() const;
  /// index_size() minus tombstones: the number of searchable columns.
  size_t live_size() const;

 private:
  // ---- Writer token (LevelDB-style) ----
  // Mutators (BuildIndex commit, AddColumn, RemoveColumn, Compact,
  // publish, recovery, LoadIndex) hold the exclusive writer token for
  // their whole operation — including WAL appends and checkpoint saves —
  // while holding NO mutex, honouring the lock-discipline rule that
  // blocking I/O never runs inside a critical section (tools/dj_deadlock,
  // DESIGN.md §10). writer_mu_ guards only the token flag and is held for
  // the flag flip. Fields below marked "writer token" are accessed only
  // while holding it.
  void AcquireWriter() const;
  void ReleaseWriter() const;
  class WriterLock {
   public:
    explicit WriterLock(const EmbeddingSearcher* s) : s_(s) {
      s_->AcquireWriter();
    }
    ~WriterLock() { s_->ReleaseWriter(); }
    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

   private:
    const EmbeddingSearcher* s_;
  };

  /// Encodes column_at(i) for i in [0, n) into row i of `out` (n x dim),
  /// in parallel across columns on `pool` when it has several threads.
  /// With a pool, `on_chunk` (if set) is ParallelFor's consumer: it gets
  /// each finished range of rows in ascending order on this thread while
  /// later rows still encode. Without a pool the rows encode inline and
  /// on_chunk is not called. Holds no searcher lock: ParallelFor takes the
  /// pool locks, and the writer lock must never be held across a pool wait.
  template <typename ColumnAt>
  void EncodeColumns(
      size_t n, const ColumnAt& column_at, float* out, ThreadPool* pool,
      const std::function<void(size_t, size_t)>& on_chunk = {}) const;

  /// Swaps the published snapshot (brief pointer-copy critical section).
  void Publish(std::shared_ptr<const IndexSnapshot> snap);

  // The *Locked suffix below means "writer token held", not a mutex.

  /// Bootstraps an empty index for the first incremental AddColumn.
  Status EnsureIndexLocked();

  /// Makes `index` + `map` (nullptr = identity) the writer state and the
  /// published snapshot, rebuilding col_to_index_ from its live ids.
  void InstallLocked(std::shared_ptr<ann::VectorIndex> index,
                     std::shared_ptr<IdMap> map, u32 next_column_id);

  /// BuildIndex/LoadIndex: installs `index` with identity column ids. The
  /// open WAL describes the replaced index, so a live searcher invalidates
  /// it and publishes the new state as a fresh generation.
  Status ReplaceIndexLocked(std::shared_ptr<ann::VectorIndex> index);

  /// Publishes `index` + `map` as the store's next generation (live mode),
  /// then installs them. On failure nothing changes.
  Status CommitLocked(std::shared_ptr<ann::VectorIndex> index,
                      std::shared_ptr<IdMap> map);

  /// Before a mutation logs: when the store's log takes no record (after
  /// a failed append, a rebuild or a load), publishes the current state.
  Status PrepareLogLocked();

  Status CompactLocked();

  /// AddColumn/RemoveColumn bodies (writer token scope). `*lsn` is 0 when
  /// the record is already durable (or there is no store); nonzero = the
  /// group-commit LSN the caller must wait on AFTER releasing the token.
  Result<u32> AddColumnImpl(const lake::Column& column, u64* lsn);
  Status RemoveColumnImpl(u32 column_id, u64* lsn);

  ColumnEncoder* encoder_;
  SearcherConfig config_;
  int dim_ = 0;

  /// Guards the published snapshot pointer only; held for a copy, never
  /// across a query or any I/O.
  mutable Mutex snapshot_mu_{"searcher.snapshot", rank::kSnapshot};
  std::shared_ptr<const IndexSnapshot> snapshot_ DJ_GUARDED_BY(snapshot_mu_);

  /// Guards the writer-token flag only (see AcquireWriter): held for flag
  /// flips and the CondVar wait, never across mutator work or I/O.
  mutable Mutex writer_mu_{"searcher.writer", rank::kSearcherWriter};
  mutable CondVar writer_cv_;
  mutable bool writer_busy_ DJ_GUARDED_BY(writer_mu_) = false;

  // ---- Writer-side state (writer token) ----
  /// Next column id to assign; equals index size while the id space is
  /// identity (no compaction yet).
  u32 next_column_id_ = 0;
  /// column id -> current index id for live (non-removed) columns.
  std::unordered_map<u32, u32> col_to_index_;
  /// Mutable alias of the published snapshot's IdMap (nullptr = identity).
  std::shared_ptr<IdMap> map_;

  /// Durable home in live mode (OpenLive); nullptr = in-memory only. Set
  /// once, never replaced.
  std::unique_ptr<LiveStore> store_;};

}  // namespace core
}  // namespace deepjoin

#endif  // DEEPJOIN_CORE_SEARCHER_H_
