// Durable home of a live index (DESIGN.md §12). A LiveStore owns one
// directory: a MANIFEST naming the committed generation, and per
// generation a checkpoint (index-<gen>.dj) plus the log of mutations made
// since it (wal-<gen>.log). It knows the on-disk formats, numbers and
// retires generations, frames and syncs WAL records (inline, or shared by
// group commit), refuses appends once the log may end in a torn frame,
// and recovers a directory into an index plus id map. It knows nothing of
// encoders or column ids beyond the numbers it is handed: the caller
// (EmbeddingSearcher) checks that a mutation can apply, logs it here,
// then applies it.
#ifndef DEEPJOIN_CORE_LIVE_STORE_H_
#define DEEPJOIN_CORE_LIVE_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "ann/hnsw.h"
#include "util/alloc_guard.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/status.h"

namespace deepjoin {
namespace core {

/// Append-only index-id -> column-id map, shared between the writer and
/// every snapshot taken after the compaction that created it. Readers call
/// At() lock-free: chunk pointers are reserved to capacity up front (so
/// published storage never moves) and an entry for index id X is always
/// appended before the index publishes X (the index's release-store of its
/// count is the fence readers acquire). Single writer by contract
/// (EmbeddingSearcher's writer lock).
class IdMap {
 public:
  explicit IdMap(u32 capacity) : capacity_(capacity) {
    chunks_.reserve((static_cast<size_t>(capacity) + kChunkMask) >>
                    kChunkShift);
  }
  IdMap(const IdMap&) = delete;
  IdMap& operator=(const IdMap&) = delete;

  /// Writer only. Aborts past capacity (the index runs out first: the
  /// searcher checks index capacity before appending).
  void Append(u32 column_id) {
    const u32 i = size_.load(std::memory_order_relaxed);
    DJ_CHECK_MSG(i < capacity_, "IdMap capacity exceeded");
    if ((i & kChunkMask) == 0) {
      // Reserved at construction: the pointer array never reallocates
      // under concurrent readers.
      chunks_.push_back(std::make_unique<u32[]>(kChunkSize));
    }
    chunks_[i >> kChunkShift][i & kChunkMask] = column_id;
    size_.store(i + 1, std::memory_order_release);
  }

  /// Lock-free; `index_id` must be below size() (readers only map ids the
  /// index has published, which are appended first).
  DJ_NOALLOC u32 At(u32 index_id) const {
    return chunks_[index_id >> kChunkShift][index_id & kChunkMask];
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr u32 kChunkShift = 10;
  static constexpr u32 kChunkSize = 1u << kChunkShift;
  static constexpr u32 kChunkMask = kChunkSize - 1;

  const u32 capacity_;
  std::vector<std::unique_ptr<u32[]>> chunks_;
  std::atomic<u32> size_{0};
};

/// Single writer by contract: every call except WaitDurable comes from
/// one thread at a time (EmbeddingSearcher's writer token). WaitDurable is
/// called without it, so concurrent mutators can share one fsync.
class LiveStore {
 public:
  /// A generation's checkpoint with its WAL replayed on top.
  struct State {
    std::shared_ptr<ann::HnswIndex> index;  ///< mutable, owned floats
    std::shared_ptr<IdMap> map;             ///< nullptr = identity ids
    u32 next_column_id = 0;
    u64 generation = 0;
  };

  /// A store over `dir` for `dim`-float rows; call Open before anything
  /// else. `group_commit` picks how records become durable (see
  /// LogInsert); `commit_window_ms` is how long a group-commit leader
  /// lingers for followers. `env` nullptr → Env::Default(); it must
  /// outlive the store.
  LiveStore(std::string dir, Env* env, int dim, bool group_commit,
            double commit_window_ms);

  /// Opens the directory, creating it when missing. When it holds a
  /// MANIFEST, the committed generation is recovered into `*recovered`
  /// (its checkpoint loaded, falling back to the retained previous
  /// generation when that fails, and its WAL replayed up to the first torn
  /// or corrupt frame); otherwise recovered->index stays nullptr. Writes
  /// nothing: a WAL cannot be reopened for append, so the store takes no
  /// record until the caller publishes the opened state as a new
  /// generation.
  [[nodiscard]] Status Open(State* recovered);

  /// Logs an insert of `vec` (dim floats) at HNSW `level` as `column_id`,
  /// or a remove of index id `index_id`. Inline mode returns once the
  /// record is fsync'd (*lsn = 0). Group commit returns once it is
  /// appended, with *lsn the LSN to pass to WaitDurable. Call only for a
  /// mutation that will apply: replay re-applies every logged record. A
  /// failed append leaves the log unusable until the next Publish;
  /// FailedPrecondition while it is.
  [[nodiscard]] Status LogInsert(u32 column_id, i32 level, const float* vec,
                                 u64* lsn);
  [[nodiscard]] Status LogRemove(u32 index_id, u64* lsn);

  /// Blocks until the record with `lsn` is on disk (OK at once for 0).
  /// A failed shared fsync is returned to every waiter it covers and
  /// leaves the log unusable until the next Publish.
  [[nodiscard]] Status WaitDurable(u64 lsn);

  /// Writes `index` (+ `map`, nullptr = identity) as generation
  /// generation() + 1: checkpoint, then a fresh WAL, then the MANIFEST
  /// flip (the commit point); then retires the grandparent generation and
  /// makes the log usable again. On failure the current generation and
  /// its WAL stay authoritative.
  [[nodiscard]] Status Publish(const ann::VectorIndex& index,
                               const IdMap* map, u32 next_column_id);

  /// The open WAL no longer describes memory (the index was rebuilt or
  /// loaded): refuse appends until the next Publish.
  void InvalidateLog() { log_ok_ = false; }

  /// False when the log takes no record until the next Publish: right
  /// after Open, after a failed append or shared fsync, or InvalidateLog.
  bool log_ok() const;

  /// The committed generation (0 before the first Publish of a fresh
  /// directory).
  u64 generation() const { return generation_; }

 private:
  std::string ManifestPath() const;
  std::string IndexPath(u64 gen) const;
  std::string WalPath(u64 gen) const;

  Status RecoverGeneration(u64 gen, State* out);

  /// Frames buf_ (tag + data after 8 reserved bytes) as one record,
  /// appends it, and makes it durable or registers its LSN.
  Status AppendFrame(u64* lsn);

  const std::string dir_;
  Env* const env_;
  const int dim_;
  const bool group_commit_;
  const double commit_window_ms_;
  u64 generation_ = 0;
  u64 prev_generation_ = 0;
  std::unique_ptr<WritableFile> wal_;
  bool log_ok_ = false;
  std::string buf_;  ///< record scratch

  // Group commit: appends register an LSN (writer token held); waits run
  // without it, so one leader's fsync covers every record appended by
  // followers in the meantime. A failed shared sync is sticky until the
  // next Publish.
  mutable Mutex commit_mu_{"live_store.wal_commit", rank::kWalCommit};
  mutable CondVar commit_cv_;
  u64 appended_ DJ_GUARDED_BY(commit_mu_) = 0;  ///< monotonic across WALs
  u64 durable_ DJ_GUARDED_BY(commit_mu_) = 0;
  bool sync_active_ DJ_GUARDED_BY(commit_mu_) = false;
  Status commit_error_ DJ_GUARDED_BY(commit_mu_);
};

}  // namespace core
}  // namespace deepjoin

#endif  // DEEPJOIN_CORE_LIVE_STORE_H_
