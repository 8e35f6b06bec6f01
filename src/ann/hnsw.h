// Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2020) —
// the ANNS algorithm DeepJoin uses for sub-linear search (paper §3.3).
// Implements the standard construction with the neighbour-selection
// heuristic, per-level degree caps (M on upper levels, 2M on level 0), and
// ef-bounded best-first layer search.
//
// Live-mutability additions (DESIGN.md §12): the index is a concurrent
// data structure. `Insert`/`Remove` run alongside `SearchInto` —
// hnswlib-style striped per-node link locks guard the adjacency lists,
// node storage is chunked (pointers pre-reserved) so published vectors
// never move, and an atomic count/entry-point pair publishes each new
// node only after its storage is fully written. Deletes are tombstones:
// the node keeps routing traffic, but a filtered layer-0 search drops it
// from results; `CompactedCopy` rebuilds a dead-heavy graph off to the
// side.
//
// Dual storage modes (DESIGN.md §14): an index is either *live* (the
// mutable chunked-node structure above) or *store-backed read-only* —
// opened from a DJIX file with a packed flat graph and a VectorStore for
// the rows (float or SQ8, owned or mapped). OpenIndex materialises the
// live mode for {kOwned, kFloat} opens (legacy add-after-load semantics);
// every other combination gets the read-only mode, where Insert/Add fail
// (FailedPrecondition / DJ_CHECK) but Remove still tombstones. Packed
// graph reads are clamped everywhere (counts to the degree caps, walks to
// the section bounds, neighbour ids to the pinned count), so a corrupted
// mapped graph yields wrong-but-defined results, never UB.
#ifndef DEEPJOIN_ANN_HNSW_H_
#define DEEPJOIN_ANN_HNSW_H_

#include <atomic>
#include <memory>
#include <vector>

#include "ann/vector_index.h"
#include "util/alloc_guard.h"
#include "util/binary_io.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace deepjoin {
namespace ann {

struct HnswConfig {
  int dim = 0;
  int M = 16;                ///< max out-degree on upper levels
  int ef_construction = 200;
  int ef_search = 64;
  u64 seed = 11;
  /// Capacity ceiling for live inserts. Chunk pointers are reserved up
  /// front so node storage never reallocates under concurrent readers;
  /// Insert past this returns FailedPrecondition (compact or rebuild
  /// bigger). The constructor rounds it up to at least one chunk.
  u32 max_elements = 1u << 20;
};

class HnswIndex : public VectorIndex {
 public:
  explicit HnswIndex(const HnswConfig& config);

  // Movable (Load/CompactedCopy return by value) but, like the previous
  // revision, a moved-from index must not be used. Moves are
  // single-threaded by contract: nobody may hold references into the
  // source across the move.
  HnswIndex(HnswIndex&& other) noexcept;
  HnswIndex& operator=(HnswIndex&& other) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Legacy bulk-build entry point: draws the level and inserts, aborting
  /// on capacity exhaustion (callers size max_elements to the build).
  /// Serial adds produce the same graph the pre-mutability code built.
  void Add(const float* vec) override;

  /// Concurrent-safe insert: draws the node's level, wires it into the
  /// graph, and reports the assigned id / drawn level. Inserts serialize
  /// with each other on an update lock but run alongside SearchInto.
  /// Fails (FailedPrecondition) when max_elements is reached.
  [[nodiscard]] Status Insert(const float* vec, u32* id = nullptr,
                              i32* level = nullptr);

  /// Insert with a caller-provided level instead of an RNG draw — the WAL
  /// replay path (core/searcher) records each insert's drawn level so a
  /// recovered graph is bit-identical to the pre-crash one.
  [[nodiscard]] Status InsertWithLevel(const float* vec, i32 level,
                                       u32* id = nullptr);

  /// Consumes one level draw from the construction RNG without inserting.
  /// The live searcher draws first, logs {level, vector} to its WAL, then
  /// calls InsertWithLevel, so the durable record always matches memory.
  i32 DrawLevel();

  /// Tombstones `id`: it stops appearing in results immediately (filtered
  /// layer-0 collection) but keeps routing traffic until a compaction
  /// rebuilds the graph. Idempotent; NotFound for ids never inserted.
  [[nodiscard]] Status Remove(u32 id) override;
  bool IsDeleted(u32 id) const override;
  size_t deleted_count() const override {
    return dead_.load(std::memory_order_relaxed);
  }

  /// Rebuilds a graph containing only live nodes (off to the side; `this`
  /// keeps serving searches during the copy). `new_to_old[new_id]` maps
  /// each compacted id back to its id in this index. Must not run
  /// concurrently with Insert/Remove on `this` (the caller holds its own
  /// writer lock); concurrent searches are fine — only immutable vectors
  /// and atomic tombstone flags are read.
  HnswIndex CompactedCopy(std::vector<u32>* new_to_old) const;

  /// Thread-safe against concurrent searches and Insert/Remove calls on
  /// the same index (each query checks out its own visited-marker scratch
  /// from a pool and pins the published node count; mutators publish nodes
  /// with release stores and guard adjacency with striped link locks).
  /// The recall/latency knob travels per call: params.ef_search > 0
  /// overrides config.ef_search for this query only, so concurrent
  /// searches with different ef never race on shared state.
  ///
  /// Allocation-free query path: the whole traversal runs on pooled
  /// scratch (visited stamps + the two layer-search heaps + the link
  /// snapshot buffer) and writes into the caller's capacity-reusing
  /// buffer. The DJ_NOALLOC contract covers the steady state — scratch
  /// pool warmed up, no per-query TraceCollector installed — and is
  /// enforced by tools/dj_alloc plus the bans in alloc_guard_test.
  DJ_NOALLOC void SearchInto(const float* query, size_t k,
                             const AnnSearchParams& params,
                             std::vector<Neighbor>* out) const override;
  size_t size() const override {
    return count_.load(std::memory_order_acquire);
  }
  int dim() const override { return config_.dim; }
  const char* name() const override { return "hnsw"; }

  int ef_search_default() const { return config_.ef_search; }
  int max_level() const {
    const u64 ep = entry_point_.load(std::memory_order_acquire);
    return static_cast<int>(ep >> 32) - 1;
  }
  u32 capacity() const { return config_.max_elements; }

  /// Persists graph + rows as a DJIX payload (the offline index build of
  /// §3.3 is the expensive step; serving processes load instead of
  /// rebuilding). options.storage converts the row representation
  /// (float -> SQ8 trains quantization; SQ8 -> float needs a float
  /// refinement store); the graph is written as one page-aligned section
  /// so a later open can map it zero-copy. Concurrent searches are safe
  /// during a live-mode save (links are snapshotted under their stripe
  /// locks); concurrent mutation is not — the caller serializes on its
  /// writer lock.
  [[nodiscard]] Status Save(BinaryWriter& writer,
                            const SaveOptions& options) const override;

  /// Loads the payload Save wrote, after index_io consumed the DJIX
  /// magic/version/kind header. Never aborts: truncation or any
  /// inconsistency in the decoded graph returns DataLoss.
  static Result<std::unique_ptr<HnswIndex>> LoadPayload(
      BinaryReader& reader, const OpenOptions& options);

  /// True for a store-backed index opened read-only (mapped and/or SQ8):
  /// Insert/Add are unavailable; Remove still works.
  bool read_only() const { return store_ != nullptr; }
  /// The row store behind a read-only index (nullptr in live mode).
  const VectorStore* store() const { return store_.get(); }
  /// True once any lazily-validated mapped page failed its CRC.
  bool tainted() const;

 private:
  // Chunked node storage: fixed-size chunks whose outer pointer arrays are
  // reserved at construction, so a published vector/Node never moves and
  // readers index without locks. 256 nodes per chunk keeps the pointer
  // overhead at max_elements/256 * 16 bytes.
  static constexpr u32 kChunkShift = 8;
  static constexpr u32 kChunkSize = 1u << kChunkShift;
  static constexpr u32 kChunkMask = kChunkSize - 1;

  struct Node {
    i32 level = 0;
    std::atomic<bool> deleted{false};
    /// links[lev] for lev in [0, level]. Guarded by the id's link stripe.
    std::vector<std::vector<u32>> links;
  };

  // Striped per-node link locks (hnswlib's label_op locks, coarsened):
  // every read or write of Node::links happens under the owning node's
  // stripe. At most one stripe is held at a time (insert wires forward and
  // back links one node apiece), so equal ranks never nest.
  static constexpr u32 kNumStripes = 64;
  struct LinkStripe {
    Mutex link_mu{"hnsw.links", rank::kHnswLinks};
  };
  struct Sync {
    /// Serializes mutators (Insert/Remove) against each other; never
    /// blocks searches.
    Mutex update_mu{"hnsw.update", rank::kHnswUpdate};
    LinkStripe stripes[kNumStripes];
  };
  static u32 StripeOf(u32 id) { return id & (kNumStripes - 1); }

  const float* VectorAt(u32 id) const {
    return data_chunks_[id >> kChunkShift].get() +
           static_cast<size_t>(id & kChunkMask) * config_.dim;
  }
  Node& NodeAt(u32 id) const {
    return node_chunks_[id >> kChunkShift].get()[id & kChunkMask];
  }
  float Dist(const float* q, u32 id) const {
    return store_ != nullptr
               ? store_->Distance(q, id)
               : SquaredL2Distance(q, VectorAt(id), config_.dim);
  }
  bool DeletedAt(u32 id) const {
    return store_ != nullptr
               ? ro_deleted_[id].load(std::memory_order_acquire) != 0
               : NodeAt(id).deleted.load(std::memory_order_acquire);
  }
  /// Node's top level: live Node metadata, or the packed levels word
  /// (clamped — a corrupt mapped word must not drive a huge walk).
  i32 NodeLevelOf(u32 id) const;

  // Entry point published as one atomic word: ((level + 1) << 32) | id,
  // 0 = empty index. Readers load it BEFORE the count, so the pinned
  // count is always past the entry node (the writer stores count first).
  static u64 PackEntry(i32 level, u32 id) {
    return (static_cast<u64>(static_cast<u32>(level + 1)) << 32) | id;
  }

  /// Per-query work tally for observability; the build path passes
  /// nullptr so Add cost never pollutes search metrics.
  struct SearchWork {
    u64 dist_evals = 0;
    u64 hops = 0;
  };

  // Epoch-stamped visited markers, pooled so concurrent Search calls never
  // share one (the former single mutable buffer was a data race under
  // parallel queries). Acquire/Release touch only the pool mutex; the
  // buffer itself is owned by exactly one query at a time.
  struct VisitedScratch {
    std::vector<u32> stamp;
    u32 epoch = 0;
    /// Published node count pinned when the scratch was acquired: ids at
    /// or past it were published after this query started and are skipped
    /// (their stamp slots may not exist yet).
    u32 bound = 0;
    // SearchLayer's two heaps, kept as push_heap/pop_heap vectors in the
    // pooled scratch so the steady state reuses their capacity instead of
    // constructing two priority_queues per call.
    std::vector<Neighbor> candidates;  // nearest-first frontier (min-heap)
    std::vector<Neighbor> results;     // farthest-first best-ef (max-heap)
    /// Snapshot of one node's adjacency, copied under its stripe lock so
    /// the traversal never reads a list a concurrent insert is growing.
    std::vector<u32> link_buf;
  };
  class VisitedPool {
   public:
    std::unique_ptr<VisitedScratch> Acquire(size_t n) const DJ_EXCLUDES(mu_);
    void Release(std::unique_ptr<VisitedScratch> scratch) const
        DJ_EXCLUDES(mu_);

   private:
    mutable Mutex mu_{"hnsw.visited_pool", rank::kVisited};
    mutable std::vector<std::unique_ptr<VisitedScratch>> free_
        DJ_GUARDED_BY(mu_);
  };

  /// Copies `id`'s level-`lev` adjacency into `*out` under the stripe
  /// lock (capacity-reusing buffer).
  DJ_NOALLOC void CopyLinks(u32 id, int level, std::vector<u32>* out) const;

  /// Greedy single-entry descent within one level. `scratch` supplies the
  /// link snapshot buffer and the pinned bound.
  DJ_NOALLOC u32 GreedyClosest(const float* query, u32 entry, int level,
                               VisitedScratch* scratch,
                               SearchWork* work = nullptr) const;

  /// Best-first search within a level; writes up to `ef` nearest into
  /// `*out` (cleared first), ascending by distance. Runs entirely on the
  /// caller-acquired scratch — no per-call containers. With
  /// `filter_deleted`, tombstoned nodes still route (they stay in the
  /// frontier) but never land in `*out`.
  DJ_NOALLOC void SearchLayer(const float* query, u32 entry, int ef,
                              int level, std::vector<Neighbor>* out,
                              VisitedScratch* scratch, bool filter_deleted,
                              SearchWork* work = nullptr) const;

  /// Malkov's heuristic: keep candidates that are closer to the query than
  /// to any already-kept neighbour (diversifies link directions).
  std::vector<u32> SelectNeighbors(const float* query,
                                   const std::vector<Neighbor>& candidates,
                                   int m) const;

  i32 DrawLevelLocked() DJ_REQUIRES(sync_->update_mu);
  Status InsertWithLevelLocked(const float* vec, i32 level, u32* id_out)
      DJ_REQUIRES(sync_->update_mu);

  /// Serializes the graph into the packed flat layout (levels | level0 |
  /// upper_off | upper, all u32) from either mode; live-mode lists are
  /// snapshotted under their stripe locks and clamped to the degree caps.
  void PackGraph(std::vector<u32>* words, u64* upper_len) const;

  /// Rebinds g_* into a packed graph buffer (called at load and after
  /// moves — a small owned buffer may live in the string's SSO storage,
  /// which moves).
  void SetGraphPointers(const void* base, u64 n, u64 upper_len);
  /// Lazy-validates the graph pages backing `nwords` words at `p`.
  void TouchGraph(const u32* p, u64 nwords) const;

  /// Builds a live (mutable) index from decoded rows + packed graph — the
  /// {kOwned, kFloat} open path's tail. Validates the decoded graph (level
  /// range, list and id counts, entry point, tombstones) as DataLoss.
  static Result<HnswIndex> BuildLive(HnswConfig config, const float* rows,
                                     u64 n, const std::vector<i32>& levels,
                                     const std::vector<u32>& list_sizes,
                                     const std::vector<u32>& all_ids,
                                     u32 entry, i32 max_level,
                                     const std::vector<u32>& deleted_ids);

  HnswConfig config_;
  double level_mult_;
  Rng rng_;  // level draws; guarded by sync_->update_mu after construction

  // Chunk pointer arrays are reserve()'d to capacity in the constructor
  // and only ever push_back'd under update_mu: the data()/element storage
  // readers index through is stable for the index's lifetime.
  std::vector<std::unique_ptr<float[]>> data_chunks_;
  std::vector<std::unique_ptr<Node[]>> node_chunks_;

  /// Number of fully-published nodes. Stored with release after a node's
  /// vector + Node metadata are written; loaded with acquire by readers.
  std::atomic<u32> count_{0};
  /// Tombstone count (live size = count_ - dead_).
  std::atomic<u32> dead_{0};
  /// Packed entry point (see PackEntry); updated after the node is wired.
  std::atomic<u64> entry_point_{0};

  // ---- Read-only store-backed mode (null/empty in live mode) ----
  // Rows live in a VectorStore; the graph is the packed flat layout
  //   levels[n] | level0[n*(1+2M)] | upper_off[n+1] | upper[upper_len]
  // (all u32) backed by either an owned buffer or a mapped region. The
  // shared_ptr keeps the mapping alive for as long as any snapshot chain
  // (searcher snapshot -> index -> region) pins this index — RCU readers
  // never observe an unmapped page.
  std::unique_ptr<VectorStore> store_;
  std::unique_ptr<VectorStore> refine_;  // exact floats for reranking
  std::shared_ptr<MappedRegion> graph_region_;
  std::string graph_owned_;
  std::unique_ptr<LazyValidator> graph_check_;
  const u32* g_levels_ = nullptr;
  const u32* g_level0_ = nullptr;
  const u32* g_upper_off_ = nullptr;
  const u32* g_upper_ = nullptr;
  u64 g_upper_len_ = 0;
  /// Tombstones for the read-only mode (Remove works, Insert does not).
  std::unique_ptr<std::atomic<u8>[]> ro_deleted_;

  // Held by pointer so HnswIndex stays movable (mutexes are not);
  // a moved-from index must not be used.
  std::unique_ptr<Sync> sync_;
  std::unique_ptr<VisitedPool> visited_pool_;
};

}  // namespace ann
}  // namespace deepjoin

#endif  // DEEPJOIN_ANN_HNSW_H_
