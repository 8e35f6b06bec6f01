// Common interface for the vector indexes (flat / HNSW / IVFPQ) plus the
// exact flat index. Paper §3.3: column embeddings are indexed offline and
// searched under Euclidean distance; HNSW is the default, with IVFPQ for
// very large repositories.
#ifndef DEEPJOIN_ANN_VECTOR_INDEX_H_
#define DEEPJOIN_ANN_VECTOR_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ann/vector_store.h"
#include "util/binary_io.h"
#include "util/common.h"
#include "util/status.h"
#include "util/top_k.h"

namespace deepjoin {
namespace ann {

class FlatIndex;

/// A search hit: squared L2 distance and the vector's insertion id.
struct Neighbor {
  float dist;
  u32 id;
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator>(const Neighbor& a, const Neighbor& b) { return b < a; }
};

/// Per-query search knobs. Zero means "use the index's configured
/// default". Overrides travel with the call instead of mutating index
/// state, so concurrent searches with different settings never race on a
/// shared config (the old set_ef_search/set_nprobe mutators are gone).
struct AnnSearchParams {
  int ef_search = 0;  ///< HNSW layer-0 beam width; ignored by other indexes
  int nprobe = 0;     ///< IVFPQ coarse cells scanned; ignored by others
  /// Refinement reranking for quantized (SQ8) indexes: 0 = off; r > 0
  /// over-fetches k*r candidates with quantized distances, then reranks
  /// them with exact float distances when the index carries a float
  /// refinement store (ignored otherwise). Per-call — no index mutation.
  int refine_factor = 0;
};

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Adds one vector; ids are assigned sequentially from 0.
  virtual void Add(const float* vec) = 0;

  /// Tombstones `id`: it stops appearing in results but keeps its id (no
  /// renumbering; storage is reclaimed by a rebuild/compaction). Indexes
  /// without delete support return FailedPrecondition; ids never assigned
  /// return NotFound; deleting a tombstone is OK (idempotent).
  [[nodiscard]] virtual Status Remove(u32 id) {
    (void)id;
    return Status::FailedPrecondition(std::string(name()) +
                                      " does not support Remove");
  }
  virtual bool IsDeleted(u32 id) const {
    (void)id;
    return false;
  }
  /// Number of tombstoned ids (live size == size() - deleted_count()).
  virtual size_t deleted_count() const { return 0; }

  /// Bulk add of n row-major vectors. Virtual so quantizing backends can
  /// treat the batch as a unit (an SQ8 store trains its per-dim lo/scale
  /// on the first batch and encodes it in one block); the default loops
  /// Add per row.
  virtual void AddBatch(const float* data, size_t n) {
    for (size_t i = 0; i < n; ++i) Add(data + i * static_cast<size_t>(dim()));
  }

  /// Serializes this index into an already-Open()ed writer (the payload
  /// after the kDjIndexMagic header, which SaveIndexFile in index_io.h
  /// writes). options.storage can convert the representation at save time
  /// (float -> SQ8 trains quantization; SQ8 -> float requires a float
  /// refinement store). Backends without persistence keep the default.
  [[nodiscard]] virtual Status Save(BinaryWriter& writer,
                                    const SaveOptions& options) const {
    (void)writer;
    (void)options;
    return Status::FailedPrecondition(std::string(name()) +
                                      " does not support Save");
  }

  /// Writes the k nearest neighbours of `query` under (squared) L2 into
  /// `*out` (cleared first), nearest first. The one query method every
  /// backend implements; callers that search repeatedly (the searcher's
  /// hot path, the serving session) reuse `*out`'s capacity, and HnswIndex
  /// implements it allocation-free (DJ_NOALLOC).
  virtual void SearchInto(const float* query, size_t k,
                          const AnnSearchParams& params,
                          std::vector<Neighbor>* out) const = 0;

  /// Convenience form of SearchInto that returns a fresh vector; with no
  /// params, searches with the index's configured defaults.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               const AnnSearchParams& params = {}) const {
    std::vector<Neighbor> out;
    SearchInto(query, k, params, &out);
    return out;
  }

  virtual size_t size() const = 0;
  virtual int dim() const = 0;

  /// Human-readable name for bench output.
  virtual const char* name() const = 0;

  /// Downcast hook for callers that can exploit flat-specific machinery
  /// without RTTI — the serving layer uses it to open a cooperative
  /// SharedScan session. nullptr for every other backend.
  virtual const FlatIndex* AsFlat() const { return nullptr; }
};

/// Exact brute-force index; ground truth for recall tests and the fallback
/// for tiny repositories.
class FlatIndex : public VectorIndex {
 public:
  /// Empty mutable index over an owned store of the given representation
  /// (kFloat by default; kSq8 builds a quantized index directly — the
  /// first AddBatch trains the quantizer).
  explicit FlatIndex(int dim, StorageKind storage = StorageKind::kFloat);

  /// Wraps already-loaded stores (the OpenIndex path). `refine` may be
  /// null; `tombstones` must be store->size() long.
  FlatIndex(std::unique_ptr<VectorStore> store,
            std::unique_ptr<VectorStore> refine, std::vector<u8> tombstones,
            size_t deleted);

  void Add(const float* vec) override;
  void AddBatch(const float* data, size_t n) override;
  [[nodiscard]] Status Remove(u32 id) override {
    if (id >= tombstones_.size()) {
      return Status::NotFound("flat Remove: id " + std::to_string(id) +
                              " never assigned");
    }
    if (tombstones_[id] == 0) {
      tombstones_[id] = 1;
      ++deleted_;
    }
    return Status::OK();
  }
  bool IsDeleted(u32 id) const override {
    return id < tombstones_.size() && tombstones_[id] != 0;
  }
  size_t deleted_count() const override { return deleted_; }
  void SearchInto(const float* query, size_t k, const AnnSearchParams& params,
                  std::vector<Neighbor>* out) const override;
  size_t size() const override { return store_->size(); }
  int dim() const override { return store_->dim(); }
  const char* name() const override { return "flat"; }
  const FlatIndex* AsFlat() const override { return this; }

  /// The row storage being searched (float or SQ8, owned or mapped).
  const VectorStore& store() const { return *store_; }
  /// Exact float rows for refine_factor reranking, or nullptr.
  const VectorStore* refine_store() const { return refine_.get(); }

  [[nodiscard]] Status Save(BinaryWriter& writer,
                            const SaveOptions& options) const override;
  /// Loads the payload that Save wrote, after index_io has consumed the
  /// DJIX magic/version/kind header.
  static Result<std::unique_ptr<FlatIndex>> LoadPayload(
      BinaryReader& reader, const OpenOptions& options);

  /// Raw float row access; only valid for float-representation stores
  /// (DJ_CHECKs that the store exposes raw floats).
  const float* vector(u32 id) const {
    const float* base = store_->float_base();
    DJ_CHECK(base != nullptr);
    return base + static_cast<size_t>(id) * static_cast<size_t>(dim());
  }

  /// Cooperative shared scan (DESIGN.md §13), the flat index's only
  /// multi-query scorer: the corpus is scored one tile at a time around a
  /// circular cursor; a query boards between any two tiles, rides exactly
  /// one wrap (every tile once), and completes. An arrival therefore
  /// waits at most one tile (~sub-millisecond) instead of a full in-flight
  /// corpus pass — this is what keeps the serving layer's low-rate tail
  /// near the single-query floor — while every rider on a tile shares its
  /// single corpus stream (scalar row-major below the GEMM cutover, tiled
  /// SGEMM at or above it). Results match Search(): every live row is
  /// scored exactly once per rider, and refine_factor reranks the same way.
  ///
  /// Single-owner (one dispatcher thread drives Board/Step/Harvest), and
  /// the same concurrency contract as Search: no concurrent structural
  /// mutation of the flat index. The row count is frozen at construction
  /// — rows added later are not scanned; start a new session instead.
  class SharedScan {
   public:
    explicit SharedScan(const FlatIndex* index);
    SharedScan(const SharedScan&) = delete;
    SharedScan& operator=(const SharedScan&) = delete;

    /// Boards one query (copied out) wanting `k` results; returns the
    /// rider's slot, valid until Harvest frees it. k == 0 or an empty
    /// corpus completes with no hits on the next Step. `refine_factor`
    /// follows AnnSearchParams: on a quantized store with a refinement
    /// store the rider keeps k*refine_factor candidates and Harvest
    /// reranks them with exact distances, as Search does.
    size_t Board(const float* query, size_t k, int refine_factor = 0);

    /// Scores the next tile for every active rider and appends the slots
    /// of riders that just completed their wrap to `*done` (not cleared).
    /// Returns how many completed; 0 with no riders is a no-op.
    size_t Step(std::vector<size_t>* done);

    /// Moves rider `slot`'s results (nearest first) into `*out` (cleared
    /// first) and recycles the slot. Call exactly once per done slot.
    void Harvest(size_t slot, std::vector<Neighbor>* out);

    size_t active() const { return active_.size(); }
    bool empty() const { return active_.empty(); }
    /// Tiles in one full wrap (0 for an empty corpus).
    size_t tiles() const { return tiles_; }

   private:
    struct Rider {
      std::vector<float> query;  ///< owned copy; capacity reused via slots
      float qnorm = 0.0f;        ///< ||q||^2 for the GEMM recombination
      std::optional<TopK> top;   ///< unset for k == 0 and after Harvest
      size_t k = 0;              ///< results wanted
      bool refine = false;       ///< rerank top's candidates at Harvest
      size_t tiles_left = 0;     ///< completes when this hits 0
    };

    const FlatIndex* const index_;
    const size_t rows_;  ///< frozen at construction (see class comment)
    const size_t tiles_;
    size_t cursor_ = 0;  ///< next tile to score

    std::vector<Rider> riders_;   ///< slot pool
    std::vector<size_t> free_;    ///< recycled slots
    std::vector<size_t> active_;  ///< riding slots (order not FIFO)
    // Per-tile scratch; capacity reused across steps.
    std::vector<size_t> cohort_;  ///< active slots scored this tile
    std::vector<float> qmat_;     ///< cohort queries, row-major
    std::vector<float> scores_;   ///< cohort x tile dot products
  };

 private:
  /// True when a search with this refine_factor over-fetches and reranks:
  /// a quantized store that carries an exact refinement store.
  bool Refines(int refine_factor) const {
    return refine_factor > 0 && refine_ != nullptr &&
           store_->kind() != StorageKind::kFloat;
  }

  std::unique_ptr<VectorStore> store_;   // searched representation
  std::unique_ptr<VectorStore> refine_;  // exact floats for reranking
  std::vector<u8> tombstones_;           // 1 = removed from results
  size_t deleted_ = 0;
};

/// Squared Euclidean distance (the common metric of all indexes).
float SquaredL2Distance(const float* a, const float* b, int dim);

/// Reranks the candidates in `*out` (quantized distances) with exact
/// distances from `exact`, keeping the k nearest. The refine_factor
/// post-pass shared by flat and HNSW search.
void RefineResults(const VectorStore& exact, const float* query, size_t k,
                   std::vector<Neighbor>* out);

}  // namespace ann
}  // namespace deepjoin

#endif  // DEEPJOIN_ANN_VECTOR_INDEX_H_
