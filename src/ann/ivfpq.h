// Inverted file with product quantization (Jégou et al., 2011) — the
// billion-scale option of paper §3.3 ("construct HNSW over the coarse
// quantizer of IVFPQ", as Faiss does). A k-means coarse quantizer routes
// vectors to inverted lists; residuals are PQ-encoded; queries scan the
// `nprobe` nearest lists with asymmetric distance computation (ADC) using
// per-subspace lookup tables.
#ifndef DEEPJOIN_ANN_IVFPQ_H_
#define DEEPJOIN_ANN_IVFPQ_H_

#include <memory>
#include <vector>

#include "ann/hnsw.h"
#include "ann/kmeans.h"
#include "ann/vector_index.h"

namespace deepjoin {
namespace ann {

struct IvfPqConfig {
  int dim = 0;
  int nlist = 64;       ///< number of coarse cells
  int m = 8;            ///< PQ subspaces (dim % m == 0)
  int nbits = 6;        ///< bits per code (ksub = 1 << nbits, <= 8)
  int nprobe = 8;       ///< coarse cells scanned per query
  int train_iters = 15;
  u64 seed = 17;
  /// When true, the coarse quantizer is searched through a small HNSW
  /// graph instead of a linear scan — the Faiss-style composition the
  /// paper references for billion-scale data.
  bool hnsw_coarse = false;
};

class IvfPqIndex : public VectorIndex {
 public:
  explicit IvfPqIndex(const IvfPqConfig& config);

  /// Trains the coarse quantizer and PQ codebooks. Must precede Add().
  void Train(const float* data, size_t n);
  bool trained() const { return trained_; }

  void Add(const float* vec) override;
  /// params.nprobe > 0 overrides config.nprobe for this query only (the
  /// old set_nprobe mutator raced with concurrent searches and is gone).
  void SearchInto(const float* query, size_t k, const AnnSearchParams& params,
                  std::vector<Neighbor>* out) const override;
  size_t size() const override { return count_; }
  int dim() const override { return config_.dim; }
  const char* name() const override {
    return config_.hnsw_coarse ? "ivfpq+hnsw" : "ivfpq";
  }

  int nprobe_default() const { return config_.nprobe; }

  /// DJIX payload: config + centroids + codebooks, then the inverted
  /// lists flattened into two page-aligned sections (ids, codes) indexed
  /// by per-cell prefix offsets. options.storage must be kAuto — PQ codes
  /// are already a quantized representation of their own.
  [[nodiscard]] Status Save(BinaryWriter& writer,
                            const SaveOptions& options) const override;

  /// Loads the payload Save wrote. MapMode::kOwned decodes the sections
  /// back into live per-cell lists (mutable, legacy semantics);
  /// MapMode::kMapped keeps them packed and zero-copy — the index is then
  /// read-only (Add aborts) and every list access is bounds-clamped, so
  /// corrupt mapped words yield wrong-but-defined results, never UB. The
  /// coarse HNSW (when configured) is rebuilt from the centroids: it is
  /// nlist-sized, negligible next to the lists.
  static Result<std::unique_ptr<IvfPqIndex>> LoadPayload(
      BinaryReader& reader, const OpenOptions& options);

  /// True for a mapped (packed) open: Add is unavailable.
  bool read_only() const { return packed_; }
  /// True once any lazily-validated mapped page failed its CRC.
  bool tainted() const;

 private:
  int dsub() const { return config_.dim / config_.m; }
  int ksub() const { return 1 << config_.nbits; }

  /// PQ-encodes the residual `r` into `codes` (m bytes).
  void EncodeResidual(const float* r, u8* codes) const;

  /// One inverted list, regardless of backing (live vectors or packed
  /// sections). Packed access clamps offsets to the stored totals and
  /// lazily validates the touched pages.
  struct ListView {
    const u32* ids = nullptr;
    const u8* codes = nullptr;  ///< n * m bytes
    u64 n = 0;
  };
  ListView ListAt(u32 cell) const;

  IvfPqConfig config_;
  bool trained_ = false;
  KMeansResult coarse_;
  std::unique_ptr<HnswIndex> coarse_hnsw_;
  /// PQ codebooks: m * ksub * dsub floats (subspace-major).
  std::vector<float> codebooks_;
  /// Inverted lists: per cell, the ids and the packed codes (live mode).
  std::vector<std::vector<u32>> list_ids_;
  std::vector<std::vector<u8>> list_codes_;
  size_t count_ = 0;

  // Packed read-only mode (MapMode::kMapped open): the flattened lists
  // stay in their mapped sections, addressed by prefix offsets.
  bool packed_ = false;
  std::vector<u32> offsets_;  ///< nlist+1 prefix sums of list lengths
  std::shared_ptr<MappedRegion> ids_region_, codes_region_;
  std::unique_ptr<LazyValidator> ids_check_, codes_check_;
  const u32* ids_base_ = nullptr;
  const u8* codes_base_ = nullptr;
};

}  // namespace ann
}  // namespace deepjoin

#endif  // DEEPJOIN_ANN_IVFPQ_H_
