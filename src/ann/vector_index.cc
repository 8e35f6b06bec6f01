#include "ann/vector_index.h"

#include <algorithm>

#include "util/kernels.h"
#include "util/top_k.h"
#include "util/trace.h"

namespace deepjoin {
namespace ann {

float SquaredL2Distance(const float* a, const float* b, int dim) {
  // Single-precision kernel accumulation (documented change: this used to
  // accumulate in double). Deterministic per kernel tier; see
  // util/kernels.h for the reduction order.
  return kern::SquaredL2(a, b, dim);
}

void RefineResults(const VectorStore& exact, const float* query, size_t k,
                   std::vector<Neighbor>* out) {
  for (Neighbor& nb : *out) {
    nb.dist = exact.Distance(query, nb.id);
  }
  std::sort(out->begin(), out->end());
  // Shrink via erase: shrinking never reallocates (resize would trip the
  // growth-call check for no reason).
  if (out->size() > k) {
    out->erase(out->begin() + static_cast<long>(k), out->end());
  }
}

FlatIndex::FlatIndex(int dim, StorageKind storage) {
  DJ_CHECK(dim > 0);
  if (storage == StorageKind::kSq8) {
    store_ = std::make_unique<Sq8Store>(dim);
  } else {
    store_ = std::make_unique<FloatStore>(dim);
  }
}

FlatIndex::FlatIndex(std::unique_ptr<VectorStore> store,
                     std::unique_ptr<VectorStore> refine,
                     std::vector<u8> tombstones, size_t deleted)
    : store_(std::move(store)),
      refine_(std::move(refine)),
      tombstones_(std::move(tombstones)),
      deleted_(deleted) {
  DJ_CHECK(store_ != nullptr);
  DJ_CHECK(tombstones_.size() == store_->size());
}

void FlatIndex::Add(const float* vec) {
  DJ_CHECK_MSG(store_->AppendRow(vec).ok(),
               "flat Add on a read-only (mapped) store");
  if (refine_ != nullptr) {
    DJ_CHECK_MSG(refine_->AppendRow(vec).ok(),
                 "flat Add on a read-only refinement store");
  }
  tombstones_.push_back(0);
}

void FlatIndex::AddBatch(const float* data, size_t n) {
  DJ_CHECK_MSG(store_->AppendRows(data, n).ok(),
               "flat AddBatch on a read-only (mapped) store");
  if (refine_ != nullptr) {
    DJ_CHECK_MSG(refine_->AppendRows(data, n).ok(),
                 "flat AddBatch on a read-only refinement store");
  }
  tombstones_.insert(tombstones_.end(), n, 0);
}

void FlatIndex::SearchInto(const float* query, size_t k,
                           const AnnSearchParams& params,
                           std::vector<Neighbor>* out) const {
  DJ_TRACE_SPAN("flat.search");
  out->clear();
  const size_t n = size();
  if (n == 0 || k == 0) return;
  trace::Count("flat.dist_evals", n);
  const bool refine = Refines(params.refine_factor);
  const size_t fetch =
      refine ? k * static_cast<size_t>(params.refine_factor) : k;
  TopK top(fetch);
  for (size_t i = 0; i < n; ++i) {
    if (IsDeleted(static_cast<u32>(i))) continue;  // tombstoned
    const float d = store_->Distance(query, static_cast<u32>(i));
    top.Push(-static_cast<double>(d), static_cast<u32>(i));
  }
  for (const auto& s : top.Take()) {
    out->push_back(Neighbor{static_cast<float>(-s.score), s.id});
  }
  if (refine) RefineResults(*refine_, query, k, out);
}

// ---- Persistence (the payload behind index_io's DJIX header) ----
//
// flat payload := primary_kind:u32 has_refine:u32 deleted:u32[]
//                 store_payload [refine_store_payload]

Status FlatIndex::Save(BinaryWriter& writer,
                       const SaveOptions& options) const {
  const StorageKind want = options.storage == StorageKind::kAuto
                               ? store_->kind()
                               : options.storage;
  const VectorStore* primary = store_.get();
  bool convert_to_sq8 = false;
  const VectorStore* refine = nullptr;
  if (want == store_->kind()) {
    if (want == StorageKind::kSq8) refine = refine_.get();
  } else if (want == StorageKind::kSq8) {
    // float -> SQ8: train quantization over the full corpus at save time.
    convert_to_sq8 = true;
    if (options.keep_float_refine) refine = store_.get();
  } else {
    // SQ8 -> float is only lossless if the exact rows were kept.
    if (refine_ == nullptr || refine_->kind() != StorageKind::kFloat) {
      return Status::FailedPrecondition(
          "cannot save an SQ8 flat index as float without a float "
          "refinement store (save with keep_float_refine to retain one)");
    }
    primary = refine_.get();
  }
  writer.WriteU32(static_cast<u32>(want));
  writer.WriteU32(refine != nullptr ? 1 : 0);
  std::vector<u32> deleted_ids;
  for (size_t i = 0; i < tombstones_.size(); ++i) {
    if (tombstones_[i] != 0) deleted_ids.push_back(static_cast<u32>(i));
  }
  writer.WriteU32Array(deleted_ids.data(), deleted_ids.size());
  if (convert_to_sq8) {
    const float* base = store_->float_base();
    DJ_CHECK(base != nullptr);
    const size_t d = static_cast<size_t>(dim());
    DJ_RETURN_IF_ERROR(Sq8Store::SaveFromRows(
        writer, dim(), size(),
        [base, d](u64 i) { return base + i * d; }));
  } else {
    DJ_RETURN_IF_ERROR(primary->Save(writer));
  }
  if (refine != nullptr) DJ_RETURN_IF_ERROR(refine->Save(writer));
  return writer.status();
}

Result<std::unique_ptr<FlatIndex>> FlatIndex::LoadPayload(
    BinaryReader& reader, const OpenOptions& options) {
  u32 kind_raw = 0, has_refine = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&kind_raw));
  DJ_RETURN_IF_ERROR(reader.ReadU32(&has_refine));
  std::vector<u32> deleted_ids;
  DJ_RETURN_IF_ERROR(reader.ReadU32Array(&deleted_ids));
  if (kind_raw != static_cast<u32>(StorageKind::kFloat) &&
      kind_raw != static_cast<u32>(StorageKind::kSq8)) {
    return Status::DataLoss("flat index: unknown primary storage kind " +
                            std::to_string(kind_raw));
  }
  if (has_refine > 1) {
    return Status::DataLoss("flat index: corrupt has_refine flag");
  }
  const StorageKind primary_kind = static_cast<StorageKind>(kind_raw);
  const StorageKind want = options.storage == StorageKind::kAuto
                               ? primary_kind
                               : options.storage;
  std::unique_ptr<VectorStore> store, refine;
  if (want == primary_kind) {
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
    if (has_refine != 0) {
      if (primary_kind != StorageKind::kSq8) {
        return Status::DataLoss(
            "flat index: float primary with refinement payload");
      }
      auto refine_r = LoadVectorStore(reader, options);
      if (!refine_r.ok()) return refine_r.status();
      refine = std::move(refine_r).value();
    }
  } else if (want == StorageKind::kFloat) {
    // SQ8 file opened as float: only possible via the float refinement
    // payload (dequantizing codes would silently change every distance).
    if (has_refine == 0) {
      return Status::FailedPrecondition(
          "file holds SQ8 only; no float payload to open (saved without "
          "keep_float_refine)");
    }
    auto skipped = SkipVectorStore(reader);
    if (!skipped.ok()) return skipped.status();
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
  } else {
    return Status::FailedPrecondition(
        "file holds float rows; quantize at save time "
        "(SaveOptions.storage = kSq8), not at open");
  }
  if (refine != nullptr) {
    if (refine->kind() != StorageKind::kFloat ||
        refine->dim() != store->dim() || refine->size() != store->size()) {
      return Status::DataLoss(
          "flat index: refinement store does not match primary");
    }
  }
  std::vector<u8> tombstones(store->size(), 0);
  size_t deleted = 0;
  for (const u32 id : deleted_ids) {
    if (id >= tombstones.size()) {
      return Status::DataLoss("flat index: deleted id " + std::to_string(id) +
                              " out of range");
    }
    if (tombstones[id] == 0) {
      tombstones[id] = 1;
      ++deleted;
    }
  }
  if (options.map == MapMode::kOwned) {
    // Owned opens stay mutable (legacy load-then-add semantics): deep-copy
    // the section-backed stores into appendable ones.
    store = store->CloneOwned();
    if (refine != nullptr) refine = refine->CloneOwned();
  }
  return std::make_unique<FlatIndex>(std::move(store), std::move(refine),
                                     std::move(tombstones), deleted);
}

// ---- SharedScan: the cooperative tile-granular scan (DESIGN.md §13) ----

namespace {

// Corpus rows per SGEMM tile. Small enough that one tile of scores
// (nq x kScoreTileRows floats) plus the tile's rows stay cache-resident,
// large enough that the kernel amortises its loop overhead; throughput is
// flat from ~512 to ~64k rows on the machines we measured, so the exact
// value is not load-bearing.
constexpr size_t kScoreTileRows = 2048;

// Below this many riders a tile takes the scalar row-major pass, at or
// above it the SGEMM: an input-size selection, not a knob. It is the
// measured crossover of BM_FlatSearchBatch (100K x 64, 4-vCPU x86-64):
// the scalar arm won through 4 riders, the GEMM from 6 on, and at 5 they
// tied. A tie goes to the scalar arm, which is bit-identical to Search.
constexpr size_t kBatchGemmMinQueries = 6;

}  // namespace

FlatIndex::SharedScan::SharedScan(const FlatIndex* index)
    : index_(index),
      rows_(index->size()),
      tiles_((rows_ + kScoreTileRows - 1) / kScoreTileRows) {}

size_t FlatIndex::SharedScan::Board(const float* query, size_t k,
                                    int refine_factor) {
  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = riders_.size();
    riders_.emplace_back();
  }
  Rider& r = riders_[slot];
  const size_t d = static_cast<size_t>(index_->dim());
  r.query.assign(query, query + d);
  r.qnorm = kern::Dot(query, query, index_->dim());
  r.k = k;
  r.refine = index_->Refines(refine_factor);
  if (k > 0) {
    r.top.emplace(r.refine ? k * static_cast<size_t>(refine_factor) : k);
  } else {
    r.top.reset();
  }
  // k == 0 wants nothing; an empty corpus has nothing. Either way the
  // rider skips scoring and completes on the next Step.
  r.tiles_left = (k == 0) ? 0 : tiles_;
  active_.push_back(slot);
  return slot;
}

size_t FlatIndex::SharedScan::Step(std::vector<size_t>* done) {
  if (active_.empty()) return 0;
  // Cohort: riders with tiles still to ride (k==0 / empty-corpus riders
  // fall straight through to the completion sweep).
  cohort_.clear();
  for (const size_t slot : active_) {
    if (riders_[slot].tiles_left > 0) cohort_.push_back(slot);
  }
  if (!cohort_.empty()) {
    const size_t c = cursor_ * kScoreTileRows;
    const size_t rows = std::min(kScoreTileRows, rows_ - c);
    const size_t d = static_cast<size_t>(index_->dim());
    const size_t nq = cohort_.size();
    trace::Count("flat.dist_evals", rows * nq);
    // Lazily-validated (mapped) stores check this tile's pages once.
    index_->store_->TouchRows(c, rows);
    const float* base = index_->store_->float_base();
    const float* norms = index_->store_->norms_base();
    if (nq < kBatchGemmMinQueries || base == nullptr || norms == nullptr) {
      // Row-major shared pass: each tile row is loaded once and scored
      // against the whole cohort while it sits in L1 (bit-identical to
      // the single-query Search). Non-float stores (SQ8) go through the
      // fused quantized kernel; the codes row equally stays cache-resident.
      for (size_t j = 0; j < rows; ++j) {
        const u32 id = static_cast<u32>(c + j);
        if (index_->IsDeleted(id)) continue;  // tombstoned
        const float* const row = base != nullptr ? base + (c + j) * d
                                                 : nullptr;
        for (const size_t slot : cohort_) {
          Rider& r = riders_[slot];
          const float dist =
              row != nullptr
                  ? kern::SquaredL2(r.query.data(), row, index_->dim())
                  : index_->store_->Distance(r.query.data(), id);
          r.top->Push(-static_cast<double>(dist), id);
        }
      }
    } else {
      // Tiled-SGEMM arm: gather the cohort's queries into a contiguous
      // matrix, compute every query·row dot product of the tile in one
      // SGEMM, and recombine distances from the cached row norms
      // (||q-x||^2 = ||q||^2 - 2 q·x + ||x||^2).
      if (qmat_.size() < nq * d) qmat_.resize(nq * d);
      if (scores_.size() < nq * kScoreTileRows) {
        scores_.resize(nq * kScoreTileRows);
      }
      for (size_t q = 0; q < nq; ++q) {
        const Rider& r = riders_[cohort_[q]];
        std::copy(r.query.begin(), r.query.end(), qmat_.begin() + q * d);
      }
      // SgemmNT accumulates (C += A @ B^T); the reused tile buffer must
      // be zeroed first.
      std::fill(scores_.begin(), scores_.begin() + nq * kScoreTileRows,
                0.0f);
      kern::SgemmNT(static_cast<int>(nq), static_cast<int>(rows),
                    static_cast<int>(d), qmat_.data(), static_cast<int>(d),
                    base + c * d, static_cast<int>(d),
                    scores_.data(), static_cast<int>(kScoreTileRows));
      for (size_t q = 0; q < nq; ++q) {
        Rider& r = riders_[cohort_[q]];
        const float* row = scores_.data() + q * kScoreTileRows;
        for (size_t j = 0; j < rows; ++j) {
          const u32 id = static_cast<u32>(c + j);
          if (index_->IsDeleted(id)) continue;  // tombstoned
          const float dist = r.qnorm + norms[c + j] - 2.0f * row[j];
          r.top->Push(-static_cast<double>(dist), id);
        }
      }
    }
    for (const size_t slot : cohort_) --riders_[slot].tiles_left;
    cursor_ = (cursor_ + 1) % tiles_;
  }
  // Completion sweep (swap-remove: completion order is not FIFO).
  size_t finished = 0;
  for (size_t i = 0; i < active_.size();) {
    const size_t slot = active_[i];
    if (riders_[slot].tiles_left == 0) {
      done->push_back(slot);
      ++finished;
      active_[i] = active_.back();
      active_.pop_back();
    } else {
      ++i;
    }
  }
  return finished;
}

void FlatIndex::SharedScan::Harvest(size_t slot, std::vector<Neighbor>* out) {
  out->clear();
  Rider& r = riders_[slot];
  if (r.top.has_value()) {
    for (const auto& s : r.top->Take()) {
      out->push_back(Neighbor{static_cast<float>(-s.score), s.id});
    }
    r.top.reset();
    if (r.refine) RefineResults(*index_->refine_, r.query.data(), r.k, out);
  }
  free_.push_back(slot);
}

}  // namespace ann
}  // namespace deepjoin
