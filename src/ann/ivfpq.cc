#include "ann/ivfpq.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/crc32c.h"
#include "util/top_k.h"
#include "util/trace.h"

namespace deepjoin {
namespace ann {

namespace {

// Zero-copy map of one aligned section with the store loaders' validation
// policy: kFull checks the whole CRC now, otherwise pages validate lazily
// on first touch.
Status MapSection(BinaryReader& reader, const SectionInfo& info,
                  VerifyMode verify, std::shared_ptr<MappedRegion>* region,
                  std::unique_ptr<LazyValidator>* check, const u8** base) {
  DJ_RETURN_IF_ERROR(reader.env()->NewMappedRegion(
      reader.path(), info.offset, info.length, region));
  *base = static_cast<const u8*>((*region)->data());
  const bool eager = verify == VerifyMode::kFull;
  if (eager && info.length > 0 && Crc32c(*base, info.length) != info.crc) {
    return Status::DataLoss(reader.path() +
                            ": mapped section checksum mismatch");
  }
  *check = std::make_unique<LazyValidator>(*base, info, eager);
  return Status::OK();
}

}  // namespace

IvfPqIndex::IvfPqIndex(const IvfPqConfig& config) : config_(config) {
  DJ_CHECK(config_.dim > 0);
  DJ_CHECK_MSG(config_.dim % config_.m == 0, "dim must be divisible by m");
  DJ_CHECK(config_.nbits >= 1 && config_.nbits <= 8);
}

void IvfPqIndex::Train(const float* data, size_t n) {
  DJ_CHECK_MSG(!trained_, "Train() called twice");
  DJ_CHECK(n > 0);
  Rng rng(config_.seed);
  const int d = config_.dim;

  // Coarse quantizer.
  const int nlist = std::min<int>(config_.nlist, static_cast<int>(n));
  coarse_ = KMeans(data, n, d, nlist, config_.train_iters, rng);
  config_.nlist = nlist;
  list_ids_.resize(nlist);
  list_codes_.resize(nlist);

  if (config_.hnsw_coarse) {
    HnswConfig hc;
    hc.dim = d;
    hc.M = 8;
    hc.ef_construction = 80;
    hc.ef_search = std::max(16, config_.nprobe * 2);
    coarse_hnsw_ = std::make_unique<HnswIndex>(hc);
    for (int c = 0; c < nlist; ++c) {
      coarse_hnsw_->Add(&coarse_.centroids[static_cast<size_t>(c) * d]);
    }
  }

  // PQ codebooks over residuals of the training data.
  std::vector<float> residuals(n * static_cast<size_t>(d));
  for (size_t i = 0; i < n; ++i) {
    const float* v = data + i * d;
    const float* c =
        &coarse_.centroids[static_cast<size_t>(coarse_.assignments[i]) * d];
    for (int j = 0; j < d; ++j) residuals[i * d + j] = v[j] - c[j];
  }
  const int ds = dsub();
  const int ks = ksub();
  codebooks_.assign(static_cast<size_t>(config_.m) * ks * ds, 0.0f);
  std::vector<float> sub(n * static_cast<size_t>(ds));
  for (int s = 0; s < config_.m; ++s) {
    for (size_t i = 0; i < n; ++i) {
      std::copy(&residuals[i * d + static_cast<size_t>(s) * ds],
                &residuals[i * d + static_cast<size_t>(s) * ds + ds],
                &sub[i * ds]);
    }
    auto km = KMeans(sub.data(), n, ds, ks, config_.train_iters, rng);
    std::copy(km.centroids.begin(), km.centroids.end(),
              codebooks_.begin() + static_cast<size_t>(s) * ks * ds);
  }
  trained_ = true;
}

void IvfPqIndex::EncodeResidual(const float* r, u8* codes) const {
  const int ds = dsub();
  const int ks = ksub();
  for (int s = 0; s < config_.m; ++s) {
    const float* rsub = r + static_cast<size_t>(s) * ds;
    const float* cb = &codebooks_[static_cast<size_t>(s) * ks * ds];
    float best = std::numeric_limits<float>::max();
    int best_c = 0;
    for (int c = 0; c < ks; ++c) {
      const float dist =
          SquaredL2Distance(rsub, cb + static_cast<size_t>(c) * ds, ds);
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    codes[s] = static_cast<u8>(best_c);
  }
}

void IvfPqIndex::Add(const float* vec) {
  DJ_CHECK_MSG(!packed_, "ivfpq Add on a read-only (packed) index");
  DJ_CHECK_MSG(trained_, "Add() before Train()");
  const int d = config_.dim;
  const u32 cell = NearestCentroid(coarse_, vec);
  std::vector<float> residual(d);
  const float* c = &coarse_.centroids[static_cast<size_t>(cell) * d];
  for (int j = 0; j < d; ++j) residual[j] = vec[j] - c[j];
  std::vector<u8> codes(config_.m);
  EncodeResidual(residual.data(), codes.data());
  list_ids_[cell].push_back(static_cast<u32>(count_));
  list_codes_[cell].insert(list_codes_[cell].end(), codes.begin(),
                           codes.end());
  ++count_;
}

void IvfPqIndex::SearchInto(const float* query, size_t k,
                            const AnnSearchParams& params,
                            std::vector<Neighbor>* out) const {
  DJ_TRACE_SPAN("ivfpq.search");
  DJ_CHECK_MSG(trained_, "Search() before Train()");
  out->clear();
  if (count_ == 0 || k == 0) return;
  const int d = config_.dim;
  const int ds = dsub();
  const int ks = ksub();
  const int nprobe = params.nprobe > 0 ? params.nprobe : config_.nprobe;

  // Rank coarse cells.
  std::vector<Neighbor> cells;
  if (coarse_hnsw_) {
    // Keep the coarse graph's beam proportional to the probe budget even
    // when nprobe is overridden per query (Train sized it for the default).
    AnnSearchParams coarse_params;
    coarse_params.ef_search = std::max(16, nprobe * 2);
    cells = coarse_hnsw_->Search(query, static_cast<size_t>(nprobe),
                                 coarse_params);
  } else {
    cells.reserve(coarse_.k);
    for (int c = 0; c < coarse_.k; ++c) {
      cells.push_back(
          {SquaredL2Distance(query,
                             &coarse_.centroids[static_cast<size_t>(c) * d],
                             d),
           static_cast<u32>(c)});
    }
    std::sort(cells.begin(), cells.end());
    if (static_cast<int>(cells.size()) > nprobe) {
      cells.resize(static_cast<size_t>(nprobe));
    }
  }

  u64 adc_tables = 0;
  u64 codes_scanned = 0;
  TopK top(k);
  std::vector<float> lut(static_cast<size_t>(config_.m) * ks);
  std::vector<float> qres(d);
  for (const Neighbor& cell : cells) {
    const ListView list = ListAt(cell.id);
    if (list.n == 0) continue;
    ++adc_tables;
    codes_scanned += list.n;
    // Query residual w.r.t. this cell, then the ADC lookup table.
    const float* c = &coarse_.centroids[static_cast<size_t>(cell.id) * d];
    for (int j = 0; j < d; ++j) qres[j] = query[j] - c[j];
    for (int s = 0; s < config_.m; ++s) {
      const float* rsub = &qres[static_cast<size_t>(s) * ds];
      const float* cb = &codebooks_[static_cast<size_t>(s) * ks * ds];
      for (int code = 0; code < ks; ++code) {
        lut[static_cast<size_t>(s) * ks + code] =
            SquaredL2Distance(rsub, cb + static_cast<size_t>(code) * ds, ds);
      }
    }
    for (u64 i = 0; i < list.n; ++i) {
      const u8* entry = list.codes + i * static_cast<size_t>(config_.m);
      float dist = 0.0f;
      for (int s = 0; s < config_.m; ++s) {
        dist += lut[static_cast<size_t>(s) * ks + entry[s]];
      }
      top.Push(-static_cast<double>(dist), list.ids[i]);
    }
  }
  if (metrics::Enabled() || trace::TraceCollector::Current() != nullptr) {
    static metrics::Counter* const searches =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_ivfpq_searches_total");
    static metrics::Counter* const probes =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_ivfpq_probes_total");
    static metrics::Counter* const tables =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_ivfpq_adc_tables_total");
    static metrics::Counter* const scanned =
        metrics::MetricsRegistry::Global().GetCounter(
            "dj_ivfpq_codes_scanned_total");
    searches->Increment();
    probes->Add(cells.size());
    tables->Add(adc_tables);
    scanned->Add(codes_scanned);
    trace::Count("ivfpq.probes", cells.size());
    trace::Count("ivfpq.adc_tables", adc_tables);
    trace::Count("ivfpq.codes_scanned", codes_scanned);
  }

  for (const auto& s : top.Take()) {
    out->push_back(Neighbor{static_cast<float>(-s.score), s.id});
  }
}

IvfPqIndex::ListView IvfPqIndex::ListAt(u32 cell) const {
  ListView out;
  if (!packed_) {
    const auto& ids = list_ids_[cell];
    out.ids = ids.data();
    out.codes = list_codes_[cell].data();
    out.n = ids.size();
    return out;
  }
  // Packed sections: clamp offsets to the stored total so a corrupt
  // prefix word can never read outside the sections (wrong results, never
  // UB), and lazily validate the pages the scan will touch.
  if (static_cast<size_t>(cell) + 1 >= offsets_.size()) return out;
  const u64 total = static_cast<u64>(count_);
  const u64 off = std::min<u64>(offsets_[cell], total);
  const u64 end = std::max(off, std::min<u64>(offsets_[cell + 1], total));
  const u64 m = static_cast<u64>(config_.m);
  out.ids = ids_base_ + off;
  out.codes = codes_base_ + off * m;
  out.n = end - off;
  if (ids_check_ != nullptr) ids_check_->Touch(off * sizeof(u32), out.n * sizeof(u32));
  if (codes_check_ != nullptr) codes_check_->Touch(off * m, out.n * m);
  return out;
}

bool IvfPqIndex::tainted() const {
  return (ids_check_ != nullptr && ids_check_->tainted()) ||
         (codes_check_ != nullptr && codes_check_->tainted());
}

// ---- Persistence (the payload behind index_io's DJIX header) ----
//
// ivfpq payload := dim:i32 nlist:i32 m:i32 nbits:i32 nprobe:i32
//                  train_iters:i32 seed:u64 hnsw_coarse:u32 count:u64
//                  centroids:f32[] codebooks:f32[] offsets:u32[nlist+1]
//                  ids_section codes_section
//
// The inverted lists are flattened in cell order into two page-aligned
// sections located by the prefix offsets; a mapped open touches none of
// them. The coarse HNSW is rebuilt from the centroids at load (nlist
// rows — negligible), so it has no on-disk representation.

Status IvfPqIndex::Save(BinaryWriter& writer,
                        const SaveOptions& options) const {
  if (options.storage != StorageKind::kAuto) {
    return Status::FailedPrecondition(
        "ivfpq stores PQ codes; SaveOptions.storage conversion does not "
        "apply (use kAuto)");
  }
  if (!trained_) {
    return Status::FailedPrecondition("ivfpq Save() before Train()");
  }
  writer.WriteI32(config_.dim);
  writer.WriteI32(config_.nlist);
  writer.WriteI32(config_.m);
  writer.WriteI32(config_.nbits);
  writer.WriteI32(config_.nprobe);
  writer.WriteI32(config_.train_iters);
  writer.WriteU64(config_.seed);
  writer.WriteU32(config_.hnsw_coarse ? 1 : 0);
  writer.WriteU64(static_cast<u64>(count_));
  writer.WriteFloatArray(coarse_.centroids.data(), coarse_.centroids.size());
  writer.WriteFloatArray(codebooks_.data(), codebooks_.size());
  const u64 m = static_cast<u64>(config_.m);
  if (packed_) {
    // Already flattened: validate the whole payload (a mapped page that
    // went bad must not be re-persisted silently), then write it out.
    if (ids_check_ != nullptr) {
      DJ_RETURN_IF_ERROR(ids_check_->VerifyAll());
    }
    if (codes_check_ != nullptr) {
      DJ_RETURN_IF_ERROR(codes_check_->VerifyAll());
    }
    writer.WriteU32Array(offsets_.data(), offsets_.size());
    writer.WriteAlignedSection(ids_base_, count_ * sizeof(u32));
    writer.WriteAlignedSection(codes_base_, count_ * m);
    return writer.status();
  }
  std::vector<u32> offsets(static_cast<size_t>(config_.nlist) + 1, 0);
  std::vector<u32> all_ids;
  std::vector<u8> all_codes;
  all_ids.reserve(count_);
  all_codes.reserve(count_ * m);
  for (int c = 0; c < config_.nlist; ++c) {
    offsets[static_cast<size_t>(c)] = static_cast<u32>(all_ids.size());
    all_ids.insert(all_ids.end(), list_ids_[static_cast<size_t>(c)].begin(),
                   list_ids_[static_cast<size_t>(c)].end());
    all_codes.insert(all_codes.end(),
                     list_codes_[static_cast<size_t>(c)].begin(),
                     list_codes_[static_cast<size_t>(c)].end());
  }
  offsets[static_cast<size_t>(config_.nlist)] =
      static_cast<u32>(all_ids.size());
  writer.WriteU32Array(offsets.data(), offsets.size());
  writer.WriteAlignedSection(all_ids.data(), all_ids.size() * sizeof(u32));
  writer.WriteAlignedSection(all_codes.data(), all_codes.size());
  return writer.status();
}

Result<std::unique_ptr<IvfPqIndex>> IvfPqIndex::LoadPayload(
    BinaryReader& reader, const OpenOptions& options) {
  if (options.storage != StorageKind::kAuto) {
    return Status::FailedPrecondition(
        "ivfpq holds PQ codes; OpenOptions.storage does not apply (use "
        "kAuto)");
  }
  IvfPqConfig config;
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.dim));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.nlist));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.m));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.nbits));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.nprobe));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.train_iters));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&config.seed));
  u32 hnsw_coarse = 0;
  u64 count = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&hnsw_coarse));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&count));
  // The constructor DJ_CHECKs these invariants; a load path must reject,
  // not abort.
  if (config.dim <= 0 || config.dim > (1 << 20) || config.m < 1 ||
      config.dim % config.m != 0 || config.nbits < 1 || config.nbits > 8 ||
      config.nlist < 1 || config.nlist > (1 << 24) || config.nprobe < 1 ||
      config.train_iters < 0 || hnsw_coarse > 1 ||
      count > std::numeric_limits<u32>::max()) {
    return Status::DataLoss("ivfpq config out of range");
  }
  config.hnsw_coarse = hnsw_coarse != 0;
  auto index = std::make_unique<IvfPqIndex>(config);
  DJ_RETURN_IF_ERROR(reader.ReadFloatArray(&index->coarse_.centroids));
  DJ_RETURN_IF_ERROR(reader.ReadFloatArray(&index->codebooks_));
  const u64 d = static_cast<u64>(config.dim);
  if (index->coarse_.centroids.size() != static_cast<u64>(config.nlist) * d) {
    return Status::DataLoss("ivfpq centroid payload does not match nlist");
  }
  const int ds = config.dim / config.m;
  const int ks = 1 << config.nbits;
  if (index->codebooks_.size() !=
      static_cast<u64>(config.m) * static_cast<u64>(ks) * ds) {
    return Status::DataLoss("ivfpq codebook payload does not match config");
  }
  index->coarse_.k = config.nlist;
  index->coarse_.dim = config.dim;
  std::vector<u32> offsets;
  DJ_RETURN_IF_ERROR(reader.ReadU32Array(&offsets));
  if (offsets.size() != static_cast<size_t>(config.nlist) + 1 ||
      offsets.front() != 0 || offsets.back() != count) {
    return Status::DataLoss("ivfpq offsets do not match the list count");
  }
  for (size_t c = 0; c + 1 < offsets.size(); ++c) {
    if (offsets[c] > offsets[c + 1]) {
      return Status::DataLoss("ivfpq offsets are not monotonic");
    }
  }
  SectionInfo ids_info, codes_info;
  DJ_RETURN_IF_ERROR(reader.ReadSection(&ids_info));
  if (ids_info.length != count * sizeof(u32)) {
    return Status::DataLoss("ivfpq ids section length mismatch");
  }
  DJ_RETURN_IF_ERROR(reader.ReadSection(&codes_info));
  if (codes_info.length != count * static_cast<u64>(config.m)) {
    return Status::DataLoss("ivfpq codes section length mismatch");
  }
  index->trained_ = true;
  index->count_ = static_cast<size_t>(count);
  if (config.hnsw_coarse) {
    HnswConfig hc;
    hc.dim = config.dim;
    hc.M = 8;
    hc.ef_construction = 80;
    hc.ef_search = std::max(16, config.nprobe * 2);
    index->coarse_hnsw_ = std::make_unique<HnswIndex>(hc);
    for (int c = 0; c < config.nlist; ++c) {
      index->coarse_hnsw_->Add(
          &index->coarse_.centroids[static_cast<size_t>(c) * d]);
    }
  }
  if (options.map == MapMode::kOwned) {
    // Owned open: decode the flattened lists back into the live per-cell
    // vectors — the index stays mutable (legacy semantics).
    std::string ids_bytes, codes_bytes;
    DJ_RETURN_IF_ERROR(reader.ReadSectionBytes(ids_info, &ids_bytes));
    DJ_RETURN_IF_ERROR(reader.ReadSectionBytes(codes_info, &codes_bytes));
    const u32* ids = reinterpret_cast<const u32*>(ids_bytes.data());
    const u8* codes = reinterpret_cast<const u8*>(codes_bytes.data());
    const u64 m = static_cast<u64>(config.m);
    index->list_ids_.resize(static_cast<size_t>(config.nlist));
    index->list_codes_.resize(static_cast<size_t>(config.nlist));
    for (int c = 0; c < config.nlist; ++c) {
      const u64 off = offsets[static_cast<size_t>(c)];
      const u64 end = offsets[static_cast<size_t>(c) + 1];
      index->list_ids_[static_cast<size_t>(c)].assign(ids + off, ids + end);
      index->list_codes_[static_cast<size_t>(c)].assign(codes + off * m,
                                                        codes + end * m);
    }
    return index;
  }
  index->packed_ = true;
  index->offsets_ = std::move(offsets);
  const u8* ids_base = nullptr;
  const u8* codes_base = nullptr;
  DJ_RETURN_IF_ERROR(MapSection(reader, ids_info, options.verify,
                                &index->ids_region_, &index->ids_check_,
                                &ids_base));
  DJ_RETURN_IF_ERROR(MapSection(reader, codes_info, options.verify,
                                &index->codes_region_, &index->codes_check_,
                                &codes_base));
  index->ids_base_ = reinterpret_cast<const u32*>(ids_base);
  index->codes_base_ = codes_base;
  return index;
}

}  // namespace ann
}  // namespace deepjoin
