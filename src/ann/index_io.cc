#include "ann/index_io.h"

#include <string>
#include <utility>

#include "ann/hnsw.h"
#include "ann/ivfpq.h"

namespace deepjoin {
namespace ann {

Result<std::unique_ptr<VectorIndex>> LoadIndexPayload(
    BinaryReader& reader, const OpenOptions& options) {
  u32 magic = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kDjIndexMagic) {
    return Status::DataLoss("not an index file (bad magic)");
  }
  u32 version = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kDjIndexVersion) {
    return Status::DataLoss("unsupported index format version " +
                            std::to_string(version));
  }
  std::string kind;
  DJ_RETURN_IF_ERROR(reader.ReadString(&kind));
  if (kind == "flat") {
    auto r = FlatIndex::LoadPayload(reader, options);
    if (!r.ok()) return r.status();
    return std::unique_ptr<VectorIndex>(std::move(r).value());
  }
  if (kind == "hnsw") {
    auto r = HnswIndex::LoadPayload(reader, options);
    if (!r.ok()) return r.status();
    return std::unique_ptr<VectorIndex>(std::move(r).value());
  }
  if (kind == "ivfpq" || kind == "ivfpq+hnsw") {
    auto r = IvfPqIndex::LoadPayload(reader, options);
    if (!r.ok()) return r.status();
    return std::unique_ptr<VectorIndex>(std::move(r).value());
  }
  return Status::DataLoss("unknown index kind '" + kind + "'");
}

Result<std::unique_ptr<VectorIndex>> OpenIndex(const std::string& path,
                                               const OpenOptions& options,
                                               Env* env) {
  BinaryReader reader(path, env);
  DJ_RETURN_IF_ERROR(reader.Open());
  return LoadIndexPayload(reader, options);
}

Status SaveIndexPayload(const VectorIndex& index, BinaryWriter& writer,
                        const SaveOptions& options) {
  writer.WriteU32(kDjIndexMagic);
  writer.WriteU32(kDjIndexVersion);
  writer.WriteString(index.name());
  return index.Save(writer, options);
}

Status SaveIndexFile(const VectorIndex& index, const std::string& path,
                     const SaveOptions& options, Env* env) {
  return AtomicSave(path, env, [&](BinaryWriter& writer) {
    return SaveIndexPayload(index, writer, options);
  });
}

}  // namespace ann
}  // namespace deepjoin
