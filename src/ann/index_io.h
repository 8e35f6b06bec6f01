// The unified index open/save API (DESIGN.md §14). One container format
// ("DJIX") covers every backend:
//
//   file  := DJF1 header, then
//            magic:u32 ('DJIX') version:u32 kind:string payload
//
// where kind ("flat" / "hnsw" / "ivfpq") dispatches the payload to the
// backend's LoadPayload. Bulk data (rows, codes, packed graphs, inverted
// lists) travels in page-aligned sections, so an OpenOptions::kMapped
// open is O(1) in the index size: the sections are mmap'd zero-copy and
// their pages CRC-validate lazily on first touch.
//
// Any other leading magic word is DataLoss "bad magic".
#ifndef DEEPJOIN_ANN_INDEX_IO_H_
#define DEEPJOIN_ANN_INDEX_IO_H_

#include <memory>
#include <string>

#include "ann/vector_index.h"
#include "ann/vector_store.h"
#include "util/binary_io.h"
#include "util/env.h"
#include "util/status.h"

namespace deepjoin {
namespace ann {

/// Opens an index file written by SaveIndexFile. `env` nullptr means
/// Env::Default(). O(1) in the index size for OpenOptions::kMapped.
Result<std::unique_ptr<VectorIndex>> OpenIndex(const std::string& path,
                                               const OpenOptions& options = {},
                                               Env* env = nullptr);

/// The reader-cursor form of OpenIndex: consumes one DJIX index from
/// `reader`. Lets callers embed an index inside a larger
/// artifact (the searcher checkpoint does).
Result<std::unique_ptr<VectorIndex>> LoadIndexPayload(
    BinaryReader& reader, const OpenOptions& options = {});

/// Writes `magic version kind payload` at the writer cursor — the inverse
/// of LoadIndexPayload.
[[nodiscard]] Status SaveIndexPayload(const VectorIndex& index,
                                      BinaryWriter& writer,
                                      const SaveOptions& options = {});

/// Crash-safe whole-file save (AtomicSave: tmp + fsync + rename).
[[nodiscard]] Status SaveIndexFile(const VectorIndex& index,
                                   const std::string& path,
                                   const SaveOptions& options = {},
                                   Env* env = nullptr);

}  // namespace ann
}  // namespace deepjoin

#endif  // DEEPJOIN_ANN_INDEX_IO_H_
