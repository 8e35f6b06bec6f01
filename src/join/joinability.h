// Exact joinability definitions (paper §2.1) and brute-force top-k scans
// used as ground truth for Precision@k / NDCG@k.
//
// Equi-joinability (Def 2.1):  jn(Q,X) = |Q ∩ X| / |Q|  over distinct cells.
// Semantic-joinability (Def 2.3): the fraction of Q's cell vectors having a
// vector in X within distance τ.
#ifndef DEEPJOIN_JOIN_JOINABILITY_H_
#define DEEPJOIN_JOIN_JOINABILITY_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lake/column.h"
#include "text/fasttext.h"
#include "util/top_k.h"

namespace deepjoin {
namespace join {

/// Global cell-value dictionary: every distinct cell string in the
/// repository gets a token id; doc frequencies (number of columns holding
/// the token) drive JOSIE's prefix ordering and DeepJoin's frequency-based
/// cell selection (§3.2).
class CellDictionary {
 public:
  /// Returns the id of `cell`, assigning a fresh one if unseen.
  u32 GetOrAssign(const std::string& cell);
  /// Lookup without assignment (queries may contain unseen cells).
  std::optional<u32> Lookup(const std::string& cell) const;

  void BumpDocFreq(u32 token) {
    if (token >= doc_freq_.size()) doc_freq_.resize(token + 1, 0);
    ++doc_freq_[token];
  }
  u32 DocFreq(u32 token) const {
    return token < doc_freq_.size() ? doc_freq_[token] : 0;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, u32> ids_;
  std::vector<u32> doc_freq_;
};

/// A column as a set of token ids, sorted ascending. `query_size` keeps the
/// true distinct-cell count including cells absent from the dictionary
/// (those can never match but still appear in jn's denominator).
struct TokenSet {
  std::vector<u32> tokens;  // sorted, unique
  size_t query_size = 0;
};

/// Repository tokenized for equi-join processing.
class TokenizedRepository {
 public:
  static TokenizedRepository Build(const lake::Repository& repo);

  /// Encodes a query column against the frozen dictionary.
  TokenSet EncodeQuery(const lake::Column& query) const;

  const std::vector<TokenSet>& columns() const { return columns_; }
  const CellDictionary& dict() const { return dict_; }
  size_t size() const { return columns_.size(); }

 private:
  CellDictionary dict_;
  std::vector<TokenSet> columns_;
};

/// |a ∩ b| for sorted unique token vectors.
size_t SetOverlap(const std::vector<u32>& a, const std::vector<u32>& b);

/// Equi-joinability jn(Q, X) with Q the query TokenSet.
double EquiJoinability(const TokenSet& query, const TokenSet& target);

/// Exact top-k equi-joinable columns by brute-force scan (ground truth).
std::vector<Scored> ExactEquiTopK(const TokenizedRepository& repo,
                                  const TokenSet& query, size_t k);

// ---- semantic side ----

/// Cell vectors of every repository column, stored contiguously.
class ColumnVectorStore {
 public:
  static ColumnVectorStore Build(const lake::Repository& repo,
                                 const FastTextEmbedder& embedder);

  /// Embeds a query column's cells (flat [n x dim]).
  static std::vector<float> EmbedColumn(const lake::Column& column,
                                        const FastTextEmbedder& embedder);

  const float* column_vectors(u32 id) const {
    return data_.data() + offsets_[id];
  }
  size_t column_count(u32 id) const { return counts_[id]; }
  size_t num_columns() const { return counts_.size(); }
  int dim() const { return dim_; }
  size_t total_vectors() const { return data_.size() / dim_; }
  const float* all_vectors() const { return data_.data(); }
  /// Column owning the `global_index`-th vector.
  u32 OwnerOf(size_t global_index) const { return owners_[global_index]; }

 private:
  int dim_ = 0;
  std::vector<float> data_;
  std::vector<size_t> offsets_;  // per column, in floats
  std::vector<size_t> counts_;   // per column, in vectors
  std::vector<u32> owners_;      // per vector
};

/// Semantic joinability of flat vector multisets under threshold `tau`.
double SemanticJoinability(const float* q, size_t nq, const float* x,
                           size_t nx, int dim, float tau);

/// Exact top-k semantically joinable columns by brute-force scan.
std::vector<Scored> ExactSemanticTopK(const ColumnVectorStore& store,
                                      const float* q, size_t nq, float tau,
                                      size_t k);

}  // namespace join
}  // namespace deepjoin

#endif  // DEEPJOIN_JOIN_JOINABILITY_H_
