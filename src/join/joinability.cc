#include "join/joinability.h"

#include <algorithm>

#include "util/kernels.h"

namespace deepjoin {
namespace join {

u32 CellDictionary::GetOrAssign(const std::string& cell) {
  auto [it, inserted] = ids_.try_emplace(cell, static_cast<u32>(ids_.size()));
  return it->second;
}

std::optional<u32> CellDictionary::Lookup(const std::string& cell) const {
  auto it = ids_.find(cell);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

TokenizedRepository TokenizedRepository::Build(const lake::Repository& repo) {
  TokenizedRepository out;
  out.columns_.reserve(repo.size());
  for (const auto& col : repo.columns()) {
    TokenSet ts;
    ts.tokens.reserve(col.cells.size());
    for (const auto& cell : col.cells) {
      ts.tokens.push_back(out.dict_.GetOrAssign(cell));
    }
    std::sort(ts.tokens.begin(), ts.tokens.end());
    ts.tokens.erase(std::unique(ts.tokens.begin(), ts.tokens.end()),
                    ts.tokens.end());
    ts.query_size = ts.tokens.size();
    for (u32 t : ts.tokens) out.dict_.BumpDocFreq(t);
    out.columns_.push_back(std::move(ts));
  }
  return out;
}

TokenSet TokenizedRepository::EncodeQuery(const lake::Column& query) const {
  TokenSet ts;
  size_t unknown = 0;
  for (const auto& cell : query.cells) {
    if (auto id = dict_.Lookup(cell)) {
      ts.tokens.push_back(*id);
    } else {
      ++unknown;
    }
  }
  std::sort(ts.tokens.begin(), ts.tokens.end());
  ts.tokens.erase(std::unique(ts.tokens.begin(), ts.tokens.end()),
                  ts.tokens.end());
  // Cells are already distinct within a Column, so the true distinct count
  // is matched tokens plus unseen cells.
  ts.query_size = ts.tokens.size() + unknown;
  return ts;
}

size_t SetOverlap(const std::vector<u32>& a, const std::vector<u32>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++n;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

double EquiJoinability(const TokenSet& query, const TokenSet& target) {
  if (query.query_size == 0) return 0.0;
  return static_cast<double>(SetOverlap(query.tokens, target.tokens)) /
         static_cast<double>(query.query_size);
}

std::vector<Scored> ExactEquiTopK(const TokenizedRepository& repo,
                                  const TokenSet& query, size_t k) {
  TopK top(k);
  for (size_t i = 0; i < repo.size(); ++i) {
    top.Push(EquiJoinability(query, repo.columns()[i]),
             static_cast<u32>(i));
  }
  return top.Take();
}

ColumnVectorStore ColumnVectorStore::Build(const lake::Repository& repo,
                                           const FastTextEmbedder& embedder) {
  ColumnVectorStore store;
  store.dim_ = embedder.dim();
  size_t total = 0;
  for (const auto& col : repo.columns()) total += col.cells.size();
  store.data_.resize(total * static_cast<size_t>(store.dim_));
  store.offsets_.reserve(repo.size());
  store.counts_.reserve(repo.size());
  store.owners_.reserve(total);
  size_t offset = 0;
  for (const auto& col : repo.columns()) {
    store.offsets_.push_back(offset);
    store.counts_.push_back(col.cells.size());
    for (const auto& cell : col.cells) {
      embedder.TextVectorInto(cell, store.data_.data() + offset);
      store.owners_.push_back(col.id);
      offset += static_cast<size_t>(store.dim_);
    }
  }
  return store;
}

std::vector<float> ColumnVectorStore::EmbedColumn(
    const lake::Column& column, const FastTextEmbedder& embedder) {
  const int dim = embedder.dim();
  std::vector<float> out(column.cells.size() * static_cast<size_t>(dim));
  for (size_t i = 0; i < column.cells.size(); ++i) {
    embedder.TextVectorInto(column.cells[i],
                            out.data() + i * static_cast<size_t>(dim));
  }
  return out;
}

double SemanticJoinability(const float* q, size_t nq, const float* x,
                           size_t nx, int dim, float tau) {
  if (nq == 0) return 0.0;
  const float tau2 = tau * tau;
  size_t matched = 0;
  for (size_t i = 0; i < nq; ++i) {
    const float* qv = q + i * static_cast<size_t>(dim);
    for (size_t j = 0; j < nx; ++j) {
      const float* xv = x + j * static_cast<size_t>(dim);
      // Full vectorized distance per pair (documented change: this used to
      // early-bail a double-precision scalar loop once the partial sum
      // crossed tau^2 — the SIMD kernel is faster than the bail).
      if (kern::SquaredL2(qv, xv, dim) <= tau2) {
        ++matched;
        break;  // one match in X suffices for this query vector
      }
    }
  }
  return static_cast<double>(matched) / static_cast<double>(nq);
}

std::vector<Scored> ExactSemanticTopK(const ColumnVectorStore& store,
                                      const float* q, size_t nq, float tau,
                                      size_t k) {
  TopK top(k);
  for (size_t i = 0; i < store.num_columns(); ++i) {
    const double jn =
        SemanticJoinability(q, nq, store.column_vectors(static_cast<u32>(i)),
                            store.column_count(static_cast<u32>(i)),
                            store.dim(), tau);
    top.Push(jn, static_cast<u32>(i));
  }
  return top.Take();
}

}  // namespace join
}  // namespace deepjoin
