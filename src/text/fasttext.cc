#include "text/fasttext.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "text/char_ngram.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/kernels.h"

namespace deepjoin {

// These three accumulate in single precision through the kernel layer
// (documented change: they used to accumulate in double). Deterministic
// per kernel tier; see util/kernels.h for the reduction orders.

void L2Normalize(float* v, int dim) {
  const float norm = kern::Dot(v, v, dim);
  if (norm <= 0.0f) return;
  kern::ScaleAdd(dim, 1.0f / std::sqrt(norm), v, 0.0f, v);
}

float L2Distance(const float* a, const float* b, int dim) {
  return std::sqrt(kern::SquaredL2(a, b, dim));
}

float Dot(const float* a, const float* b, int dim) {
  return kern::Dot(a, b, dim);
}

FastTextEmbedder::FastTextEmbedder(const FastTextConfig& config)
    : config_(config) {
  DJ_CHECK(config_.dim > 0 && config_.minn >= 1 &&
           config_.maxn >= config_.minn && config_.buckets > 0);
  // The n-gram table is filled with deterministic pseudo-random values so
  // the embedder is usable without any training pass.
  ngram_table_.resize(config_.buckets * static_cast<u64>(config_.dim));
  const float scale = 1.0f / std::sqrt(static_cast<float>(config_.dim));
  for (u64 b = 0; b < config_.buckets; ++b) {
    for (int d = 0; d < config_.dim; ++d) {
      const u64 h = SeededHash(b * 131071ULL + static_cast<u64>(d),
                               config_.seed);
      // Map hash to roughly uniform in [-scale, scale).
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
      ngram_table_[b * config_.dim + d] =
          static_cast<float>((2.0 * u - 1.0) * scale);
    }
  }
}

namespace {

// Per-thread n-gram id scratch: grows to the longest word seen, then
// reuses its capacity.
std::vector<u32>& GramScratch() {
  thread_local std::vector<u32> grams;
  return grams;
}

}  // namespace

void FastTextEmbedder::AccumulateWord(std::string_view word,
                                      float* out) const {
  std::vector<u32>& grams = GramScratch();
  grams.clear();
  HashedCharNgrams(word, config_.minn, config_.maxn, config_.buckets, &grams);
  const u64 dim = static_cast<u64>(config_.dim);
  // The rows are scattered across the table: request them all before the
  // first add needs one.
  for (u32 g : grams) {
    const float* row = &ngram_table_[g * dim];
    for (u64 d = 0; d < dim; d += 16) __builtin_prefetch(row + d);
  }
  // ScaleAdd with beta == 1 is out + fl(row*inv) in both tiers (see
  // util/kernels.h), the same two roundings as a scalar `out += row*inv`.
  const float inv = 1.0f / static_cast<float>(grams.size());
  for (u32 g : grams) {
    kern::ScaleAdd(config_.dim, inv, &ngram_table_[g * dim], 1.0f, out);
  }
  auto it = word_vecs_.find(std::string(word));
  if (it != word_vecs_.end()) {
    for (int d = 0; d < config_.dim; ++d) out[d] += it->second[d];
  }
}

std::vector<float> FastTextEmbedder::WordVector(std::string_view word) const {
  std::vector<float> v(config_.dim, 0.0f);
  AccumulateWord(word, v.data());
  L2Normalize(v.data(), config_.dim);
  return v;
}

std::vector<float> FastTextEmbedder::TextVector(std::string_view text) const {
  std::vector<float> v(config_.dim, 0.0f);
  TextVectorInto(text, v.data());
  return v;
}

void FastTextEmbedder::TextVectorInto(std::string_view text,
                                      float* out) const {
  std::memset(out, 0, sizeof(float) * static_cast<size_t>(config_.dim));
  std::vector<std::string> words;
  TokenizeWordsInto(text, &words);
  if (words.empty()) return;
  std::vector<float> tmp(config_.dim);
  for (const auto& w : words) {
    std::fill(tmp.begin(), tmp.end(), 0.0f);
    AccumulateWord(w, tmp.data());
    L2Normalize(tmp.data(), config_.dim);
    for (int d = 0; d < config_.dim; ++d) out[d] += tmp[d];
  }
  const float inv = 1.0f / static_cast<float>(words.size());
  for (int d = 0; d < config_.dim; ++d) out[d] *= inv;
  L2Normalize(out, config_.dim);
  // Real distributional embeddings pack short, low-information strings
  // (codes, single tokens) into a tighter region than multi-word text:
  // fewer subwords, less to distinguish them. Reproduce that by scaling
  // the unit vector with the cell's word count, so one fixed matching
  // threshold over-matches short cells and under-matches long ones — the
  // "fixed tau cannot fit all value types" behaviour PEXESO inherits
  // (paper §5.2, Table 7 discussion).
  const float scale = words.size() == 1   ? 0.80f
                      : words.size() == 2 ? 1.00f
                                          : 1.15f;
  for (int d = 0; d < config_.dim; ++d) out[d] *= scale;
}

float* FastTextEmbedder::MutableWordVec(const std::string& word) {
  auto [it, inserted] = word_vecs_.try_emplace(word);
  if (inserted) it->second.assign(config_.dim, 0.0f);
  return it->second.data();
}

void FastTextEmbedder::TrainSynonyms(
    const std::vector<std::vector<std::string>>& groups, double strength,
    int epochs) {
  const size_t dim = static_cast<size_t>(config_.dim);
  const float s = static_cast<float>(strength);
  std::vector<float> raw, centroid(dim);
  std::vector<std::string_view> sorted;
  for (int e = 0; e < epochs; ++e) {
    for (const auto& group : groups) {
      if (group.size() < 2) continue;
      // Raw (pre-normalization) vector of every member, and their centroid.
      raw.assign(group.size() * dim, 0.0f);
      std::fill(centroid.begin(), centroid.end(), 0.0f);
      for (size_t m = 0; m < group.size(); ++m) {
        float* r = &raw[m * dim];
        AccumulateWord(group[m], r);
        for (size_t d = 0; d < dim; ++d) centroid[d] += r[d];
      }
      const float inv = 1.0f / static_cast<float>(group.size());
      for (size_t d = 0; d < dim; ++d) centroid[d] *= inv;
      // A member's raw vector reads only its own word vector, so the
      // updates below leave the other members' raw vectors as computed —
      // unless a word repeats: its later occurrence must see the earlier
      // one's update, so such a group recomputes each member.
      sorted.assign(group.begin(), group.end());
      std::sort(sorted.begin(), sorted.end());
      const bool repeats =
          std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
      // Move each member's word vector toward the centroid.
      for (size_t m = 0; m < group.size(); ++m) {
        float* r = &raw[m * dim];
        if (repeats) {
          std::fill(r, r + dim, 0.0f);
          AccumulateWord(group[m], r);
        }
        float* wv = MutableWordVec(group[m]);
        for (size_t d = 0; d < dim; ++d) wv[d] += s * (centroid[d] - r[d]);
      }
    }
  }
}

void FastTextEmbedder::TrainSkipGram(
    const std::vector<std::vector<std::string>>& sentences, int window,
    int negatives, double lr, int epochs, Rng& rng) {
  const int dim = config_.dim;
  // Output ("context") vectors live only for the duration of training.
  std::unordered_map<std::string, std::vector<float>> ctx;
  auto ctx_vec = [&](const std::string& w) -> float* {
    auto [it, inserted] = ctx.try_emplace(w);
    if (inserted) {
      it->second.assign(dim, 0.0f);
      for (auto& x : it->second) {
        x = static_cast<float>(rng.Normal(0.0, 0.5 / dim));
      }
    }
    return it->second.data();
  };
  // Unigram table for negative sampling.
  std::vector<std::string> unigrams;
  for (const auto& s : sentences) {
    for (const auto& w : s) unigrams.push_back(w);
  }
  if (unigrams.empty()) return;

  std::vector<float> in_vec(dim), grad(dim);
  for (int e = 0; e < epochs; ++e) {
    for (const auto& sent : sentences) {
      const int n = static_cast<int>(sent.size());
      for (int i = 0; i < n; ++i) {
        std::fill(in_vec.begin(), in_vec.end(), 0.0f);
        AccumulateWord(sent[i], in_vec.data());
        std::fill(grad.begin(), grad.end(), 0.0f);
        const int lo = std::max(0, i - window);
        const int hi = std::min(n - 1, i + window);
        for (int j = lo; j <= hi; ++j) {
          if (j == i) continue;
          // One positive + `negatives` sampled negatives.
          for (int k = 0; k <= negatives; ++k) {
            const bool positive = (k == 0);
            const std::string& target =
                positive ? sent[j]
                         : unigrams[rng.UniformU64(unigrams.size())];
            float* out = ctx_vec(target);
            const float score = Dot(in_vec.data(), out, dim);
            const float label = positive ? 1.0f : 0.0f;
            const float sigma = 1.0f / (1.0f + std::exp(-score));
            const float g = static_cast<float>(lr) * (label - sigma);
            for (int d = 0; d < dim; ++d) {
              grad[d] += g * out[d];
              out[d] += g * in_vec[d];
            }
          }
        }
        float* wv = MutableWordVec(sent[i]);
        for (int d = 0; d < dim; ++d) wv[d] += grad[d];
      }
    }
  }
}

}  // namespace deepjoin
