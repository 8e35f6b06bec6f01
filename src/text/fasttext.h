// fastText-style subword embedder. Substitutes for the pre-trained fastText
// vectors the paper uses for (a) PEXESO's cell metric space and (b) the
// no-fine-tuning embedding baseline.
//
// A word vector is the normalized mean of hashed char-n-gram vectors plus a
// per-word vector. Two training passes are available:
//   * TrainSynonyms: contrastively pulls the members of each synonym group
//     together (the generator exports the lexicon it sampled from), standing
//     in for large-corpus distributional pre-training.
//   * TrainSkipGram: classic skip-gram with negative sampling over token
//     sequences, for users who bring real text.
// Untrained, the embedder already places misspellings near their source
// word because they share most char n-grams — the property PEXESO's
// semantic joins rely on.
#ifndef DEEPJOIN_TEXT_FASTTEXT_H_
#define DEEPJOIN_TEXT_FASTTEXT_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace deepjoin {

struct FastTextConfig {
  int dim = 32;           ///< embedding dimensionality
  int minn = 3;           ///< min char n-gram length
  int maxn = 5;           ///< max char n-gram length
  u64 buckets = 1 << 16;  ///< hashed n-gram table size
  u64 seed = 7;
};

class FastTextEmbedder {
 public:
  explicit FastTextEmbedder(const FastTextConfig& config);

  int dim() const { return config_.dim; }

  /// Embeds a single word: mean of its n-gram vectors + its word vector,
  /// L2-normalized. Deterministic for a fixed config.
  std::vector<float> WordVector(std::string_view word) const;

  /// Embeds a text (e.g., a cell value): normalized mean of word vectors.
  /// Empty/ non-alphanumeric text maps to the zero vector.
  std::vector<float> TextVector(std::string_view text) const;

  /// Appends TextVector(text) into a flat buffer (hot path for PEXESO).
  void TextVectorInto(std::string_view text, float* out) const;

  /// Pulls words within each synonym group toward their group centroid.
  /// `strength` in (0, 1]: 1 collapses a group to its centroid. Per epoch
  /// and group, the members' raw (pre-normalization) vectors are averaged
  /// into the centroid, then each member in order moves its word vector by
  /// strength * (centroid - raw). Each raw vector is computed once per
  /// group and epoch; a group that repeats a word recomputes it before each
  /// update, so a later occurrence sees the earlier one's move.
  void TrainSynonyms(const std::vector<std::vector<std::string>>& groups,
                     double strength, int epochs);

  /// Skip-gram with negative sampling over token sequences.
  void TrainSkipGram(const std::vector<std::vector<std::string>>& sentences,
                     int window, int negatives, double lr, int epochs,
                     Rng& rng);

 private:
  /// Raw (unnormalized) word vector into `out` (accumulated, not assigned).
  void AccumulateWord(std::string_view word, float* out) const;
  /// Mutable per-word vector, lazily created.
  float* MutableWordVec(const std::string& word);

  FastTextConfig config_;
  std::vector<float> ngram_table_;  // buckets x dim
  std::unordered_map<std::string, std::vector<float>> word_vecs_;
};

/// L2-normalizes `v` in place; leaves the zero vector untouched.
void L2Normalize(float* v, int dim);
/// Euclidean distance between two dim-length vectors.
float L2Distance(const float* a, const float* b, int dim);
/// Dot product.
float Dot(const float* a, const float* b, int dim);

}  // namespace deepjoin

#endif  // DEEPJOIN_TEXT_FASTTEXT_H_
