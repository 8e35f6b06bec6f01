#include "text/fasttext.h"

#include <cmath>

#include <gtest/gtest.h>

#include "text/char_ngram.h"
#include "util/hash.h"
#include "util/kernels.h"

namespace deepjoin {
namespace {

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  const double d = std::sqrt(na) * std::sqrt(nb);
  return d > 0 ? dot / d : 0.0;
}

class FastTextTest : public ::testing::Test {
 protected:
  FastTextTest() : embedder_(FastTextConfig{}) {}
  FastTextEmbedder embedder_;
};

TEST_F(FastTextTest, WordVectorsAreUnitLength) {
  auto v = embedder_.WordVector("example");
  double n = 0;
  for (float x : v) n += x * x;
  EXPECT_NEAR(std::sqrt(n), 1.0, 1e-5);
}

TEST_F(FastTextTest, DeterministicAcrossInstances) {
  FastTextEmbedder other{FastTextConfig{}};
  EXPECT_EQ(embedder_.WordVector("table"), other.WordVector("table"));
}

TEST_F(FastTextTest, TyposAreCloserThanUnrelatedWords) {
  const auto base = embedder_.WordVector("preston");
  const auto typo = embedder_.WordVector("perston");   // transposition
  const auto other = embedder_.WordVector("zqvxkjuw");
  EXPECT_GT(Cosine(base, typo), Cosine(base, other) + 0.2);
}

TEST_F(FastTextTest, SharedSubwordsInduceSimilarity) {
  const auto a = embedder_.WordVector("nation");
  const auto b = embedder_.WordVector("national");
  const auto c = embedder_.WordVector("bridge");
  EXPECT_GT(Cosine(a, b), Cosine(a, c));
}

TEST_F(FastTextTest, TextVectorAveragesWords) {
  const auto ab = embedder_.TextVector("alpha beta");
  const auto a = embedder_.WordVector("alpha");
  const auto b = embedder_.WordVector("beta");
  std::vector<float> mean(a.size());
  for (size_t i = 0; i < a.size(); ++i) mean[i] = (a[i] + b[i]) / 2;
  L2Normalize(mean.data(), static_cast<int>(mean.size()));
  EXPECT_GT(Cosine(ab, mean), 0.999);
}

TEST_F(FastTextTest, EmptyTextIsZeroVector) {
  const auto v = embedder_.TextVector("!!!");
  for (float x : v) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST_F(FastTextTest, TrainSynonymsPullsGroupTogether) {
  const auto before = Cosine(embedder_.WordVector("frentol"),
                             embedder_.WordVector("gastupi"));
  embedder_.TrainSynonyms({{"frentol", "gastupi"}}, 0.9, 3);
  const auto after = Cosine(embedder_.WordVector("frentol"),
                            embedder_.WordVector("gastupi"));
  EXPECT_GT(after, before + 0.3);
}

TEST_F(FastTextTest, TrainSynonymsLeavesOthersAlone) {
  const auto before = embedder_.WordVector("bystander");
  embedder_.TrainSynonyms({{"frentol", "gastupi"}}, 0.9, 3);
  EXPECT_EQ(embedder_.WordVector("bystander"), before);
}

// Golden regression: synonym training is pinned bit for bit in the scalar
// tier. The lexicon covers the two cases the training loop must keep
// exact: a group that repeats a word (its second occurrence sees the
// first one's update) and a word shared by two groups.
TEST(FastTextGoldenTest, TrainSynonymsMatchesRecordedBits) {
  kern::ForceTierForTest(kern::Tier::kScalar);
  FastTextConfig fc;
  fc.dim = 64;
  FastTextEmbedder emb(fc);
  const std::vector<std::vector<std::string>> groups = {
      {"nation", "national", "nations"},
      {"a", "b", "a"},
      {"bridge", "brig", "national"},
      {"solo"},
      {"preston", "perston"},
  };
  emb.TrainSynonyms(groups, 0.8, 2);
  std::string bytes;
  for (const auto& group : groups) {
    for (const auto& w : group) {
      const std::vector<float> v = emb.WordVector(w);
      bytes.append(reinterpret_cast<const char*>(v.data()),
                   v.size() * sizeof(float));
    }
  }
  kern::ClearForcedTierForTest();
  EXPECT_EQ(Fnv1a(bytes), 0x1cb51e2b830b0537ULL);
}

TEST_F(FastTextTest, SkipGramBringsCooccurringWordsCloser) {
  FastTextConfig fc;
  fc.dim = 16;
  FastTextEmbedder emb(fc);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.push_back({"soltar", "brimel", "soltar", "brimel"});
    corpus.push_back({"quvane", "drosit", "quvane", "drosit"});
  }
  const double before =
      Cosine(emb.WordVector("soltar"), emb.WordVector("brimel"));
  Rng rng(3);
  emb.TrainSkipGram(corpus, 2, 3, 0.05, 3, rng);
  const double after =
      Cosine(emb.WordVector("soltar"), emb.WordVector("brimel"));
  EXPECT_GT(after, before);
}

TEST_F(FastTextTest, L2DistanceAndDotBasics) {
  const float a[3] = {1, 0, 0};
  const float b[3] = {0, 1, 0};
  EXPECT_NEAR(L2Distance(a, b, 3), std::sqrt(2.0), 1e-6);
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 0.0f);
}

TEST(CharNgramTest, BoundaryMarkersDistinguishAffixes) {
  std::vector<u32> a, b;
  HashedCharNgrams("abc", 3, 3, 1 << 16, &a);
  HashedCharNgrams("bca", 3, 3, 1 << 16, &b);
  EXPECT_NE(a, b);
}

TEST(CharNgramTest, IncludesWholeWordFeature) {
  std::vector<u32> grams;
  HashedCharNgrams("hi", 3, 5, 1 << 16, &grams);
  EXPECT_FALSE(grams.empty());  // "<hi>" itself even if shorter than minn+2
}

}  // namespace
}  // namespace deepjoin
