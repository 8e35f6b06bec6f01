#include "nn/transformer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace deepjoin {
namespace nn {
namespace {

TransformerConfig SmallConfig(PositionMode mode) {
  TransformerConfig c;
  c.vocab_size = 50;
  c.d_model = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.d_ff = 32;
  c.max_seq_len = 12;
  c.position_mode = mode;
  c.rel_radius = 4;
  return c;
}

TEST(TransformerTest, OutputShapeAndDeterminism) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  const std::vector<u32> ids = {1, 5, 9, 4};
  auto a = enc.EncodeToVector(ids);
  auto b = enc.EncodeToVector(ids);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a, b);
}

TEST(TransformerTest, DifferentInputsGiveDifferentEmbeddings) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  auto a = enc.EncodeToVector({1, 5, 9});
  auto b = enc.EncodeToVector({2, 6, 10});
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-4);
}

TEST(TransformerTest, TruncatesOverlongSequences) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  std::vector<u32> long_ids(40, 7);
  std::vector<u32> truncated(long_ids.begin(), long_ids.begin() + 12);
  EXPECT_EQ(enc.EncodeToVector(long_ids), enc.EncodeToVector(truncated));
}

TEST(TransformerTest, AbsolutePositionsAreOrderSensitive) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  auto a = enc.EncodeToVector({3, 4, 5, 6});
  auto b = enc.EncodeToVector({6, 5, 4, 3});
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-5);
}

TEST(TransformerTest, RelativeBiasModeWorks) {
  TransformerEncoder enc(SmallConfig(PositionMode::kRelativeBias));
  auto a = enc.EncodeToVector({3, 4, 5, 6});
  EXPECT_EQ(a.size(), 16u);
  for (float v : a) EXPECT_TRUE(std::isfinite(v));
}

TEST(TransformerTest, InitTokenEmbeddingIsUsed) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  auto before = enc.EncodeToVector({7});
  std::vector<float> v(16, 0.5f);
  enc.InitTokenEmbedding(7, v);
  auto after = enc.EncodeToVector({7});
  EXPECT_NE(before, after);
}

TEST(TransformerTest, ContrastiveTrainingSeparatesPairs) {
  // Two "topics": token sets {10..14} and {30..34}. Positives pair
  // sequences of the same topic; after a few steps, same-topic cosine
  // should exceed cross-topic cosine.
  TransformerEncoder enc(SmallConfig(PositionMode::kRelativeBias));
  AdamConfig ac;
  ac.lr = 3e-3;
  AdamW opt(enc.params().params(), ac);

  auto topic_seq = [](u32 base, u32 shift) {
    return std::vector<u32>{base + shift, base + (shift + 1) % 5,
                            base + (shift + 2) % 5};
  };
  for (int step = 0; step < 30; ++step) {
    std::vector<VarPtr> xs, ys;
    for (u32 s = 0; s < 4; ++s) {
      const u32 base = (s % 2 == 0) ? 10 : 30;
      xs.push_back(enc.Encode(topic_seq(base, s)));
      ys.push_back(enc.Encode(topic_seq(base, s + 1)));
    }
    auto loss = MultipleNegativesRankingLoss(xs, ys, 10.0f);
    Backward(loss);
    opt.Step(1.0);
    enc.params().ZeroGrads();
  }
  auto cosine = [](const std::vector<float>& a, const std::vector<float>& b) {
    double dot = 0, na = 0, nb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      na += a[i] * a[i];
      nb += b[i] * b[i];
    }
    return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
  };
  auto a1 = enc.EncodeToVector({10, 11, 12});
  auto a2 = enc.EncodeToVector({12, 13, 14});
  auto b1 = enc.EncodeToVector({30, 31, 32});
  EXPECT_GT(cosine(a1, a2), cosine(a1, b1));
}

// Finite differences through the whole encoder, for sampled entries of
// every parameter tensor. The forward-only tests cannot see an op that
// runs outside the tape (a residual added in place, say): the values stay
// right and only the gradients go wrong.
TEST(TransformerTest, EncodeGradientsMatchFiniteDifferences) {
  for (PositionMode mode :
       {PositionMode::kAbsolute, PositionMode::kRelativeBias}) {
    TransformerConfig c;
    c.vocab_size = 20;
    c.d_model = 8;
    c.num_layers = 2;
    c.num_heads = 2;
    c.d_ff = 16;
    c.max_seq_len = 10;
    c.position_mode = mode;
    c.rel_radius = 2;  // L = 7 > R + 1, so the edge buckets are clamped
    TransformerEncoder enc(c);
    // Larger weights than the N(0, 0.02) init, so that every block is
    // nonlinear and gradients are well above finite-difference noise.
    Rng rng(11);
    for (const VarPtr& p : enc.params().params()) {
      p->mutable_value().RandomNormal(rng, 0.5);
    }
    const std::vector<u32> ids = {3, 17, 5, 5, 12, 0, 9};
    Matrix w(c.d_model, 1);
    for (int r = 0; r < c.d_model; ++r) w.at(r, 0) = 0.3f + 0.1f * (r % 5);
    const VarPtr weights = MakeVar(std::move(w));
    auto loss = [&] { return MatMul(enc.Encode(ids), weights); };
    Backward(loss());

    const float h = 1e-2f;
    const auto& params = enc.params().params();
    for (size_t pi = 0; pi < params.size(); ++pi) {
      Matrix& value = params[pi]->mutable_value();
      const Matrix& grad = params[pi]->grad();
      // The two entries with the largest gradients, and one fixed entry.
      std::vector<size_t> order(value.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::partial_sort(order.begin(), order.begin() + 2, order.end(),
                        [&](size_t a, size_t b) {
                          return std::abs(grad.data()[a]) >
                                 std::abs(grad.data()[b]);
                        });
      for (size_t i : {order[0], order[1], value.size() / 2}) {
        NoGradGuard guard;
        const float x = value.data()[i];
        value.data()[i] = x + h;
        const double up = loss()->value().at(0, 0);
        value.data()[i] = x - h;
        const double down = loss()->value().at(0, 0);
        value.data()[i] = x;
        const double numeric = (up - down) / (2.0 * h);
        EXPECT_NEAR(grad.data()[i], numeric, 2e-3 + 2e-2 * std::abs(numeric))
            << enc.params().names()[pi] << "[" << i << "] mode "
            << static_cast<int>(mode);
      }
    }
  }
}

TEST(TransformerTest, ParamStoreCountsScalars) {
  TransformerEncoder enc(SmallConfig(PositionMode::kAbsolute));
  EXPECT_GT(enc.params().NumScalars(), 1000u);
  EXPECT_EQ(enc.params().params().size(), enc.params().names().size());
}

}  // namespace
}  // namespace nn
}  // namespace deepjoin
