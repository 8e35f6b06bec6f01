// The inference workspace's weight copies and thread independence. On AMX
// hosts (kern::AmxLinearActive) every EncoderWorkspace keeps bf16 copies of
// the linear weights, repacked when a weight's Var::version() moves; these
// tests pin that an encoder that has already encoded follows later weight
// updates, and that pool threads encode byte-equal to the calling thread
// (served_equals_direct in e2ebench relies on it). Where the linears run
// FP32 the same properties hold trivially, so nothing skips.
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "core/trainer.h"
#include "lake/generator.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "util/kernels.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace {

nn::TransformerConfig MpnetShape() {
  nn::TransformerConfig tc;
  tc.vocab_size = 97;
  tc.d_model = 64;
  tc.d_ff = 256;
  tc.position_mode = nn::PositionMode::kRelativeBias;
  return tc;
}

std::vector<u32> Ids(int len, int salt) {
  std::vector<u32> ids;
  for (int i = 0; i < len; ++i) {
    ids.push_back(static_cast<u32>((i * 13 + salt) % 97));
  }
  return ids;
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void CopyParams(nn::ParamStore& from, nn::ParamStore& to) {
  ASSERT_EQ(from.params().size(), to.params().size());
  for (size_t i = 0; i < from.params().size(); ++i) {
    to.params()[i]->mutable_value() = from.params()[i]->value();
  }
}

TEST(EncoderWorkspaceTest, EncodeToVectorTracksAdamWStep) {
  SCOPED_TRACE(kern::LinearPathName());
  nn::TransformerEncoder enc(MpnetShape());
  const std::vector<u32> ids = Ids(37, 5);
  const std::vector<float> before = enc.EncodeToVector(ids);

  nn::AdamW opt(enc.params().params(), nn::AdamConfig{});
  std::vector<nn::VarPtr> xs, ys;
  for (int s = 0; s < 4; ++s) {
    xs.push_back(enc.Encode(Ids(9 + 7 * s, s)));
    ys.push_back(enc.Encode(Ids(11 + 5 * s, 40 + s)));
  }
  nn::Backward(nn::MultipleNegativesRankingLoss(xs, ys, 10.0f));
  opt.Step(1.0);
  const std::vector<float> after = enc.EncodeToVector(ids);

  // A second encoder holding the stepped weights packs its copies afresh.
  nn::TransformerEncoder fresh(MpnetShape());
  CopyParams(enc.params(), fresh.params());
  EXPECT_TRUE(SameBytes(after, fresh.EncodeToVector(ids)));
  EXPECT_FALSE(SameBytes(before, after));
}

TEST(EncoderWorkspaceTest, EncodeToVectorTracksLoadedWeights) {
  SCOPED_TRACE(kern::LinearPathName());
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(1010));
  const std::vector<lake::Column> sample = gen.GenerateQueries(60, 0x10);
  FastTextConfig fc;
  fc.dim = 16;
  const FastTextEmbedder embedder(fc);
  core::PlmEncoderConfig cfg;
  cfg.max_seq_len = 32;

  // The served encoder has encoded, so its workspace holds packed copies.
  core::PlmColumnEncoder served(cfg, sample, embedder);
  for (size_t i = 0; i < 4; ++i) served.Encode(sample[i]);

  // A fine-tuned model, saved and loaded back.
  core::PlmColumnEncoder tuned(cfg, sample, embedder);
  core::TrainingDataConfig tdc;
  tdc.max_pairs = 60;
  core::FineTuneConfig ftc;
  ftc.batch_size = 4;
  ftc.max_steps = 3;
  const auto data = core::PrepareTrainingData(sample, &embedder, tdc);
  ASSERT_TRUE(core::FineTunePlm(tuned, data, ftc).ok());
  const std::string path = std::string(::testing::TempDir()) +
                           "/encoder_workspace_loaded.djm";
  ASSERT_TRUE(core::SaveEncoder(tuned, path).ok());
  auto loaded = core::LoadEncoder(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Load the weights into the served encoder the way LoadEncoder fills a
  // new one, then encode again.
  CopyParams((*loaded)->transformer().params(), served.transformer().params());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        SameBytes(served.Encode(sample[i]), (*loaded)->Encode(sample[i])))
        << "column " << i;
  }
}

TEST(EncoderWorkspaceTest, PoolThreadsEncodeLikeTheCallingThread) {
  SCOPED_TRACE(kern::LinearPathName());
  nn::TransformerEncoder enc(MpnetShape());
  constexpr int kInputs = 24;
  std::vector<std::vector<u32>> inputs;
  std::vector<std::vector<float>> direct;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(Ids(1 + (i * 7) % 70, i));
    direct.push_back(enc.EncodeToVector(inputs.back()));
  }
  // Every input on every pool thread, several times over.
  std::vector<std::vector<float>> pooled(4 * kInputs);
  ThreadPool pool(4);
  pool.ParallelFor(pooled.size(), [&](size_t t) {
    pooled[t] = enc.EncodeToVector(inputs[t % kInputs]);
  });
  for (size_t t = 0; t < pooled.size(); ++t) {
    EXPECT_TRUE(SameBytes(direct[t % kInputs], pooled[t])) << "task " << t;
  }
}

}  // namespace
}  // namespace deepjoin
