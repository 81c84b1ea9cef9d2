#include "models/model.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"

#include "data/generator.h"
#include "models/m3fend.h"
#include "text/frozen_encoder.h"

namespace dtdbd::models {
namespace {

class ModelZooTest : public ::testing::Test {
 protected:
  ModelZooTest() {
    dataset_ = data::GenerateCorpus(data::MicroConfig(11));
    encoder_ = std::make_unique<text::FrozenEncoder>(dataset_.vocab->size(),
                                                     16, 5);
    config_.vocab_size = dataset_.vocab->size();
    config_.num_domains = dataset_.num_domains();
    config_.encoder = encoder_.get();
    config_.embed_dim = 12;
    config_.hidden_dim = 16;
    config_.conv_channels = 8;
    config_.rnn_hidden = 8;
    config_.num_experts = 3;
    config_.seed = 3;
    batch_ = data::MakeBatch(dataset_, {0, 1, 2, 3, 4, 5, 6, 7});
  }

  data::NewsDataset dataset_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  ModelConfig config_;
  data::Batch batch_;
};

TEST_F(ModelZooTest, AllModelsForwardWithCorrectShapes) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    auto model = CreateModel(name, config_);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
    EXPECT_GT(model->ParameterCount(), 0);
    for (bool training : {true, false}) {
      ModelOutput out = model->Forward(batch_, training);
      ASSERT_TRUE(out.logits.defined());
      EXPECT_EQ(out.logits.shape(), (tensor::Shape{8, 2}));
      ASSERT_TRUE(out.features.defined());
      EXPECT_EQ(out.features.ndim(), 2);
      EXPECT_EQ(out.features.dim(0), 8);
      EXPECT_EQ(out.features.dim(1), model->feature_dim());
      for (float v : out.logits.data()) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST_F(ModelZooTest, AdversarialModelsEmitDomainLogits) {
  for (const char* name : {"EANN", "EDDFN"}) {
    auto model = CreateModel(name, config_);
    ModelOutput out = model->Forward(batch_, true);
    ASSERT_TRUE(out.domain_logits.defined()) << name;
    EXPECT_EQ(out.domain_logits.shape(),
              (tensor::Shape{8, config_.num_domains}));
  }
  for (const char* name : {"EANN_NoDAT", "EDDFN_NoDAT", "TextCNN"}) {
    auto model = CreateModel(name, config_);
    ModelOutput out = model->Forward(batch_, true);
    EXPECT_FALSE(out.domain_logits.defined()) << name;
  }
}

TEST_F(ModelZooTest, SameSeedSameInitialization) {
  auto a = CreateModel("TextCNN-S", config_);
  auto b = CreateModel("TextCNN-S", config_);
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb[i].data());
  }
}

TEST_F(ModelZooTest, BertAndRobertaDiffer) {
  auto bert = CreateModel("BERT", config_);
  auto roberta = CreateModel("RoBERTa", config_);
  ModelOutput ob = bert->Forward(batch_, false);
  ModelOutput orr = roberta->Forward(batch_, false);
  EXPECT_NE(ob.logits.data(), orr.logits.data());
}

TEST_F(ModelZooTest, EvalForwardIsDeterministic) {
  auto model = CreateModel("MDFEND", config_);
  ModelOutput a = model->Forward(batch_, false);
  ModelOutput b = model->Forward(batch_, false);
  EXPECT_EQ(a.logits.data(), b.logits.data());
}

TEST_F(ModelZooTest, GradientsReachAllTrainableParams) {
  // Every registered parameter should receive some gradient from a
  // classification loss (checked for a representative subset of the zoo).
  for (const char* name :
       {"TextCNN-S", "MDFEND", "M3FEND", "EANN", "EDDFN", "MMoE"}) {
    SCOPED_TRACE(name);
    auto model = CreateModel(name, config_);
    ModelOutput out = model->Forward(batch_, true);
    tensor::Tensor loss = tensor::Mean(tensor::Square(out.logits));
    if (out.domain_logits.defined()) {
      loss = tensor::Add(loss,
                         tensor::Mean(tensor::Square(out.domain_logits)));
    }
    loss.Backward();
    int with_grad = 0, total = 0;
    for (auto& p : model->Parameters()) {
      float norm = 0.0f;
      for (float g : p.grad()) norm += std::abs(g);
      if (norm > 0.0f) ++with_grad;
      ++total;
    }
    // Dropout/ReLU may zero a couple of small bias gradients; require the
    // overwhelming majority of tensors to be reached.
    EXPECT_GE(with_grad, total * 8 / 10) << with_grad << "/" << total;
  }
}

TEST_F(ModelZooTest, M3fendDomainDistributionIsSoftmax) {
  ModelConfig c = config_;
  auto model = std::make_unique<M3fendModel>(c);
  model->Forward(batch_, /*training=*/true);
  const auto& dist = model->last_domain_distribution();
  ASSERT_EQ(dist.size(), 8u * config_.num_domains);
  for (int i = 0; i < 8; ++i) {
    double sum = 0.0;
    for (int d = 0; d < config_.num_domains; ++d) {
      const double p = dist[i * config_.num_domains + d];
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST_F(ModelZooTest, FreezeStopsGradients) {
  auto model = CreateModel("TextCNN-S", config_);
  model->Freeze();
  ModelOutput out = model->Forward(batch_, false);
  EXPECT_FALSE(out.logits.requires_grad());
}

TEST_F(ModelZooTest, ParameterCountsOrdering) {
  // The paper notes the student (TextCNN-S) is smaller than M3FEND. Our
  // scaled versions should preserve that ordering.
  auto student = CreateModel("TextCNN-S", config_);
  auto m3fend = CreateModel("M3FEND", config_);
  EXPECT_LT(student->ParameterCount(), m3fend->ParameterCount());
}

TEST(ModelFactoryDeathTest, UnknownName) {
  ModelConfig config;
  config.vocab_size = 10;
  config.num_domains = 2;
  EXPECT_DEATH(CreateModel("NotAModel", config), "unknown model name");
}

// Under grad the recurrent models never take the forward-only fused
// sequence ops: a training forward unrolls every cell step into the graph,
// and the gradients are bitwise those of the DTDBD_NO_FUSION run.
TEST_F(ModelZooTest, RecurrentTrainingForwardKeepsUnrolledGraph) {
  struct Run {
    std::string dump;
    std::vector<std::vector<float>> grads;
  };
  const bool saved = tensor::FusionEnabled();
  for (const char* name : {"BiGRU-S", "StyleLSTM", "MoSE"}) {
    SCOPED_TRACE(name);
    const auto run = [&](bool fused) {
      tensor::SetFusionEnabled(fused);
      auto model = CreateModel(name, config_);
      ModelOutput out = model->Forward(batch_, /*training=*/true);
      tensor::Tensor loss =
          tensor::CrossEntropyLoss(out.logits, batch_.labels);
      Run r;
      r.dump = tensor::DumpGraph(loss);
      loss.Backward();
      for (const tensor::Tensor& p : model->Parameters()) {
        r.grads.push_back(p.grad());
      }
      return r;
    };
    const Run unfused = run(false);
    const Run fused = run(true);
    EXPECT_EQ(fused.dump.find("Sequence("), std::string::npos);
    size_t sigmoids = 0;
    for (size_t at = fused.dump.find("= Sigmoid("); at != std::string::npos;
         at = fused.dump.find("= Sigmoid(", at + 1)) {
      ++sigmoids;
    }
    EXPECT_GE(sigmoids, static_cast<size_t>(2 * batch_.seq_len));
    ASSERT_EQ(fused.grads.size(), unfused.grads.size());
    for (size_t i = 0; i < fused.grads.size(); ++i) {
      ASSERT_EQ(fused.grads[i].size(), unfused.grads[i].size());
      EXPECT_EQ(std::memcmp(fused.grads[i].data(), unfused.grads[i].data(),
                            fused.grads[i].size() * sizeof(float)),
                0)
          << "gradient of parameter " << i << " differs";
    }
  }
  tensor::SetFusionEnabled(saved);
}

}  // namespace
}  // namespace dtdbd::models
