#include "models/moe.h"

#include "tensor/ops.h"

namespace dtdbd::models {

using tensor::Tensor;

MmoeModel::MmoeModel(const ModelConfig& config)
    : config_(config), rng_(config.seed) {
  DTDBD_CHECK(config_.encoder != nullptr) << "MMoE requires a frozen encoder";
  const int64_t e = config_.encoder->dim();
  for (int64_t k = 0; k < config_.num_experts; ++k) {
    experts_.push_back(std::make_unique<nn::Mlp>(
        std::vector<int64_t>{e, config_.hidden_dim, config_.hidden_dim},
        config_.dropout, &rng_));
    RegisterChild("expert" + std::to_string(k), experts_.back().get());
  }
  gate_ = std::make_unique<nn::Linear>(e, config_.num_experts, &rng_);
  RegisterChild("gate", gate_.get());
  classifier_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{config_.hidden_dim, config_.hidden_dim, 2},
      config_.dropout, &rng_);
  RegisterChild("classifier", classifier_.get());
}

ModelOutput MmoeModel::Forward(const data::Batch& batch, bool training) {
  Tensor encoded = config_.encoder->Encode(batch.tokens, batch.batch_size,
                                           batch.seq_len);
  Tensor pooled = tensor::MeanOverTime(encoded);
  std::vector<Tensor> expert_outs;
  for (const auto& expert : experts_) {
    expert_outs.push_back(
        expert->Forward(pooled, training, &rng_, /*output_relu=*/true));
  }
  Tensor gate_weights = tensor::Softmax(gate_->Forward(pooled));
  ModelOutput out;
  out.features = tensor::WeightedSumOverTime(tensor::StackTime(expert_outs),
                                             gate_weights);
  Tensor h = tensor::Dropout(out.features, config_.dropout, &rng_, training);
  out.logits = classifier_->Forward(h, training, &rng_);
  return out;
}

MoseModel::MoseModel(const ModelConfig& config)
    : config_(config), rng_(config.seed) {
  DTDBD_CHECK(config_.encoder != nullptr) << "MoSE requires a frozen encoder";
  const int64_t e = config_.encoder->dim();
  for (int64_t k = 0; k < config_.num_experts; ++k) {
    experts_.push_back(std::make_unique<nn::LstmCell>(e, config_.rnn_hidden,
                                                      &rng_));
    RegisterChild("expert" + std::to_string(k), experts_.back().get());
  }
  gate_ = std::make_unique<nn::Linear>(e, config_.num_experts, &rng_);
  RegisterChild("gate", gate_.get());
  classifier_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{feature_dim(), config_.hidden_dim, 2},
      config_.dropout, &rng_);
  RegisterChild("classifier", classifier_.get());
}

int64_t MoseModel::feature_dim() const { return config_.rnn_hidden; }

ModelOutput MoseModel::Forward(const data::Batch& batch, bool training) {
  Tensor encoded = config_.encoder->Encode(batch.tokens, batch.batch_size,
                                           batch.seq_len);
  Tensor pooled = tensor::MeanOverTime(encoded);
  std::vector<Tensor> expert_outs;
  for (const auto& expert : experts_) {
    // Run the LSTM expert over the sequence; use the final hidden state.
    if (expert->CanFuseSequence(encoded)) {
      expert_outs.push_back(tensor::SliceTime(
          expert->Sequence(encoded, /*reverse=*/false), batch.seq_len - 1));
      continue;
    }
    nn::LstmCell::State state{
        Tensor::Zeros({batch.batch_size, config_.rnn_hidden}),
        Tensor::Zeros({batch.batch_size, config_.rnn_hidden})};
    for (int64_t t = 0; t < batch.seq_len; ++t) {
      state = expert->Step(tensor::SliceTime(encoded, t), state);
    }
    expert_outs.push_back(state.h);
  }
  Tensor gate_weights = tensor::Softmax(gate_->Forward(pooled));
  ModelOutput out;
  out.features = tensor::WeightedSumOverTime(tensor::StackTime(expert_outs),
                                             gate_weights);
  Tensor h = tensor::Dropout(out.features, config_.dropout, &rng_, training);
  out.logits = classifier_->Forward(h, training, &rng_);
  return out;
}

}  // namespace dtdbd::models
