// Recurrent layers: GRU and LSTM cells plus bidirectional wrappers that
// unroll over a [B,T,E] sequence via the autograd tape (backprop through
// time comes for free). Where no graph is recorded (serving, evaluation)
// the wrappers run each direction as one fused sequence op instead.
#ifndef DTDBD_NN_RNN_H_
#define DTDBD_NN_RNN_H_

#include <memory>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace dtdbd::nn {

class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  // x [B,in], h [B,H] -> new h [B,H].
  tensor::Tensor Step(const tensor::Tensor& x, const tensor::Tensor& h) const;

  // True when Sequence() may replace unrolling Step over x (see
  // tensor::ForwardOnlyFusionApplies).
  bool CanFuseSequence(const tensor::Tensor& x) const;
  // x [B,T,in] -> the hidden states [B,T,H] of Step unrolled from h = 0
  // (t descending when `reverse`), as one forward-only node.
  tensor::Tensor Sequence(const tensor::Tensor& x, bool reverse) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  // Gate weights: x-projections [in, 3H], h-projections [H, 3H], bias [3H].
  tensor::Tensor wx_;
  tensor::Tensor wh_;
  tensor::Tensor bias_;
};

class LstmCell : public Module {
 public:
  LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  struct State {
    tensor::Tensor h;
    tensor::Tensor c;
  };

  State Step(const tensor::Tensor& x, const State& state) const;

  // As GruCell: the h of Step unrolled from h = c = 0, as one node.
  bool CanFuseSequence(const tensor::Tensor& x) const;
  tensor::Tensor Sequence(const tensor::Tensor& x, bool reverse) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  tensor::Tensor wx_;    // [in, 4H]
  tensor::Tensor wh_;    // [H, 4H]
  tensor::Tensor bias_;  // [4H]
};

// Bidirectional GRU; output at each step is the concatenation of the
// forward and backward hidden states.
class BiGru : public Module {
 public:
  BiGru(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  // x [B,T,E] -> sequence outputs [B,T,2H].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  int64_t output_dim() const;

 private:
  std::unique_ptr<GruCell> fwd_;
  std::unique_ptr<GruCell> bwd_;
};

// Bidirectional LSTM, same interface as BiGru.
class BiLstm : public Module {
 public:
  BiLstm(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  int64_t output_dim() const;

 private:
  std::unique_ptr<LstmCell> fwd_;
  std::unique_ptr<LstmCell> bwd_;
};

}  // namespace dtdbd::nn

#endif  // DTDBD_NN_RNN_H_
