#include "nn/rnn.h"

#include <vector>

#include "tensor/init.h"
#include "tensor/ops.h"

namespace dtdbd::nn {

using tensor::Tensor;

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  wx_ = RegisterParam("wx", tensor::XavierInit({input_dim, 3 * hidden_dim},
                                               input_dim, hidden_dim, rng));
  wh_ = RegisterParam("wh", tensor::XavierInit({hidden_dim, 3 * hidden_dim},
                                               hidden_dim, hidden_dim, rng));
  bias_ = RegisterParam("bias", Tensor::Zeros({3 * hidden_dim}, true));
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h) const {
  DTDBD_CHECK_EQ(x.dim(1), input_dim_);
  DTDBD_CHECK_EQ(h.dim(1), hidden_dim_);
  const int64_t hd = hidden_dim_;
  // Gates packed as [z | r | n] along the last dim.
  Tensor gx = tensor::AddBias(tensor::MatMul(x, wx_), bias_);
  Tensor gh = tensor::MatMul(h, wh_);
  Tensor z = tensor::Sigmoid(tensor::Add(tensor::SliceLastDim(gx, 0, hd),
                                         tensor::SliceLastDim(gh, 0, hd)));
  Tensor r = tensor::Sigmoid(tensor::Add(tensor::SliceLastDim(gx, hd, hd),
                                         tensor::SliceLastDim(gh, hd, hd)));
  Tensor n = tensor::Tanh(
      tensor::Add(tensor::SliceLastDim(gx, 2 * hd, hd),
                  tensor::Mul(r, tensor::SliceLastDim(gh, 2 * hd, hd))));
  // h' = n + z * (h - n): interpolation between candidate and previous state.
  return tensor::Add(n, tensor::Mul(z, tensor::Sub(h, n)));
}

bool GruCell::CanFuseSequence(const Tensor& x) const {
  return tensor::ForwardOnlyFusionApplies({x, wx_, wh_, bias_});
}

Tensor GruCell::Sequence(const Tensor& x, bool reverse) const {
  return tensor::GruSequence(x, wx_, wh_, bias_, reverse);
}

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  wx_ = RegisterParam("wx", tensor::XavierInit({input_dim, 4 * hidden_dim},
                                               input_dim, hidden_dim, rng));
  wh_ = RegisterParam("wh", tensor::XavierInit({hidden_dim, 4 * hidden_dim},
                                               hidden_dim, hidden_dim, rng));
  bias_ = RegisterParam("bias", Tensor::Zeros({4 * hidden_dim}, true));
}

LstmCell::State LstmCell::Step(const Tensor& x, const State& state) const {
  DTDBD_CHECK_EQ(x.dim(1), input_dim_);
  const int64_t hd = hidden_dim_;
  // Gates packed as [i | f | o | g].
  Tensor gates = tensor::Add(tensor::AddBias(tensor::MatMul(x, wx_), bias_),
                             tensor::MatMul(state.h, wh_));
  Tensor i = tensor::Sigmoid(tensor::SliceLastDim(gates, 0, hd));
  Tensor f = tensor::Sigmoid(tensor::SliceLastDim(gates, hd, hd));
  Tensor o = tensor::Sigmoid(tensor::SliceLastDim(gates, 2 * hd, hd));
  Tensor g = tensor::Tanh(tensor::SliceLastDim(gates, 3 * hd, hd));
  Tensor c = tensor::Add(tensor::Mul(f, state.c), tensor::Mul(i, g));
  Tensor h = tensor::Mul(o, tensor::Tanh(c));
  return {h, c};
}

bool LstmCell::CanFuseSequence(const Tensor& x) const {
  return tensor::ForwardOnlyFusionApplies({x, wx_, wh_, bias_});
}

Tensor LstmCell::Sequence(const Tensor& x, bool reverse) const {
  return tensor::LstmSequence(x, wx_, wh_, bias_, reverse);
}

namespace {

// [B,T,H] forward and backward states -> [B,T,2H], the same rows the
// unrolled path concatenates per step.
Tensor ConcatDirections(const Tensor& fwd, const Tensor& bwd) {
  const int64_t b = fwd.dim(0), t = fwd.dim(1), hd = fwd.dim(2);
  return tensor::Reshape(
      tensor::ConcatLastDim({tensor::Reshape(fwd, {b * t, hd}),
                             tensor::Reshape(bwd, {b * t, hd})}),
      {b, t, 2 * hd});
}

}  // namespace

BiGru::BiGru(int64_t input_dim, int64_t hidden_dim, Rng* rng) {
  fwd_ = std::make_unique<GruCell>(input_dim, hidden_dim, rng);
  bwd_ = std::make_unique<GruCell>(input_dim, hidden_dim, rng);
  RegisterChild("fwd", fwd_.get());
  RegisterChild("bwd", bwd_.get());
}

Tensor BiGru::Forward(const Tensor& x) const {
  DTDBD_CHECK_EQ(x.ndim(), 3);
  if (fwd_->CanFuseSequence(x) && bwd_->CanFuseSequence(x)) {
    return ConcatDirections(fwd_->Sequence(x, /*reverse=*/false),
                            bwd_->Sequence(x, /*reverse=*/true));
  }
  const int64_t b = x.dim(0), t = x.dim(1);
  const int64_t hd = fwd_->hidden_dim();
  std::vector<Tensor> fwd_out(t), bwd_out(t);
  Tensor h = Tensor::Zeros({b, hd});
  for (int64_t ti = 0; ti < t; ++ti) {
    h = fwd_->Step(tensor::SliceTime(x, ti), h);
    fwd_out[ti] = h;
  }
  h = Tensor::Zeros({b, hd});
  for (int64_t ti = t - 1; ti >= 0; --ti) {
    h = bwd_->Step(tensor::SliceTime(x, ti), h);
    bwd_out[ti] = h;
  }
  std::vector<Tensor> merged(t);
  for (int64_t ti = 0; ti < t; ++ti) {
    merged[ti] = tensor::ConcatLastDim({fwd_out[ti], bwd_out[ti]});
  }
  return tensor::StackTime(merged);
}

int64_t BiGru::output_dim() const { return 2 * fwd_->hidden_dim(); }

BiLstm::BiLstm(int64_t input_dim, int64_t hidden_dim, Rng* rng) {
  fwd_ = std::make_unique<LstmCell>(input_dim, hidden_dim, rng);
  bwd_ = std::make_unique<LstmCell>(input_dim, hidden_dim, rng);
  RegisterChild("fwd", fwd_.get());
  RegisterChild("bwd", bwd_.get());
}

Tensor BiLstm::Forward(const Tensor& x) const {
  DTDBD_CHECK_EQ(x.ndim(), 3);
  if (fwd_->CanFuseSequence(x) && bwd_->CanFuseSequence(x)) {
    return ConcatDirections(fwd_->Sequence(x, /*reverse=*/false),
                            bwd_->Sequence(x, /*reverse=*/true));
  }
  const int64_t b = x.dim(0), t = x.dim(1);
  const int64_t hd = fwd_->hidden_dim();
  std::vector<Tensor> fwd_out(t), bwd_out(t);
  LstmCell::State state{Tensor::Zeros({b, hd}), Tensor::Zeros({b, hd})};
  for (int64_t ti = 0; ti < t; ++ti) {
    state = fwd_->Step(tensor::SliceTime(x, ti), state);
    fwd_out[ti] = state.h;
  }
  state = {Tensor::Zeros({b, hd}), Tensor::Zeros({b, hd})};
  for (int64_t ti = t - 1; ti >= 0; --ti) {
    state = bwd_->Step(tensor::SliceTime(x, ti), state);
    bwd_out[ti] = state.h;
  }
  std::vector<Tensor> merged(t);
  for (int64_t ti = 0; ti < t; ++ti) {
    merged[ti] = tensor::ConcatLastDim({fwd_out[ti], bwd_out[ti]});
  }
  return tensor::StackTime(merged);
}

int64_t BiLstm::output_dim() const { return 2 * fwd_->hidden_dim(); }

}  // namespace dtdbd::nn
