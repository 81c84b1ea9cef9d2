#include "text/frozen_encoder.h"

#include <cmath>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/registry.h"

namespace dtdbd::text {

using tensor::Tensor;

namespace {

// Registered so the op counters (GetOpStats) time and count the encoder
// like any kernel. It has no inputs, so its node never joins a graph.
const tensor::Op* const kFrozenEncode =
    tensor::OpRegistry::Get().Register({"FrozenEncode", 0, nullptr});

}  // namespace

FrozenEncoder::FrozenEncoder(int vocab_size, int64_t dim, uint64_t seed)
    : dim_(dim) {
  Rng rng(seed);
  table_ = tensor::NormalInit({vocab_size, dim}, 0.5f, &rng,
                              /*requires_grad=*/false);
  mix_w_ = tensor::XavierInit({2 * dim, dim}, 2 * dim, dim, &rng,
                              /*requires_grad=*/false);
  mix_b_ = tensor::UniformInit({dim}, 0.1f, &rng, /*requires_grad=*/false);
}

Tensor FrozenEncoder::Encode(const std::vector<int>& ids, int64_t batch,
                             int64_t time) const {
  DTDBD_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * time);
  tensor::ScopedOpTimer timer(kFrozenEncode);
  const int64_t v = table_.dim(0);
  // All ids bounds-checked up front (the neighborhood loop below reads ids
  // at offsets other than the current position, so a per-element check at
  // use would not cover every read). Recoverable callers validate first via
  // tensor::ValidateTokenIds; reaching this check is API misuse.
  {
    const Status ids_ok = tensor::ValidateTokenIds(ids, v);
    DTDBD_CHECK(ids_ok.ok()) << "FrozenEncoder::Encode: " << ids_ok.message();
  }
  std::vector<float> out(static_cast<size_t>(batch * time * dim_));
  const float* tab = table_.data().data();
  const float* w = mix_w_.data().data();
  const float* b = mix_b_.data().data();
  // h_t = tanh(W [e_t ; ctx_t] + b), ctx_t = mean of the +/-1 neighborhood.
  std::vector<float> cat(2 * dim_);
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t ti = 0; ti < time; ++ti) {
      const int id = ids[bi * time + ti];
      const float* e = tab + static_cast<int64_t>(id) * dim_;
      // Context: average of neighbors (PAD-free best effort at edges).
      for (int64_t j = 0; j < dim_; ++j) cat[j] = e[j];
      int count = 0;
      for (int64_t j = 0; j < dim_; ++j) cat[dim_ + j] = 0.0f;
      for (int64_t dt : {int64_t{-1}, int64_t{1}}) {
        const int64_t tn = ti + dt;
        if (tn < 0 || tn >= time) continue;
        const int idn = ids[bi * time + tn];
        const float* en = tab + static_cast<int64_t>(idn) * dim_;
        for (int64_t j = 0; j < dim_; ++j) cat[dim_ + j] += en[j];
        ++count;
      }
      if (count > 0) {
        const float inv = 1.0f / static_cast<float>(count);
        for (int64_t j = 0; j < dim_; ++j) cat[dim_ + j] *= inv;
      }
      float* orow = out.data() + (bi * time + ti) * dim_;
      tensor::AffineRow(cat.data(), w, b, 2 * dim_, dim_, orow);
      for (int64_t j = 0; j < dim_; ++j) orow[j] = std::tanh(orow[j]);
    }
  }
  return tensor::MakeOp(kFrozenEncode, {batch, time, dim_}, std::move(out),
                        {});
}

}  // namespace dtdbd::text
