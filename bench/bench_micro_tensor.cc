// Micro-benchmarks of the tensor/NN substrate. Not a paper artifact —
// sanity numbers for the engine the experiments run on.
//
// Default mode sweeps the hot kernels (MatMul, Conv1dSeq, Softmax,
// EmbeddingGather) across --sweep-threads (default 1,2,4,8), verifies the
// forward and backward results are bitwise identical to the 1-thread run,
// and writes BENCH_tensor.json. It also times FrozenEncoder::Encode per
// sample at batch 1/32/64 with the SIMD mixing layer off and on
// (`frozen_encode`), and every zoo model's batch-of-one and batch-of-8
// eval forward with fusion on and off (`serving_forward`, with
// nodes/allocs/bytes per request), and fails on any scalar/SIMD or
// fused/unfused mismatch. Every timing is the median of --trials
// (default 5) interleaved trials, recorded with its min and max and the
// host fingerprint. Pass --gbench to run the google-benchmark suite
// instead (it accepts the usual --benchmark_* flags).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "dtdbd/distill.h"
#include "models/model.h"
#include "nn/rnn.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"
#include "text/features.h"
#include "text/frozen_encoder.h"

namespace {

using namespace dtdbd;
using tensor::Tensor;

Tensor RandomTensor(const tensor::Shape& shape, uint64_t seed,
                    bool requires_grad = false) {
  Rng rng(seed);
  return tensor::NormalInit(shape, 1.0f, &rng, requires_grad);
}

// ----- Thread-sweep mode ---------------------------------------------------

// One forward+backward evaluation of a kernel: builds fresh leaves from
// fixed seeds, reduces the op output with Sum, backprops, and returns the
// output plus every leaf gradient so runs can be compared bitwise.
struct FwdBwdResult {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

struct SweepOp {
  std::string name;
  std::string workload;
  std::function<Tensor()> forward;          // timed; run under NoGradGuard
  std::function<FwdBwdResult()> fwd_bwd;    // timed + bitwise-compared
};

// Leaves are built once (outside the timed region); each fwd_bwd call
// rebuilds the graph from them, zeroes grads, and backprops.
FwdBwdResult RunFwdBwd(const std::vector<Tensor>& leaves, const Tensor& out) {
  Tensor loss = tensor::Sum(out);
  loss.Backward();
  FwdBwdResult r;
  r.out = out.ToVector();
  for (const Tensor& leaf : leaves) r.grads.push_back(leaf.grad());
  return r;
}

void ZeroGrads(std::vector<Tensor>& leaves) {
  for (Tensor& leaf : leaves) leaf.ZeroGrad();
}

std::vector<SweepOp> MakeSweepOps() {
  std::vector<SweepOp> ops;

  {
    Tensor a = RandomTensor({128, 128}, 1, true);
    Tensor b = RandomTensor({128, 128}, 2, true);
    std::vector<Tensor> leaves = {a, b};
    ops.push_back({"MatMul", "a[128,128] @ b[128,128]",
                   [a, b] { return tensor::MatMul(a, b); },
                   [a, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::MatMul(a, b));
                   }});
  }

  {
    Tensor x = RandomTensor({32, 24, 32}, 3, true);
    Tensor w = RandomTensor({32, 96}, 4, true);
    Tensor b = RandomTensor({32}, 5, true);
    std::vector<Tensor> leaves = {x, w, b};
    ops.push_back({"Conv1dSeq", "x[32,24,32], w[32,3*32], k=3",
                   [x, w, b] { return tensor::Conv1dSeq(x, w, b, 3); },
                   [x, w, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::Conv1dSeq(x, w, b, 3));
                   }});
  }

  {
    Tensor x = RandomTensor({256, 64}, 6, true);
    std::vector<Tensor> leaves = {x};
    ops.push_back({"Softmax", "x[256,64]",
                   [x] { return tensor::Softmax(x); },
                   [x, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::Softmax(x));
                   }});
  }

  {
    Tensor table = RandomTensor({5000, 64}, 8, true);
    Rng rng(7);
    std::vector<int> ids(32 * 24);
    for (auto& id : ids) id = static_cast<int>(rng.UniformInt(5000));
    std::vector<Tensor> leaves = {table};
    ops.push_back(
        {"EmbeddingGather", "table[5000,64], ids[32*24]",
         [table, ids] { return tensor::EmbeddingGather(table, ids, 32, 24); },
         [table, ids, leaves]() mutable {
           ZeroGrads(leaves);
           return RunFwdBwd(leaves,
                            tensor::EmbeddingGather(table, ids, 32, 24));
         }});
  }

  {
    Tensor x = RandomTensor({128, 64}, 20, true);
    Tensor w = RandomTensor({64, 64}, 21, true);
    Tensor b = RandomTensor({64}, 22, true);
    std::vector<Tensor> leaves = {x, w, b};
    ops.push_back({"LinearRelu", "relu(x[128,64] @ w[64,64] + b)",
                   [x, w, b] { return tensor::LinearRelu(x, w, b); },
                   [x, w, b, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, tensor::LinearRelu(x, w, b));
                   }});
  }

  {
    Tensor x = RandomTensor({32, 24, 64}, 23, true);
    Tensor v = RandomTensor({64, 1}, 24, true);
    const auto attn = [x, v] {
      Tensor weights = tensor::Softmax(tensor::MatVecOverTime(x, v));
      return tensor::WeightedSumOverTime(x, weights);
    };
    std::vector<Tensor> leaves = {x, v};
    ops.push_back({"AttentionPool", "x[32,24,64] scored by v[64]",
                   attn,
                   [attn, leaves]() mutable {
                     ZeroGrads(leaves);
                     return RunFwdBwd(leaves, attn());
                   }});
  }

  return ops;
}

// ----- Timing: interleaved trials ------------------------------------------

// Wall-clock ms per iteration; repeats until >= 60 ms of work was measured.
template <typename Fn>
double TimeMs(const Fn& fn, int warmup = 2) {
  for (int i = 0; i < warmup; ++i) fn();
  using clock = std::chrono::steady_clock;
  int iters = 0;
  const auto start = clock::now();
  double elapsed_ms = 0.0;
  do {
    fn();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                           start)
                     .count();
  } while (elapsed_ms < 60.0 && iters < 10000);
  return elapsed_ms / iters;
}

// One timed figure: `prepare` pins what it runs under (thread count, SIMD,
// fusion) and `run` is one iteration.
struct Timed {
  std::function<void()> prepare;
  std::function<void()> run;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One figure's trials in run order (ms per iteration) and their median,
// min and max.
struct Timing {
  std::vector<double> trials;
  double median = 0.0, min = 0.0, max = 0.0;

  Timing() = default;
  explicit Timing(std::vector<double> t) : trials(std::move(t)) {
    if (trials.empty()) return;
    median = Median(trials);
    min = *std::min_element(trials.begin(), trials.end());
    max = *std::max_element(trials.begin(), trials.end());
  }
  Timing Scaled(double s) const {
    std::vector<double> t = trials;
    for (double& x : t) x *= s;
    return Timing(std::move(t));
  }
};

// Median over the trials of a's time over b's. Both figures ran in the
// same trials, so each ratio compares two neighbouring measurements; the
// ratio of the two medians can mix a fast spell of one with a slow spell
// of the other.
double MedianRatio(const Timing& a, const Timing& b) {
  std::vector<double> r;
  for (size_t t = 0; t < a.trials.size() && t < b.trials.size(); ++t) {
    if (b.trials[t] > 0) r.push_back(a.trials[t] / b.trials[t]);
  }
  return r.empty() ? 0.0 : Median(std::move(r));
}

// Times every figure `trials` times, interleaved: trial t of every figure
// runs before trial t+1 of any. The speed of a shared host wanders by tens
// of percent over seconds, so back-to-back trials of one figure would
// measure one moment of it; interleaved, a slow spell lands on all the
// figures of a section alike.
std::vector<Timing> TimeInterleaved(const std::vector<Timed>& figures,
                                    int trials) {
  std::vector<std::vector<double>> samples(figures.size());
  for (int t = 0; t < trials; ++t) {
    for (size_t i = 0; i < figures.size(); ++i) {
      figures[i].prepare();
      samples[i].push_back(TimeMs(figures[i].run));
    }
  }
  return std::vector<Timing>(samples.begin(), samples.end());
}

// `"key": median, "key_range": [min, max]` for the JSON record.
std::string TimingJson(const std::string& key, const Timing& t, int digits) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.*f, \"%s_range\": [%.*f, %.*f]",
                key.c_str(), digits, t.median, key.c_str(), digits, t.min,
                digits, t.max);
  return buf;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const FwdBwdResult& a, const FwdBwdResult& b) {
  if (!SameBits(a.out, b.out) || a.grads.size() != b.grads.size()) {
    return false;
  }
  for (size_t i = 0; i < a.grads.size(); ++i) {
    if (!SameBits(a.grads[i], b.grads[i])) return false;
  }
  return true;
}

// ----- Scalar vs SIMD sweep ------------------------------------------------

// Single-thread forward timings of the dispatched kernels with the SIMD
// paths pinned off (DTDBD_NO_SIMD semantics) and on (the default). SIMD
// must be bitwise identical to scalar (the backend_consistency_test
// contract).
struct SimdRow {
  std::string op, workload;
  Timing scalar_ms, simd_ms;
  bool simd_bitwise_equal = false;
  int64_t samples = 0;  // FrozenEncode rows: samples per iteration
};

// The kernels, then FrozenEncoder::Encode (24 tokens, dim 32) at batch 1,
// 32 and 64, which BENCH_tensor.json also reports per sample.
std::vector<SimdRow> RunSimdSweep(const text::FrozenEncoder& encoder,
                                  int trials) {
  struct Item {
    std::string name, workload;
    std::function<Tensor()> forward;
    int64_t samples = 0;
  };
  std::vector<Item> items;
  {
    Tensor a = RandomTensor({128, 128}, 30);
    Tensor b = RandomTensor({128, 128}, 31);
    items.push_back({"MatMul", "a[128,128] @ b[128,128]",
                     [a, b] { return tensor::MatMul(a, b); }});
  }
  {
    // Serving-shaped: one coalesced micro-batch through a hidden layer.
    Tensor a = RandomTensor({16, 64}, 32);
    Tensor b = RandomTensor({64, 64}, 33);
    items.push_back({"MatMul_serve", "a[16,64] @ b[64,64]",
                     [a, b] { return tensor::MatMul(a, b); }});
  }
  {
    Tensor x = RandomTensor({128, 64}, 34);
    Tensor w = RandomTensor({64, 64}, 35);
    Tensor b = RandomTensor({64}, 36);
    items.push_back({"LinearRelu", "relu(x[128,64] @ w[64,64] + b)",
                     [x, w, b] { return tensor::LinearRelu(x, w, b); }});
  }
  {
    Tensor x = RandomTensor({256, 64}, 37);
    items.push_back({"Softmax", "x[256,64]",
                     [x] { return tensor::Softmax(x); }});
  }
  {
    Tensor table = RandomTensor({5000, 64}, 38);
    Rng rng(39);
    std::vector<int> ids(32 * 24);
    for (auto& id : ids) id = static_cast<int>(rng.UniformInt(5000));
    items.push_back({"EmbeddingGather", "table[5000,64], ids[32*24]",
                     [table, ids] {
                       return tensor::EmbeddingGather(table, ids, 32, 24);
                     }});
  }
  for (const int64_t batch : {1, 32, 64}) {
    Rng rng(60 + static_cast<uint64_t>(batch));
    std::vector<int> ids(batch * 24);
    for (auto& id : ids) id = static_cast<int>(rng.UniformInt(1000));
    items.push_back({"FrozenEncode_b" + std::to_string(batch),
                     "ids[" + std::to_string(batch) + "*24], dim 32",
                     [&encoder, ids, batch] {
                       return encoder.Encode(ids, batch, 24);
                     },
                     batch});
  }

  const bool saved_simd = tensor::SimdEnabled();
  SetNumThreads(1);
  tensor::NoGradGuard no_grad;
  std::vector<SimdRow> rows;
  std::vector<Timed> figures;
  for (const Item& item : items) {
    SimdRow row;
    row.op = item.name;
    row.workload = item.workload;
    row.samples = item.samples;
    tensor::SetSimdEnabled(false);
    const std::vector<float> scalar_out = item.forward().ToVector();
    tensor::SetSimdEnabled(true);
    row.simd_bitwise_equal = SameBits(scalar_out, item.forward().ToVector());
    rows.push_back(std::move(row));
    for (const bool simd : {false, true}) {
      figures.push_back({[simd] { tensor::SetSimdEnabled(simd); },
                         [&item] { item.forward(); }});
    }
  }
  const std::vector<Timing> timings = TimeInterleaved(figures, trials);
  for (size_t i = 0; i < rows.size(); ++i) {
    SimdRow& row = rows[i];
    row.scalar_ms = timings[2 * i];
    row.simd_ms = timings[2 * i + 1];
    std::printf(
        "%-16s %-28s scalar %8.4f ms  simd %8.4f ms (%.2fx, %s)\n",
        row.op.c_str(), row.workload.c_str(), row.scalar_ms.median,
        row.simd_ms.median, MedianRatio(row.scalar_ms, row.simd_ms),
        row.simd_bitwise_equal ? "bitwise==scalar" : "MISMATCH");
  }
  tensor::SetSimdEnabled(saved_simd);
  return rows;
}

// ----- Training-step graph statistics --------------------------------------

// Synthetic batch with the shapes the paper experiments use in the quick
// profile: 16 samples (or `batch_size`) x 24 tokens.
data::Batch MakeSyntheticBatch(int vocab_size, int64_t batch_size = 16) {
  data::Batch batch;
  batch.batch_size = batch_size;
  batch.seq_len = 24;
  Rng rng(42);
  batch.tokens.resize(batch.batch_size * batch.seq_len);
  for (auto& t : batch.tokens) {
    t = static_cast<int>(rng.UniformInt(vocab_size));
  }
  for (int64_t i = 0; i < batch.batch_size; ++i) {
    batch.labels.push_back(static_cast<int>(i % 2));
    batch.domains.push_back(static_cast<int>(i % 3));
  }
  batch.style = RandomTensor({batch.batch_size, text::kStyleFeatureDim}, 43);
  batch.emotion =
      RandomTensor({batch.batch_size, text::kEmotionFeatureDim}, 44);
  return batch;
}

struct StepStats {
  uint64_t nodes = 0;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Runs one forward+backward training step under op profiling and returns
// the graph-node / allocation / byte counters accumulated by MakeOp.
StepStats MeasureStep(const std::function<void()>& step, bool fused) {
  const bool saved = tensor::FusionEnabled();
  tensor::SetFusionEnabled(fused);
  tensor::SetOpProfiling(true);
  tensor::ResetOpStats();
  step();
  const tensor::OpStats total = tensor::TotalOpStats();
  tensor::SetOpProfiling(false);
  tensor::SetFusionEnabled(saved);
  return {total.nodes, total.allocs, total.bytes};
}

struct StepReport {
  std::string name;
  StepStats fused;
  StepStats unfused;
  double node_reduction_pct = 0.0;
};

std::vector<StepReport> RunTrainingStepStats(
    const text::FrozenEncoder& encoder) {
  models::ModelConfig config;
  config.vocab_size = 1000;
  config.num_domains = 3;
  config.encoder = &encoder;

  const data::Batch batch = MakeSyntheticBatch(config.vocab_size);

  const auto mdfend_step = [&] {
    auto model = models::CreateModel("MDFEND", config);
    models::ModelOutput out = model->Forward(batch, /*training=*/true);
    Tensor loss = tensor::CrossEntropyLoss(out.logits, batch.labels);
    loss.Backward();
  };

  // The DTDBD step: student forward, then CE + domain-knowledge KL +
  // adversarial-debias KL (Eq. 6/12 and 5) against frozen teacher outputs.
  // TrainDtdbd computes those once per call (TeacherRows), so the teacher
  // forward is not part of the step.
  models::ModelOutput t_out;
  {
    auto teacher = models::CreateModel("MDFEND", config);
    tensor::NoGradGuard no_grad;
    t_out = teacher->Forward(batch, /*training=*/false);
  }
  const auto dtdbd_step = [&] {
    auto student = models::CreateModel("TextCNN-S", config);
    models::ModelOutput s_out = student->Forward(batch, /*training=*/true);
    Tensor loss = tensor::Add(
        tensor::CrossEntropyLoss(s_out.logits, batch.labels),
        tensor::Add(
            DomainKnowledgeDistillLoss(t_out.logits, s_out.logits, 2.0f),
            AdversarialDebiasDistillLoss(t_out.features, s_out.features,
                                         2.0f)));
    loss.Backward();
  };

  std::vector<StepReport> reports;
  const std::vector<std::pair<std::string, std::function<void()>>> steps = {
      {"mdfend_train_step", mdfend_step},
      {"dtdbd_distill_step", dtdbd_step},
  };
  for (const auto& [name, step] : steps) {
    StepReport r;
    r.name = name;
    r.fused = MeasureStep(step, /*fused=*/true);
    r.unfused = MeasureStep(step, /*fused=*/false);
    r.node_reduction_pct =
        r.unfused.nodes == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(r.fused.nodes) /
                                 static_cast<double>(r.unfused.nodes));
    std::printf(
        "%-20s fused:   %6llu nodes %6llu allocs %8.1f KiB\n"
        "%-20s unfused: %6llu nodes %6llu allocs %8.1f KiB  "
        "(node reduction %.1f%%)\n",
        name.c_str(), static_cast<unsigned long long>(r.fused.nodes),
        static_cast<unsigned long long>(r.fused.allocs),
        r.fused.bytes / 1024.0, "",
        static_cast<unsigned long long>(r.unfused.nodes),
        static_cast<unsigned long long>(r.unfused.allocs),
        r.unfused.bytes / 1024.0, r.node_reduction_pct);
    reports.push_back(std::move(r));
  }
  return reports;
}

// ----- Serving forward per zoo model ---------------------------------------

struct ServingRow {
  std::string model;
  bool fused = false;
  Timing b1_us;              // per request
  Timing b8_us_per_request;
  StepStats per_request;  // one batch-of-one forward
  bool bitwise_equal_to_unfused = false;
};

// Every zoo model's eval forward + softmax under NoGradGuard (the compute
// of InferenceSession::PredictBatch) at batch 1 and 8, fusion off (the
// unrolled recurrences) and on, 1 kernel thread. Shapes are the serving
// defaults: encoder dim 32, seq_len 24, rnn_hidden 32, 4 experts.
std::vector<ServingRow> RunServingForward(const text::FrozenEncoder& encoder,
                                          int trials) {
  models::ModelConfig config;
  config.vocab_size = 1000;
  config.num_domains = 3;
  config.encoder = &encoder;
  const data::Batch one = MakeSyntheticBatch(config.vocab_size, 1);
  const data::Batch eight = MakeSyntheticBatch(config.vocab_size, 8);
  const bool saved_fusion = tensor::FusionEnabled();
  SetNumThreads(1);
  std::vector<std::unique_ptr<models::FakeNewsModel>> zoo;
  std::vector<ServingRow> rows;
  std::vector<Timed> figures;
  for (const std::string& name : models::AllModelNames()) {
    zoo.push_back(models::CreateModel(name, config));
    models::FakeNewsModel* model = zoo.back().get();
    const auto predict = [model](const data::Batch& batch) {
      tensor::NoGradGuard no_grad;
      return tensor::Softmax(model->Forward(batch, /*training=*/false).logits)
          .ToVector();
    };
    std::vector<float> unfused_one, unfused_eight;
    for (const bool fused : {false, true}) {
      tensor::SetFusionEnabled(fused);
      ServingRow row;
      row.model = name;
      row.fused = fused;
      const std::vector<float> p_one = predict(one);
      const std::vector<float> p_eight = predict(eight);
      if (!fused) {
        unfused_one = p_one;
        unfused_eight = p_eight;
      }
      row.bitwise_equal_to_unfused =
          SameBits(p_one, unfused_one) && SameBits(p_eight, unfused_eight);
      row.per_request = MeasureStep([&] { predict(one); }, fused);
      rows.push_back(std::move(row));
      const auto pin = [fused] { tensor::SetFusionEnabled(fused); };
      figures.push_back({pin, [predict, &one] { predict(one); }});
      figures.push_back({pin, [predict, &eight] { predict(eight); }});
    }
  }
  const std::vector<Timing> timings = TimeInterleaved(figures, trials);
  for (size_t i = 0; i < rows.size(); ++i) {
    ServingRow& row = rows[i];
    row.b1_us = timings[2 * i].Scaled(1000.0);
    row.b8_us_per_request = timings[2 * i + 1].Scaled(1000.0 / 8);
    std::printf(
        "%-12s %-7s b1 %8.1f us [%.1f, %.1f]  b8 %8.1f us/req  %5llu nodes "
        "%5llu allocs %7.1f KiB per request  %s\n",
        row.model.c_str(), row.fused ? "fused" : "unfused", row.b1_us.median,
        row.b1_us.min, row.b1_us.max, row.b8_us_per_request.median,
        static_cast<unsigned long long>(row.per_request.nodes),
        static_cast<unsigned long long>(row.per_request.allocs),
        row.per_request.bytes / 1024.0,
        row.bitwise_equal_to_unfused ? "bitwise==unfused" : "MISMATCH");
  }
  tensor::SetFusionEnabled(saved_fusion);
  return rows;
}

std::vector<int> ParseThreadList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const int v = std::atoi(csv.substr(pos, comma - pos).c_str());
    if (v > 0) out.push_back(v);
    pos = comma + 1;
  }
  return out.empty() ? std::vector<int>{1, 2, 4, 8} : out;
}

int RunSweep(const FlagParser& flags) {
  const std::vector<int> thread_counts =
      ParseThreadList(flags.GetString("sweep-threads", "1,2,4,8"));
  const std::string json_path = flags.GetString("json", "BENCH_tensor.json");
  const int trials = flags.GetInt("trials", 5);
  if (trials < 1) {
    std::fprintf(stderr, "--trials must be at least 1\n");
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();

  struct Row {
    std::string op, workload;
    int threads;
    Timing fwd_ms, fwd_bwd_ms;
    bool bitwise_equal;
  };
  std::vector<Row> rows;
  bool all_equal = true;

  const std::vector<SweepOp> sweep_ops = MakeSweepOps();
  std::vector<Timed> figures;
  for (const SweepOp& op : sweep_ops) {
    // Reference results at 1 thread; every other count must match bitwise.
    SetNumThreads(1);
    std::vector<float> ref_out;
    {
      tensor::NoGradGuard no_grad;
      ref_out = op.forward().ToVector();
    }
    const FwdBwdResult ref = op.fwd_bwd();

    for (int t : thread_counts) {
      SetNumThreads(t);
      std::vector<float> out;
      {
        tensor::NoGradGuard no_grad;
        out = op.forward().ToVector();
      }
      const bool equal = SameBits(out, ref_out) && SameBits(op.fwd_bwd(), ref);
      all_equal = all_equal && equal;
      rows.push_back({op.name, op.workload, t, {}, {}, equal});
      const auto pin = [t] { SetNumThreads(t); };
      figures.push_back({pin, [&op] {
                           tensor::NoGradGuard no_grad;
                           op.forward();
                         }});
      figures.push_back({pin, [&op] { op.fwd_bwd(); }});
    }
  }
  const std::vector<Timing> timings = TimeInterleaved(figures, trials);
  for (size_t i = 0; i < rows.size(); ++i) {
    Row& r = rows[i];
    r.fwd_ms = timings[2 * i];
    r.fwd_bwd_ms = timings[2 * i + 1];
    std::printf("%-16s %-28s threads=%d  fwd %8.4f ms  fwd+bwd %8.4f ms  %s\n",
                r.op.c_str(), r.workload.c_str(), r.threads, r.fwd_ms.median,
                r.fwd_bwd_ms.median,
                r.bitwise_equal ? "bitwise==t1" : "MISMATCH");
  }
  SetNumThreads(1);

  // Scalar vs SIMD single-thread forward sweep (DESIGN.md §8).
  const text::FrozenEncoder encoder(1000, 32, 14);
  const std::vector<SimdRow> simd_rows = RunSimdSweep(encoder, trials);
  for (const SimdRow& r : simd_rows) {
    all_equal = all_equal && r.simd_bitwise_equal;
  }

  // Per-step graph statistics: fused vs DTDBD_NO_FUSION node/alloc/byte
  // counts for one MDFEND training step and one DTDBD distillation step.
  const std::vector<StepReport> steps = RunTrainingStepStats(encoder);

  // Batch-of-one / batch-of-8 forward cost per zoo model, fused vs not.
  const std::vector<ServingRow> serving = RunServingForward(encoder, trials);
  for (const ServingRow& r : serving) {
    all_equal = all_equal && r.bitwise_equal_to_unfused;
  }

  // Build the whole document in memory and write it temp-file + rename so a
  // crashed or concurrent bench run never leaves a truncated artifact.
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"tensor_substrate_thread_sweep\",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += std::string("  \"host\": {\"nproc\": ") + std::to_string(hw) +
          ", \"avx512f\": " +
          (__builtin_cpu_supports("avx512f") ? "true" : "false") +
          ", \"simd_enabled\": " +
          (tensor::SimdEnabled() ? "true" : "false") +
          ", \"build_type\": \"" + DTDBD_BENCH_BUILD_TYPE + "\"},\n";
  json += "  \"trials\": " + std::to_string(trials) + ",\n";
  json +=
      "  \"note\": \"static-partition deterministic backend; results "
      "are bitwise identical across thread counts. Wall-clock "
      "speedup requires hardware_concurrency > 1; on a 1-CPU host "
      "the extra thread counts measure scheduling overhead only. Each "
      "timing is the median over the trials, run interleaved, with its "
      "[min, max] in the matching _range key; simd_speedup is the median "
      "of the per-trial scalar/simd ratios.\",\n";
  json += std::string("  \"all_bitwise_equal\": ") +
          (all_equal ? "true" : "false") + ",\n";
  json += "  \"results\": [\n";
  char line[768];
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"workload\": \"%s\", \"threads\": %d, "
                  "%s, %s, \"bitwise_equal_to_1_thread\": %s}%s\n",
                  r.op.c_str(), r.workload.c_str(), r.threads,
                  TimingJson("fwd_ms_per_iter", r.fwd_ms, 6).c_str(),
                  TimingJson("fwd_bwd_ms_per_iter", r.fwd_bwd_ms, 6).c_str(),
                  r.bitwise_equal ? "true" : "false",
                  i + 1 == rows.size() ? "" : ",");
    json += line;
  }
  json += "  ],\n";
  json += "  \"simd\": [\n";
  for (size_t i = 0; i < simd_rows.size(); ++i) {
    const SimdRow& r = simd_rows[i];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"workload\": \"%s\", %s, %s, "
                  "\"simd_speedup\": %.2f, \"simd_bitwise_equal\": %s}%s\n",
                  r.op.c_str(), r.workload.c_str(),
                  TimingJson("scalar_fwd_ms", r.scalar_ms, 6).c_str(),
                  TimingJson("simd_fwd_ms", r.simd_ms, 6).c_str(),
                  MedianRatio(r.scalar_ms, r.simd_ms),
                  r.simd_bitwise_equal ? "true" : "false",
                  i + 1 == simd_rows.size() ? "" : ",");
    json += line;
  }
  json += "  ],\n";
  json += "  \"frozen_encode\": [\n";
  std::string sep;
  for (const SimdRow& r : simd_rows) {
    if (r.samples == 0) continue;
    const double us = 1000.0 / static_cast<double>(r.samples);
    std::snprintf(line, sizeof(line),
                  "%s    {\"batch\": %lld, \"seq_len\": 24, \"dim\": 32, "
                  "%s, %s, \"simd_bitwise_equal\": %s}",
                  sep.c_str(), static_cast<long long>(r.samples),
                  TimingJson("scalar_us_per_sample", r.scalar_ms.Scaled(us), 2)
                      .c_str(),
                  TimingJson("simd_us_per_sample", r.simd_ms.Scaled(us), 2)
                      .c_str(),
                  r.simd_bitwise_equal ? "true" : "false");
    json += line;
    sep = ",\n";
  }
  json += "\n  ],\n";
  json += "  \"training_steps\": [\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepReport& s = steps[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"step\": \"%s\", "
        "\"fused\": {\"graph_nodes\": %llu, \"allocs\": %llu, \"bytes\": "
        "%llu}, "
        "\"unfused\": {\"graph_nodes\": %llu, \"allocs\": %llu, \"bytes\": "
        "%llu}, "
        "\"node_reduction_pct\": %.1f}%s\n",
        s.name.c_str(), static_cast<unsigned long long>(s.fused.nodes),
        static_cast<unsigned long long>(s.fused.allocs),
        static_cast<unsigned long long>(s.fused.bytes),
        static_cast<unsigned long long>(s.unfused.nodes),
        static_cast<unsigned long long>(s.unfused.allocs),
        static_cast<unsigned long long>(s.unfused.bytes),
        s.node_reduction_pct, i + 1 == steps.size() ? "" : ",");
    json += line;
  }
  json += "  ],\n";
  json += "  \"serving_forward\": [\n";
  for (size_t i = 0; i < serving.size(); ++i) {
    const ServingRow& r = serving[i];
    std::snprintf(
        line, sizeof(line),
        "    {\"model\": \"%s\", \"fused\": %s, %s, %s, "
        "\"nodes_per_request\": %llu, \"allocs_per_request\": %llu, "
        "\"bytes_per_request\": %llu, \"bitwise_equal_to_unfused\": %s}%s\n",
        r.model.c_str(), r.fused ? "true" : "false",
        TimingJson("b1_us_per_request", r.b1_us, 1).c_str(),
        TimingJson("b8_us_per_request", r.b8_us_per_request, 1).c_str(),
        static_cast<unsigned long long>(r.per_request.nodes),
        static_cast<unsigned long long>(r.per_request.allocs),
        static_cast<unsigned long long>(r.per_request.bytes),
        r.bitwise_equal_to_unfused ? "true" : "false",
        i + 1 == serving.size() ? "" : ",");
    json += line;
  }
  json += "  ]\n}\n";
  const Status written = AtomicWriteFile(json_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return all_equal ? 0 : 1;
}

// ----- google-benchmark suite (--gbench) -----------------------------------

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor({n, n}, 1);
  Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv1dSeq(benchmark::State& state) {
  const int64_t batch = 32, time = 24, embed = 32, channels = 32, k = 3;
  Tensor x = RandomTensor({batch, time, embed}, 3);
  Tensor w = RandomTensor({channels, k * embed}, 4);
  Tensor b = RandomTensor({channels}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Conv1dSeq(x, w, b, k).data().data());
  }
}
BENCHMARK(BM_Conv1dSeq);

void BM_SoftmaxRows(benchmark::State& state) {
  Tensor x = RandomTensor({256, 64}, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Softmax(x).data().data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_PairwiseSquaredDistances(benchmark::State& state) {
  Tensor x = RandomTensor({64, 128}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::PairwiseSquaredDistances(x).data().data());
  }
}
BENCHMARK(BM_PairwiseSquaredDistances);

void BM_GruStep(benchmark::State& state) {
  Rng rng(8);
  nn::GruCell cell(32, 32, &rng);
  Tensor x = RandomTensor({32, 32}, 9);
  Tensor h = RandomTensor({32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Step(x, h).data().data());
  }
}
BENCHMARK(BM_GruStep);

void BM_ForwardBackwardMlp(benchmark::State& state) {
  Tensor w1 = RandomTensor({64, 64}, 11, true);
  Tensor w2 = RandomTensor({64, 2}, 12, true);
  Tensor x = RandomTensor({32, 64}, 13);
  std::vector<int> labels(32);
  for (int i = 0; i < 32; ++i) labels[i] = i % 2;
  for (auto _ : state) {
    Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    Tensor logits = tensor::MatMul(h, w2);
    Tensor loss = tensor::CrossEntropyLoss(logits, labels);
    w1.ZeroGrad();
    w2.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(w1.grad().data());
  }
}
BENCHMARK(BM_ForwardBackwardMlp);

void BM_FrozenEncoder(benchmark::State& state) {
  text::FrozenEncoder encoder(1000, 32, 14);
  Rng rng(15);
  std::vector<int> ids(32 * 24);
  for (auto& id : ids) id = static_cast<int>(rng.UniformInt(1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(ids, 32, 24).data().data());
  }
}
BENCHMARK(BM_FrozenEncoder);

void BM_DistillKl(benchmark::State& state) {
  Tensor t = RandomTensor({32, 32}, 16);
  Tensor s = RandomTensor({32, 32}, 17, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::DistillKlLoss(t, s, 2.0f).item());
  }
}
BENCHMARK(BM_DistillKl);

}  // namespace

int main(int argc, char** argv) {
  dtdbd::FlagParser flags(argc, argv);
  if (flags.GetBool("gbench", false)) {
    dtdbd::InitThreadsFromFlags(flags);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return RunSweep(flags);
}
