// Fused-op parity suite: each fused op (LinearRelu, Conv1dSeqRelu,
// MatVecOverTime, SoftmaxCrossEntropy, SoftmaxKl) must produce BITWISE
// identical losses AND gradients to the unfused composition it replaces —
// at every thread count. This is the contract that lets fusion default to
// on: enabling DTDBD_NO_FUSION (or SetFusionEnabled(false)) can never
// change a training run, only its speed and graph size. The forward-only
// recurrences (GruSequence, LstmSequence) must match the nn cells' Step
// unrolled over time, bitwise, at every thread count and SIMD setting.
//
// Comparison graphs keep at most two gradient contributions per compared
// leaf element: with float accumulation, (0+a)+b == (0+b)+a bitwise, but
// three-way sums are order-sensitive and would make the bitwise assertion
// depend on traversal order rather than kernel math.
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/rnn.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"
#include "tensor/tensor.h"
#include "gradcheck.h"

namespace dtdbd::tensor {
namespace {

class FusionGuard {
 public:
  explicit FusionGuard(bool enabled) : saved_(FusionEnabled()) {
    SetFusionEnabled(enabled);
  }
  ~FusionGuard() { SetFusionEnabled(saved_); }

 private:
  bool saved_;
};

Tensor Rand(const Shape& shape, uint64_t seed, bool requires_grad = true) {
  Rng rng(seed);
  return NormalInit(shape, 1.0f, &rng, requires_grad);
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Run {
  std::vector<float> loss;
  std::vector<std::vector<float>> grads;
  std::string dump;
};

// Builds a scalar loss from fresh leaves, runs backward, and returns the
// loss plus every leaf gradient.
struct Graph {
  std::vector<Tensor> leaves;
  Tensor loss;
};

Run Execute(const std::function<Graph()>& build) {
  Graph g = build();
  Run r;
  r.dump = DumpGraph(g.loss);
  g.loss.Backward();
  r.loss = g.loss.ToVector();
  for (Tensor& leaf : g.leaves) r.grads.push_back(leaf.grad());
  return r;
}

void ExpectRunsBitwiseEqual(const Run& a, const Run& b, const char* what) {
  EXPECT_TRUE(BitwiseEqual(a.loss, b.loss)) << what << ": loss differs";
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(a.grads[i], b.grads[i]))
        << what << ": grad of leaf " << i << " differs";
  }
}

// Runs `build` fused and unfused and asserts bitwise parity; then sweeps
// the fused path over thread counts against the unfused single-threaded
// reference. `fused_op` must appear in the fused dump and not the unfused
// one, proving the flag actually switched paths.
void CheckFusedParity(const std::function<Graph()>& build,
                      const char* fused_op) {
  SetNumThreads(1);
  Run unfused;
  {
    FusionGuard fusion(false);
    unfused = Execute(build);
  }
  EXPECT_EQ(unfused.dump.find(std::string("= ") + fused_op + "("),
            std::string::npos)
      << fused_op << " recorded with fusion disabled";
  for (int threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    FusionGuard fusion(true);
    const Run fused = Execute(build);
    EXPECT_NE(fused.dump.find(std::string("= ") + fused_op + "("),
              std::string::npos)
        << fused_op << " not recorded with fusion enabled";
    SCOPED_TRACE(std::string(fused_op) + " threads=" +
                 std::to_string(threads));
    ExpectRunsBitwiseEqual(unfused, fused, fused_op);
  }
  SetNumThreads(1);
}

class FusedOpsTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_F(FusedOpsTest, LinearReluMatchesUnfusedBitwise) {
  CheckFusedParity(
      [] {
        Tensor x = Rand({48, 32}, 1);
        Tensor w = Rand({32, 40}, 2);
        Tensor b = Rand({40}, 3);
        return Graph{{x, w, b}, Sum(LinearRelu(x, w, b))};
      },
      "LinearRelu");
}

TEST_F(FusedOpsTest, Conv1dSeqReluMatchesUnfusedBitwise) {
  CheckFusedParity(
      [] {
        Tensor x = Rand({5, 20, 48}, 4);
        Tensor w = Rand({24, 3 * 48}, 5);
        Tensor b = Rand({24}, 6);
        return Graph{{x, w, b}, Sum(Conv1dSeqRelu(x, w, b, 3))};
      },
      "Conv1dSeqRelu");
}

TEST_F(FusedOpsTest, MatVecOverTimeMatchesUnfusedBitwise) {
  CheckFusedParity(
      [] {
        Tensor x = Rand({6, 18, 40}, 7);
        Tensor v = Rand({40, 1}, 8);
        return Graph{{x, v}, Sum(MatVecOverTime(x, v))};
      },
      "MatVecOverTime");
}

// Full attention chain: fused score, softmax, batched-GEMM pooling. The
// sequence leaf gets exactly two gradient contributions (score branch and
// pooling branch), which is still bitwise order-safe.
TEST_F(FusedOpsTest, AttentionChainMatchesUnfusedBitwise) {
  CheckFusedParity(
      [] {
        Tensor x = Rand({6, 18, 40}, 9);
        Tensor v = Rand({40, 1}, 10);
        Tensor weights = Softmax(MatVecOverTime(x, v));
        return Graph{{x, v}, Sum(WeightedSumOverTime(x, weights))};
      },
      "MatVecOverTime");
}

TEST_F(FusedOpsTest, SoftmaxCrossEntropyMatchesUnfusedBitwise) {
  CheckFusedParity(
      [] {
        Tensor logits = Rand({30, 4}, 11);
        std::vector<int> labels(30);
        for (int i = 0; i < 30; ++i) labels[i] = i % 4;
        return Graph{{logits}, CrossEntropyLoss(logits, labels)};
      },
      "SoftmaxCrossEntropy");
}

TEST_F(FusedOpsTest, SoftmaxKlMatchesUnfusedBitwise) {
  for (float tau : {1.0f, 2.0f}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    CheckFusedParity(
        [tau] {
          Tensor teacher = Rand({30, 4}, 12, /*requires_grad=*/false);
          Tensor student = Rand({30, 4}, 13);
          return Graph{{student}, DistillKlLoss(teacher, student, tau)};
        },
        "SoftmaxKl");
  }
}

// The teacher is a constant in both paths: even when it requires grad, no
// gradient may flow into it.
TEST_F(FusedOpsTest, SoftmaxKlTeacherGetsNoGradient) {
  for (bool fused : {false, true}) {
    FusionGuard fusion(fused);
    Tensor teacher = Rand({8, 4}, 14, /*requires_grad=*/true);
    Tensor student = Rand({8, 4}, 15);
    Tensor loss = DistillKlLoss(teacher, student, 2.0f);
    loss.Backward();
    for (float g : teacher.grad()) {
      EXPECT_EQ(g, 0.0f) << (fused ? "fused" : "unfused");
    }
    bool any_nonzero = false;
    for (float g : student.grad()) any_nonzero = any_nonzero || g != 0.0f;
    EXPECT_TRUE(any_nonzero) << (fused ? "fused" : "unfused");
  }
}

// ----- Numeric gradient checks of the fused kernels themselves -----

TEST_F(FusedOpsTest, LinearReluGradcheck) {
  FusionGuard fusion(true);
  Tensor x = Rand({5, 6}, 20);
  Tensor w = Rand({6, 7}, 21);
  // Bias offset keeps pre-activations away from the ReLU kink, where
  // central differences are invalid.
  Tensor b = Tensor::Full({7}, 0.35f, /*requires_grad=*/true);
  const auto forward = [&] { return Sum(LinearRelu(x, w, b)); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(w, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(b, forward);
}

TEST_F(FusedOpsTest, Conv1dSeqReluGradcheck) {
  FusionGuard fusion(true);
  Tensor x = Rand({2, 7, 5}, 22);
  Tensor w = Rand({4, 2 * 5}, 23);
  Tensor b = Tensor::Full({4}, 0.4f, /*requires_grad=*/true);
  const auto forward = [&] { return Sum(Conv1dSeqRelu(x, w, b, 2)); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(w, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(b, forward);
}

TEST_F(FusedOpsTest, MatVecOverTimeGradcheck) {
  FusionGuard fusion(true);
  Tensor x = Rand({3, 5, 6}, 24);
  Tensor v = Rand({6, 1}, 25);
  const auto forward = [&] { return Sum(Square(MatVecOverTime(x, v))); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(x, forward);
  ::dtdbd::testing::ExpectGradMatchesNumeric(v, forward);
}

TEST_F(FusedOpsTest, SoftmaxCrossEntropyGradcheck) {
  FusionGuard fusion(true);
  Tensor logits = Rand({6, 4}, 26);
  std::vector<int> labels = {0, 1, 2, 3, 1, 2};
  const auto forward = [&] { return CrossEntropyLoss(logits, labels); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(logits, forward);
}

TEST_F(FusedOpsTest, SoftmaxKlGradcheck) {
  FusionGuard fusion(true);
  Tensor teacher = Rand({6, 4}, 27, /*requires_grad=*/false);
  Tensor student = Rand({6, 4}, 28);
  const auto forward = [&] { return DistillKlLoss(teacher, student, 2.0f); };
  ::dtdbd::testing::ExpectGradMatchesNumeric(student, forward);
}

// ----- Forward-only recurrences -----

class SimdGuard {
 public:
  explicit SimdGuard(bool enabled) : saved_(SimdEnabled()) {
    SetSimdEnabled(enabled);
  }
  ~SimdGuard() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

// The reference: an nn cell holding (wx, wh, bias), its Step unrolled from
// zero state (t descending when `reverse`), states restacked [B,T,H].
template <typename Cell, typename StepFn>
std::vector<float> UnrolledCell(const Tensor& x, const Tensor& wx,
                                const Tensor& wh, const Tensor& bias,
                                bool reverse, StepFn step) {
  const int64_t b = x.dim(0), t = x.dim(1), hd = wh.dim(0);
  Rng rng(0);
  Cell cell(x.dim(2), hd, &rng);
  const std::map<std::string, Tensor> from = {
      {"wx", Contiguous(wx)}, {"wh", Contiguous(wh)}, {"bias", bias}};
  for (auto& [name, param] : cell.NamedParameters()) {
    param.CopyDataFrom(from.at(name));
  }
  NoGradGuard no_grad;
  std::vector<Tensor> states(static_cast<size_t>(t));
  Tensor h = Tensor::Zeros({b, hd});
  Tensor c = Tensor::Zeros({b, hd});
  for (int64_t s = 0; s < t; ++s) {
    const int64_t ti = reverse ? t - 1 - s : s;
    step(cell, SliceTime(x, ti), &h, &c);
    states[static_cast<size_t>(ti)] = h;
  }
  return StackTime(states).ToVector();
}

// Every shape class the serving models hit: batch-of-one and a batch, one
// step and a serving-length sequence, a hidden size whose gate rows end in
// a non-multiple-of-16 tail (17) and an aligned one (32), both directions.
// Weights enter as strided SliceLastDim views; batch row 0's first input
// row is all zero and every 5th input element elsewhere is zero, so the
// x·W_ih zero-skip runs next to the zero initial state's h·W_hh skip.
TEST_F(FusedOpsTest, RecurrentSequencesMatchUnrolledCellsBitwise) {
  const int64_t e = 20;
  uint64_t seed = 100;
  for (const bool lstm : {false, true}) {
    for (const int64_t b : {1, 3}) {
      for (const int64_t t : {1, 24}) {
        for (const int64_t hd : {17, 32}) {
          for (const bool reverse : {false, true}) {
            SCOPED_TRACE(std::string(lstm ? "LSTM" : "GRU") + " B=" +
                         std::to_string(b) + " T=" + std::to_string(t) +
                         " H=" + std::to_string(hd) +
                         (reverse ? " reverse" : ""));
            const int64_t g = (lstm ? 4 : 3) * hd;
            std::vector<float> xs = Rand({b, t, e}, ++seed, false).ToVector();
            for (size_t i = 0; i < xs.size(); ++i) {
              if (static_cast<int64_t>(i) < e || i % 5 == 0) xs[i] = 0.0f;
            }
            const Tensor x = Tensor::FromData({b, t, e}, xs);
            const Tensor wx =
                SliceLastDim(Rand({e, g + 7}, ++seed, false), 3, g);
            const Tensor wh =
                SliceLastDim(Rand({hd, g + 5}, ++seed, false), 2, g);
            const Tensor bias = Rand({g}, ++seed, false);
            ASSERT_FALSE(wx.contiguous());

            std::vector<float> reference;
            {
              SetNumThreads(1);
              SimdGuard scalar(false);
              reference =
                  lstm ? UnrolledCell<nn::LstmCell>(
                             x, wx, wh, bias, reverse,
                             [](const nn::LstmCell& cell, const Tensor& xt,
                                Tensor* h, Tensor* c) {
                               const nn::LstmCell::State next =
                                   cell.Step(xt, {*h, *c});
                               *h = next.h;
                               *c = next.c;
                             })
                       : UnrolledCell<nn::GruCell>(
                             x, wx, wh, bias, reverse,
                             [](const nn::GruCell& cell, const Tensor& xt,
                                Tensor* h, Tensor*) {
                               *h = cell.Step(xt, *h);
                             });
            }
            for (const int threads : {1, 4}) {
              for (const bool simd : {false, true}) {
                SetNumThreads(threads);
                SimdGuard dispatch(simd);
                NoGradGuard no_grad;
                const Tensor out =
                    lstm ? LstmSequence(x, wx, wh, bias, reverse)
                         : GruSequence(x, wx, wh, bias, reverse);
                EXPECT_EQ(out.shape(), (Shape{b, t, hd}));
                EXPECT_TRUE(BitwiseEqual(out.ToVector(), reference))
                    << "threads=" << threads << " simd=" << simd;
              }
            }
          }
        }
      }
    }
  }
  SetNumThreads(1);
}

// The sequence ops run only where they would record no graph node; the
// registered backward is unreachable because the op refuses to run there.
TEST_F(FusedOpsTest, ForwardOnlySequencesRefuseToJoinTheGraph) {
  const Tensor x = Rand({2, 3, 4}, 40, /*requires_grad=*/false);
  const Tensor wx = Rand({4, 15}, 41);
  const Tensor wh = Rand({5, 15}, 42);
  const Tensor bias = Rand({15}, 43);
  {
    FusionGuard fusion(true);
    EXPECT_TRUE(ForwardOnlyFusionApplies({x}));
    EXPECT_FALSE(ForwardOnlyFusionApplies({x, wx, wh, bias}));
    NoGradGuard no_grad;
    EXPECT_TRUE(ForwardOnlyFusionApplies({x, wx, wh, bias}));
    const Tensor out = GruSequence(x, wx, wh, bias, /*reverse=*/false);
    EXPECT_FALSE(out.requires_grad());
    EXPECT_NE(DumpGraph(out).find("= GruSequence()"), std::string::npos);
  }
  {
    FusionGuard fusion(false);
    NoGradGuard no_grad;
    EXPECT_FALSE(ForwardOnlyFusionApplies({x}));
  }
  EXPECT_DEATH(GruSequence(x, wx, wh, bias, /*reverse=*/false),
               "forward-only");
}

// Fusion reduces the node count of a linear+loss step without changing the
// loss; the graph counters (MakeOp/MakeView instrumentation) see it.
TEST_F(FusedOpsTest, FusionShrinksRecordedGraph) {
  const auto count_nodes = [](bool fused) {
    FusionGuard fusion(fused);
    SetOpProfiling(true);
    ResetOpStats();
    Tensor x = Rand({16, 24}, 30);
    Tensor w = Rand({24, 12}, 31);
    Tensor b = Rand({12}, 32);
    Tensor h = LinearRelu(x, w, b);
    Tensor logits = AddBias(MatMul(h, Rand({12, 2}, 33)), Rand({2}, 34));
    std::vector<int> labels(16, 1);
    Tensor loss = CrossEntropyLoss(logits, labels);
    loss.Backward();
    const OpStats total = TotalOpStats();
    SetOpProfiling(false);
    return total;
  };
  const OpStats fused = count_nodes(true);
  const OpStats unfused = count_nodes(false);
  EXPECT_LT(fused.nodes, unfused.nodes);
  EXPECT_LE(fused.allocs, unfused.allocs);
  EXPECT_GT(fused.nodes, 0u);
}

}  // namespace
}  // namespace dtdbd::tensor
