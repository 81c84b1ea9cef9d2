// Tests for the shared-storage/view layer of the tensor substrate: zero-copy
// aliasing, gradient flow through non-contiguous views, graph introspection,
// and serialization of views (including rejection of the legacy v1 format).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/registry.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace dtdbd::tensor {
namespace {

Tensor Iota(const Shape& shape, bool requires_grad = false) {
  std::vector<float> data(static_cast<size_t>(NumElements(shape)));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.1f * static_cast<float>(i) - 1.0f;
  }
  return Tensor::FromData(shape, std::move(data), requires_grad);
}

// ----- Zero-copy aliasing -----

TEST(ViewTest, ViewOpsShareStorageWithBase) {
  Tensor x = Iota({2, 3, 4});
  EXPECT_EQ(Reshape(x, {6, 4}).storage_id(), x.storage_id());
  EXPECT_EQ(SliceTime(x, 1).storage_id(), x.storage_id());
  EXPECT_EQ(GradReverse(x, 0.5f).storage_id(), x.storage_id());
  EXPECT_EQ(x.Detach().storage_id(), x.storage_id());
  Tensor m = Iota({3, 4});
  EXPECT_EQ(SliceLastDim(m, 1, 2).storage_id(), m.storage_id());
  EXPECT_EQ(Transpose2d(m).storage_id(), m.storage_id());
  // Clone is a deep copy.
  EXPECT_NE(x.Clone().storage_id(), x.storage_id());
}

TEST(ViewTest, WriteThroughViewIsVisibleInBase) {
  Tensor x = Tensor::FromData({2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor v = SliceLastDim(x, 2, 2);  // rows {2,3} and {6,7}
  ASSERT_FALSE(v.contiguous());
  v.data()[0] = 42.0f;   // logical (0,0) of the view = x(0,2)
  v.data()[3] = -42.0f;  // logical (1,1) of the view = x(1,3)
  EXPECT_EQ(x.ToVector(),
            std::vector<float>({0, 1, 42, 3, 4, 5, 6, -42}));
  // And writes to the base show up in the view.
  x.data()[6] = 99.0f;  // x(1,2) = view(1,0)
  EXPECT_EQ(v.ToVector(), std::vector<float>({42, 3, 99, -42}))
      << "expected view to observe base writes";
}

TEST(ViewTest, SliceTimeAliasesAndReadsCorrectStep) {
  Tensor x = Iota({2, 3, 4});
  Tensor t1 = SliceTime(x, 1);
  ASSERT_EQ(t1.shape(), (Shape{2, 4}));
  const std::vector<float> all = x.ToVector();
  std::vector<float> expected;
  for (int b = 0; b < 2; ++b) {
    for (int e = 0; e < 4; ++e) {
      expected.push_back(all[static_cast<size_t>(b * 12 + 1 * 4 + e)]);
    }
  }
  EXPECT_EQ(t1.ToVector(), expected);
  EXPECT_EQ(t1.storage_id(), x.storage_id());
}

TEST(ViewTest, TransposeIsAViewAndContiguousMaterializes) {
  Tensor m = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor mt = Transpose2d(m);
  EXPECT_FALSE(mt.contiguous());
  EXPECT_EQ(mt.ToVector(), std::vector<float>({1, 4, 2, 5, 3, 6}));
  Tensor dense = mt.Contiguous();
  EXPECT_TRUE(dense.contiguous());
  EXPECT_NE(dense.storage_id(), mt.storage_id());
  EXPECT_EQ(dense.ToVector(), mt.ToVector());
  // Contiguous() on an already-dense tensor is the identity (no copy).
  EXPECT_EQ(m.Contiguous().storage_id(), m.storage_id());
}

TEST(ViewTest, RegistryMarksViewOps) {
  for (const char* name :
       {"Reshape", "Transpose2d", "SliceLastDim", "SliceTime", "GradReverse"}) {
    const Op* op = OpRegistry::Get().Find(name);
    ASSERT_NE(op, nullptr) << name;
    EXPECT_TRUE(op->is_view) << name;
  }
  const Op* matmul = OpRegistry::Get().Find("MatMul");
  ASSERT_NE(matmul, nullptr);
  EXPECT_FALSE(matmul->is_view);
}

// ----- Gradients through non-contiguous views -----

TEST(ViewTest, GradcheckThroughTranspose) {
  Tensor x = Iota({3, 4}, /*requires_grad=*/true);
  dtdbd::testing::ExpectGradMatchesNumeric(
      x, [&] { return Sum(MatMul(Transpose2d(x), x)); });
}

TEST(ViewTest, GradcheckThroughOverlappingSlices) {
  Tensor x = Iota({2, 6}, /*requires_grad=*/true);
  dtdbd::testing::ExpectGradMatchesNumeric(x, [&] {
    // Overlapping last-dim slices of the same base.
    return Sum(Mul(SliceLastDim(x, 0, 4), SliceLastDim(x, 2, 4)));
  });
}

TEST(ViewTest, GradcheckThroughSliceTimeAndReshape) {
  Tensor x = Iota({2, 3, 4}, /*requires_grad=*/true);
  dtdbd::testing::ExpectGradMatchesNumeric(x, [&] {
    Tensor step = Tanh(SliceTime(x, 2));       // [2,4] strided view
    Tensor flat = Reshape(x, {6, 4});          // zero-copy reshape
    return Add(Sum(step), Mean(Relu(flat)));
  });
}

TEST(ViewTest, GradcheckNonContiguousIntoSoftmaxLoss) {
  Tensor x = Iota({3, 8}, /*requires_grad=*/true);
  const std::vector<int> labels = {0, 2, 1};
  dtdbd::testing::ExpectGradMatchesNumeric(x, [&] {
    return CrossEntropyLoss(SliceLastDim(x, 2, 3), labels);
  });
}

// ----- Graph introspection and profiling -----

TEST(ViewTest, DumpGraphShowsOpsViewsAndStorageAliasing) {
  Tensor a = Iota({2, 3}, /*requires_grad=*/true);
  Tensor b = Iota({3, 2});
  Tensor y = Sum(MatMul(a, b));
  const std::string dump = DumpGraph(y);
  EXPECT_NE(dump.find("= MatMul("), std::string::npos) << dump;
  EXPECT_NE(dump.find("= Sum("), std::string::npos) << dump;
  EXPECT_NE(dump.find("= leaf()"), std::string::npos) << dump;

  Tensor v = Transpose2d(a);
  const std::string view_dump = DumpGraph(v);
  EXPECT_NE(view_dump.find("view{strides="), std::string::npos) << view_dump;
  // Base and view alias the same storage id S0.
  EXPECT_NE(view_dump.find("storage=S0"), std::string::npos) << view_dump;
  EXPECT_EQ(view_dump.find("storage=S1"), std::string::npos) << view_dump;
}

TEST(ViewTest, OpProfilingCountsForwardAndBackward) {
  SetOpProfiling(true);
  ResetOpStats();
  Tensor a = Iota({4, 4}, /*requires_grad=*/true);
  Tensor loss = Sum(Relu(MatMul(a, a)));
  loss.Backward();
  const auto stats = GetOpStats();
  SetOpProfiling(false);
  ASSERT_TRUE(stats.count("MatMul"));
  EXPECT_GE(stats.at("MatMul").forward_calls, 1u);
  EXPECT_GE(stats.at("MatMul").backward_calls, 1u);
  ASSERT_TRUE(stats.count("Relu"));
  EXPECT_GE(stats.at("Relu").forward_calls, 1u);
  const std::string formatted = FormatOpStats();
  EXPECT_NE(formatted.find("MatMul"), std::string::npos) << formatted;
}

// ----- Serialization of views + legacy format -----

TEST(ViewTest, SaveMaterializesViewsAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "/view_roundtrip.bin";
  Tensor base = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  std::map<std::string, Tensor> to_save;
  to_save.emplace("wt", Transpose2d(base));
  to_save.emplace("slice", SliceLastDim(base, 1, 2));
  ASSERT_TRUE(SaveTensors(to_save, path).ok());

  auto loaded_or = LoadTensors(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().message();
  auto& loaded = loaded_or.value();
  ASSERT_EQ(loaded.at("wt").shape(), (Shape{3, 2}));
  EXPECT_TRUE(loaded.at("wt").contiguous());
  EXPECT_EQ(loaded.at("wt").ToVector(),
            std::vector<float>({1, 4, 2, 5, 3, 6}));
  EXPECT_EQ(loaded.at("slice").ToVector(), std::vector<float>({2, 3, 5, 6}));
  std::remove(path.c_str());
}

TEST(ViewTest, RestoreIntoWritesThroughViewParameter) {
  const std::string path = ::testing::TempDir() + "/view_restore.bin";
  std::map<std::string, Tensor> src;
  src.emplace("p", Tensor::FromData({2, 2}, {9, 8, 7, 6}));
  ASSERT_TRUE(SaveTensors(src, path).ok());
  auto loaded_or = LoadTensors(path);
  ASSERT_TRUE(loaded_or.ok());

  // Restoring into a strided view must scatter into the base storage.
  Tensor base = Tensor::FromData({2, 4}, {0, 0, 0, 0, 0, 0, 0, 0});
  std::map<std::string, Tensor> params;
  params.emplace("p", SliceLastDim(base, 1, 2));
  ASSERT_TRUE(RestoreInto(loaded_or.value(), &params).ok());
  EXPECT_EQ(base.ToVector(), std::vector<float>({0, 9, 8, 0, 0, 7, 6, 0}));
  std::remove(path.c_str());
}

// Writes a version-1 file (the pre-CRC layout used before checkpointing got
// per-entry checksums) byte by byte and checks the loader rejects it: only
// v2, whose every entry carries a CRC, is readable.
TEST(ViewTest, LegacyV1FilesRejected) {
  const std::string path = ::testing::TempDir() + "/legacy_v1.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'D', 'T', 'D', 'B'};
  const uint32_t version = 1;
  const uint64_t count = 1;
  ASSERT_EQ(std::fwrite(magic, 1, 4, f), 4u);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
  const std::string name = "w";
  const uint64_t name_len = name.size();
  const uint64_t ndim = 2;
  const int64_t dims[2] = {2, 2};
  const float data[4] = {1.5f, -2.5f, 3.5f, -4.5f};
  ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
  ASSERT_EQ(std::fwrite(name.data(), 1, name.size(), f), name.size());
  ASSERT_EQ(std::fwrite(&ndim, sizeof(ndim), 1, f), 1u);
  ASSERT_EQ(std::fwrite(dims, sizeof(int64_t), 2, f), 2u);
  ASSERT_EQ(std::fwrite(data, sizeof(float), 4, f), 4u);
  std::fclose(f);

  auto loaded_or = LoadTensors(path);
  ASSERT_FALSE(loaded_or.ok());
  EXPECT_EQ(loaded_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded_or.status().message().find("unsupported version"),
            std::string::npos)
      << loaded_or.status().message();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtdbd::tensor
