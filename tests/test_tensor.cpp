// Unit and property tests for the tensor substrate: Tensor, ops, Rng,
// im2col, and serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(numel_of({}), 1);
  EXPECT_EQ(numel_of({4}), 4);
  EXPECT_EQ(numel_of({2, 3, 4}), 24);
  EXPECT_EQ(numel_of({5, 0}), 0);
  EXPECT_EQ(to_string(Shape{2, 3}), "[2, 3]");
  EXPECT_THROW(numel_of({2, -1}), std::invalid_argument);
}

TEST(Tensor, ConstructionZeroInitializes) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructors) {
  EXPECT_EQ(Tensor::ones({3}).at(2), 1.0f);
  EXPECT_EQ(Tensor::full({2, 2}, 7.0f).at(3), 7.0f);
  EXPECT_EQ(Tensor::scalar(4.5f).numel(), 1);
  const Tensor t = Tensor::of({1, 2, 3});
  EXPECT_EQ(t.shape(), (Shape{3}));
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(Tensor, ValuesConstructorChecksShape) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3, 4});
  t(1, 2, 3) = 42.0f;
  EXPECT_EQ(t.at(1 * 12 + 2 * 4 + 3), 42.0f);
  Tensor t4({2, 2, 2, 2});
  t4(1, 0, 1, 0) = 5.0f;
  EXPECT_EQ(t4.at(8 + 2), 5.0f);
}

TEST(Tensor, SizeAxisNegativeIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_THROW(t.size(3), std::out_of_range);
}

TEST(Tensor, ReshapePreservesDataAndInfersDim) {
  Tensor t({2, 6});
  std::iota(t.flat().begin(), t.flat().end(), 0.0f);
  const Tensor r = t.reshaped({3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_EQ(r.at(11), 11.0f);
  EXPECT_THROW(t.reshaped({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshaped({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshaped({13}), std::invalid_argument);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({3}, 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(Ops, ElementwiseBasics) {
  const Tensor a = Tensor::of({1, 2, 3});
  const Tensor b = Tensor::of({4, 5, 6});
  EXPECT_EQ(ops::add(a, b).at(0), 5.0f);
  EXPECT_EQ(ops::sub(b, a).at(2), 3.0f);
  EXPECT_EQ(ops::mul(a, b).at(1), 10.0f);
  EXPECT_EQ(ops::scale(a, 2.0f).at(2), 6.0f);
  EXPECT_EQ(ops::abs(Tensor::of({-2, 2})).at(0), 2.0f);
  EXPECT_EQ(ops::square(Tensor::of({-3})).at(0), 9.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  const Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
  Tensor c({2});
  EXPECT_THROW(ops::axpy(c, 1.0f, b), std::invalid_argument);
}

TEST(Ops, AxpyAndInplace) {
  Tensor a = Tensor::of({1, 1});
  ops::axpy(a, 2.0f, Tensor::of({3, 4}));
  EXPECT_EQ(a.at(0), 7.0f);
  EXPECT_EQ(a.at(1), 9.0f);
  ops::mul_inplace(a, Tensor::of({0, 1}));
  EXPECT_EQ(a.at(0), 0.0f);
  EXPECT_EQ(a.at(1), 9.0f);
}

TEST(Ops, Reductions) {
  const Tensor t = Tensor::of({1, -2, 3, -4});
  EXPECT_FLOAT_EQ(ops::sum(t), -2.0f);
  EXPECT_FLOAT_EQ(ops::mean(t), -0.5f);
  EXPECT_FLOAT_EQ(ops::min(t), -4.0f);
  EXPECT_FLOAT_EQ(ops::max(t), 3.0f);
  EXPECT_FLOAT_EQ(ops::sum_sq(t), 30.0f);
  EXPECT_EQ(ops::count_nonzero(Tensor::of({0, 1, 0, -2})), 2);
  EXPECT_EQ(ops::count_nonzero(Tensor::of({0.05f, 0.2f}), 0.1f), 1);
}

TEST(Ops, ArgmaxAndTopk) {
  const std::vector<float> v = {1, 5, 3, 5, 2};
  EXPECT_EQ(ops::argmax(v), 1);  // first of the tied maxima
  const auto top3 = ops::topk_indices(v, 3);
  EXPECT_EQ(top3, (std::vector<int64_t>{1, 3, 2}));
  EXPECT_THROW(ops::topk_indices(v, 6), std::invalid_argument);
}

TEST(Ops, KthSmallest) {
  const std::vector<float> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(ops::kth_smallest(v, 0), 1.0f);
  EXPECT_EQ(ops::kth_smallest(v, 2), 3.0f);
  EXPECT_EQ(ops::kth_smallest(v, 4), 5.0f);
  EXPECT_THROW(ops::kth_smallest(v, 5), std::invalid_argument);
}

TEST(Ops, Allclose) {
  EXPECT_TRUE(ops::allclose(Tensor::of({1.0f}), Tensor::of({1.0f + 1e-7f})));
  EXPECT_FALSE(ops::allclose(Tensor::of({1.0f}), Tensor::of({1.1f})));
  EXPECT_FALSE(ops::allclose(Tensor({2}), Tensor({3})));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, RandintBoundsAndUniformity) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[static_cast<size_t>(rng.randint(10))]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
  EXPECT_THROW(rng.randint(0), std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(5);
  const auto perm = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (int64_t v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(9);
  Rng child = a.fork();
  // The fork and parent produce different streams.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, FillBernoulli) {
  Rng rng(13);
  Tensor t({10000});
  rng.fill_bernoulli(t, 0.3);
  EXPECT_NEAR(ops::mean(t), 0.3f, 0.02f);
}

// ---- im2col ----

TEST(Im2col, IdentityKernelIsCopy) {
  ConvGeometry g{1, 3, 3, 1, 1, 1, 0};
  Tensor img({1, 3, 3});
  std::iota(img.flat().begin(), img.flat().end(), 1.0f);
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, img.data(), cols.data());
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(cols.at(i), img.at(i));
}

TEST(Im2col, PaddingProducesZeroBorder) {
  ConvGeometry g{1, 2, 2, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 2);
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, img.data(), cols.data());
  // Kernel position (0,0) at output (0,0) looks at input (-1,-1) -> 0.
  EXPECT_EQ(cols(0, 0), 0.0f);
  // Kernel center (1,1) at output (0,0) is input (0,0) = 1.
  EXPECT_EQ(cols(4, 0), 1.0f);
}

TEST(Im2col, StrideGeometry) {
  ConvGeometry g{2, 8, 8, 3, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 4);
  EXPECT_EQ(g.out_w(), 4);
  EXPECT_EQ(g.col_rows(), 2 * 9);
  EXPECT_EQ(g.col_cols(), 16);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the backward pass.
  ConvGeometry g{2, 5, 5, 3, 3, 2, 1};
  Rng rng(99);
  Tensor x({g.in_c, g.in_h, g.in_w});
  Tensor y({g.col_rows(), g.col_cols()});
  rng.fill_normal(x, 0.0f, 1.0f);
  rng.fill_normal(y, 0.0f, 1.0f);
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, x.data(), cols.data());
  Tensor back({g.in_c, g.in_h, g.in_w});
  col2im(g, y.data(), back.data());
  double lhs = 0, rhs = 0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += static_cast<double>(cols.at(i)) * y.at(i);
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x.at(i)) * back.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

// ---- serialization ----

TEST(Serialize, TensorRoundTrip) {
  Rng rng(21);
  Tensor t({3, 4, 5});
  rng.fill_normal(t, 0.0f, 2.0f);
  std::stringstream ss;
  write_tensor(ss, t);
  const Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(ops::allclose(back, t, 0.0f, 0.0f));
}

TEST(Serialize, StringRoundTripAndCorruption) {
  std::stringstream ss;
  write_string(ss, "hello world");
  EXPECT_EQ(read_string(ss), "hello world");

  std::stringstream bad("garbage");
  EXPECT_THROW(read_tensor(bad), std::runtime_error);
}

TEST(Serialize, CorruptedDimsFailBeforeAllocating) {
  // A serialized [2, 3] tensor: magic, rank, two dims, six floats. Each
  // patched header must be rejected as a read_tensor error, not as an
  // allocation failure or an overflowed element count.
  std::stringstream good;
  write_tensor(good, Tensor({2, 3}, 1.0f));
  const std::string bytes = good.str();
  const auto patched = [&](int64_t d0, int64_t d1) {
    std::string b = bytes;
    std::memcpy(b.data() + 16, &d0, sizeof(d0));
    std::memcpy(b.data() + 24, &d1, sizeof(d1));
    return b;
  };
  const int64_t big = int64_t{1} << 40;
  const std::pair<int64_t, int64_t> dims[] = {{-3, 3}, {2, -3}, {big, 3}, {2, big},
                                              {int64_t{1} << 32, int64_t{1} << 32}};
  for (const auto& [d0, d1] : dims) {
    std::stringstream ss(patched(d0, d1));
    try {
      (void)read_tensor(ss);
      ADD_FAILURE() << "dims [" << d0 << ", " << d1 << "] were accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("read_tensor: ", 0), 0u) << e.what();
    }
  }
  std::stringstream ok(patched(3, 2));
  EXPECT_EQ(read_tensor(ok).shape(), (Shape{3, 2}));
  EXPECT_THROW(numel_of({int64_t{1} << 32, int64_t{1} << 32}), std::overflow_error);
}

TEST(Serialize, ScalarAndEmptyShapes) {
  std::stringstream ss;
  write_tensor(ss, Tensor::scalar(3.5f));
  EXPECT_EQ(read_tensor(ss).at(0), 3.5f);
}

}  // namespace
}  // namespace shrinkbench
