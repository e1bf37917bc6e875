// Sparse inference tests: CSR construction, sparse matmul correctness,
// and agreement between dense and sparse execution of pruned layers. The
// layer cases run one-layer models through the serving executor's Csr
// mode, the repository's one CSR inference path.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/init.hpp"
#include "nn/sparse.hpp"
#include "serve/executor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace shrinkbench {
namespace {

TEST(Csr, RoundTripsDense) {
  Rng rng(1);
  Tensor dense({7, 11});
  rng.fill_normal(dense, 0, 1);
  // Zero about half the entries.
  for (float& v : dense.flat()) {
    if (rng.bernoulli(0.5)) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(dense.data(), 7, 11);
  EXPECT_EQ(csr.nnz(), ops::count_nonzero(dense));
  EXPECT_TRUE(ops::allclose(csr_to_dense(csr), dense, 0, 0));
}

TEST(Csr, EmptyAndFullMatrices) {
  Tensor zeros({3, 4});
  const CsrMatrix empty = csr_from_dense(zeros.data(), 3, 4);
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_DOUBLE_EQ(empty.density(), 0.0);

  Tensor ones = Tensor::ones({3, 4});
  const CsrMatrix full = csr_from_dense(ones.data(), 3, 4);
  EXPECT_EQ(full.nnz(), 12);
  EXPECT_DOUBLE_EQ(full.density(), 1.0);
}

TEST(Csr, KeepsNaNEntries) {
  // |NaN| > 0 is false: a `> tol` filter would drop a diverged weight
  // and hide it from every product.
  const float row[2] = {std::nanf(""), 1.0f};
  const CsrMatrix csr = csr_from_dense(row, 1, 2);
  EXPECT_EQ(csr.nnz(), 2);
  EXPECT_TRUE(std::isnan(csr.values[0]));
}

TEST(Csr, RejectsColumnCountBeyondInt32) {
  // col_idx is int32_t; anything wider must throw instead of silently
  // wrapping the indices. rows = 0 so no data is ever dereferenced.
  const int64_t too_wide = int64_t{1} << 32;
  EXPECT_THROW(csr_from_dense(nullptr, 0, too_wide), std::invalid_argument);
}

class CsrMatmulSparsity : public ::testing::TestWithParam<double> {};

TEST_P(CsrMatmulSparsity, MatchesDenseGemm) {
  const double sparsity = GetParam();
  Rng rng(17);
  Tensor a({13, 29}), b({29, 9});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  for (float& v : a.flat()) {
    if (rng.uniform() < sparsity) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(a.data(), 13, 29);
  Tensor out({13, 9});
  csr_matmul(csr, b.data(), 9, out.data());
  EXPECT_TRUE(ops::allclose(out, matmul(a, b), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CsrMatmulSparsity,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9, 0.99, 1.0));

TEST(SparseConv, MatchesDenseForwardUnderMask) {
  Sequential model("m");
  model.emplace<Conv2d>("c", 3, 5, 3, 1, 1, true);
  auto& conv = static_cast<Conv2d&>(model[0]);
  Rng rng(3);
  kaiming_normal(conv.weight().data, rng);
  rng.fill_normal(conv.bias()->data, 0, 0.1f);
  // Prune 80% of the weights. The mask is not yet applied to the data:
  // the Csr executor must multiply it in itself.
  rng.fill_bernoulli(conv.weight().mask, 0.2);
  const serve::Executor sparse = serve::compile(model, {3, 6, 6}, serve::ExecMode::Csr);
  EXPECT_NEAR(1.0 / sparse.theoretical_speedup(), 0.2, 0.07);

  conv.weight().apply_mask();
  Tensor x({4, 3, 6, 6});
  rng.fill_normal(x, 0, 1);
  EXPECT_TRUE(ops::allclose(sparse.forward(x), conv.forward(x, false), 1e-4f, 1e-4f));
}

TEST(SparseConv, StridedAndPaddedGeometry) {
  Sequential model("m");
  model.emplace<Conv2d>("c", 2, 4, 3, 2, 1, false);
  auto& conv = static_cast<Conv2d&>(model[0]);
  Rng rng(5);
  kaiming_normal(conv.weight().data, rng);
  Tensor x({2, 2, 7, 7});
  rng.fill_normal(x, 0, 1);
  const serve::Executor sparse = serve::compile(model, {2, 7, 7}, serve::ExecMode::Csr);
  EXPECT_TRUE(ops::allclose(sparse.forward(x), conv.forward(x, false), 1e-4f, 1e-4f));
}

TEST(SparseConv, RejectsWrongInput) {
  Sequential model("m");
  model.emplace<Conv2d>("c", 3, 4, 3, 1, 1, false);
  const serve::Executor sparse = serve::compile(model, {3, 6, 6}, serve::ExecMode::Csr);
  EXPECT_THROW(sparse.forward(Tensor({1, 2, 6, 6})), std::invalid_argument);
  EXPECT_THROW(sparse.forward(Tensor({1, 3, 6})), std::invalid_argument);
}

TEST(SparseLinear, MatchesDenseForwardUnderMask) {
  Sequential model("m");
  model.emplace<Linear>("fc", 10, 6, true);
  auto& fc = static_cast<Linear&>(model[0]);
  Rng rng(7);
  kaiming_normal(fc.weight().data, rng);
  rng.fill_normal(fc.bias()->data, 0, 0.1f);
  rng.fill_bernoulli(fc.weight().mask, 0.3);
  const serve::Executor sparse = serve::compile(model, {10}, serve::ExecMode::Csr);

  fc.weight().apply_mask();
  Tensor x({5, 10});
  rng.fill_normal(x, 0, 1);
  EXPECT_TRUE(ops::allclose(sparse.forward(x), fc.forward(x, false), 1e-4f, 1e-4f));
}

TEST(SparseLinear, RejectsWrongInput) {
  Sequential model("m");
  model.emplace<Linear>("fc", 10, 6, true);
  const serve::Executor sparse = serve::compile(model, {10}, serve::ExecMode::Csr);
  EXPECT_THROW(sparse.forward(Tensor({2, 9})), std::invalid_argument);
}

TEST(SparseLinear, FullyPrunedYieldsBiasOnly) {
  Sequential model("m");
  model.emplace<Linear>("fc", 4, 3, true);
  auto& fc = static_cast<Linear&>(model[0]);
  Rng rng(9);
  kaiming_normal(fc.weight().data, rng);
  fc.bias()->data = Tensor::of({1.0f, 2.0f, 3.0f});
  fc.weight().mask.zero();
  const serve::Executor sparse = serve::compile(model, {4}, serve::ExecMode::Csr);
  Tensor x({2, 4});
  rng.fill_normal(x, 0, 1);
  const Tensor y = sparse.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y(1, 2), 3.0f);
}

}  // namespace
}  // namespace shrinkbench
