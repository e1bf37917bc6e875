// Serving engine tests: compiler parity against the eval-mode model
// (including the shrunk executor's compact layouts across architectures,
// keep fractions and input sizes), NaN propagation, input rejection
// shared with the eager layers, batcher semantics (an idle worker
// dispatches at once, requests queued while it is busy form one batch,
// lossless drain), parallel CSR matmul determinism, steady-state zero
// arena growth in every exec mode, and the conv lowerings against their
// column formulations (the direct backward, blocked eval, the direct CSR
// conv, the direct dense conv) plus the fused conv + ReLU epilogues, and
// the direct paths' rule that they take every term, non-finite ones
// included.
//
// Registered in CMake under SB_THREADS={1,2,4} as well as the default, so
// every parity assertion here doubles as a determinism check: compiled
// executors must produce the same bits at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "madd.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "obs/io.hpp"
#include "obs/profile.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {
namespace {

using serve::ExecMode;
using serve::InferenceServer;
using serve::ServerOptions;
using serve::ServerStats;

// Builds a trained-looking pruned zoo model: Kaiming weights, off-default
// biases and BN affine params (so folding mistakes can't hide behind
// gamma=1/beta=0), BN running stats populated by train-mode forwards, and
// global magnitude masks applied at the given structure/keep fraction.
ModelPtr pruned_zoo_model(const std::string& arch, const Shape& sample, Structure structure,
                          double keep) {
  Rng rng(17);
  ModelPtr model = make_model(arch, sample, /*num_classes=*/10, /*base_width=*/8);
  init_model(*model, rng);
  for (Parameter* p : parameters_of(*model)) {
    if (!p->prunable) rng.fill_normal(p->data, 0.2f, 0.6f);
  }
  for (int i = 0; i < 2; ++i) {
    Shape in{4};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    model->forward(x, /*train=*/true);
  }
  PruneOptions opts;
  std::vector<ScoredParam> scored;
  for (Parameter* p : prunable_params(*model, opts)) {
    scored.push_back({p, score_parameter(ScoreKind::Magnitude, *p, {}, rng)});
  }
  allocate_masks(scored, AllocationScope::Global, structure, keep);
  apply_masks(*model);
  return model;
}

// Compares the compiled executor against the eval-mode Sequential across
// the issue's batch sizes. rtol/atol == 0 demands bit-identity (Dense
// mode); Csr/Shrunk fold BN into the weights before the matmul, which
// reorders the floating-point work per output element, so those modes get
// a small documented tolerance instead.
void expect_parity(Sequential& model, const Shape& sample, ExecMode mode, float rtol,
                   float atol) {
  const serve::Executor exec = serve::compile(model, sample, mode);
  Rng rng(91);
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{32}}) {
    Shape in{n};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    const Tensor ref = model.forward(x, /*train=*/false);
    const Tensor got = exec.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_TRUE(ops::allclose(got, ref, rtol, atol))
        << serve::to_string(mode) << " diverged from eval forward at batch " << n;
  }
}

const Shape kCifarSample{3, 32, 32};

TEST(ServeExecutor, DenseBitMatchesVgg) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Dense, 0, 0);
}

TEST(ServeExecutor, CsrMatchesVgg) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Csr, 1e-3f, 1e-3f);
}

TEST(ServeExecutor, ShrunkMatchesChannelPrunedVgg) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  expect_parity(*m, kCifarSample, ExecMode::Shrunk, 1e-3f, 1e-3f);
}

TEST(ServeExecutor, DenseBitMatchesResnet20) {
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Dense, 0, 0);
}

TEST(ServeExecutor, CsrMatchesResnet20) {
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Unstructured, 0.25);
  expect_parity(*m, kCifarSample, ExecMode::Csr, 2e-3f, 2e-3f);
}

TEST(ServeExecutor, ShrunkMatchesChannelPrunedResnet20) {
  ModelPtr m = pruned_zoo_model("resnet-20", kCifarSample, Structure::Channel, 0.5);
  expect_parity(*m, kCifarSample, ExecMode::Shrunk, 2e-3f, 2e-3f);
}

// ---- channel-shrunk executor: compact layouts ----

// Residual nets reorder more of the folded arithmetic than the VGG chain.
float shrunk_tolerance(const std::string& arch) { return arch == "cifar-vgg" ? 1e-3f : 2e-3f; }

TEST(ServeShrunk, ParityGrid) {
  // Dead channels never materialise: consumers drop their columns and
  // fold their constants (border-dependent under padding), residual joins
  // take the union of both branches' live channels, and one final op
  // expands the result. Keep 0.1 leaves most layers one live channel.
  for (const char* arch : {"cifar-vgg", "resnet-20", "preresnet-20"}) {
    for (const double keep : {0.5, 0.1}) {
      SCOPED_TRACE(std::string(arch) + " keep " + std::to_string(keep));
      ModelPtr m = pruned_zoo_model(arch, kCifarSample, Structure::Channel, keep);
      const float tol = shrunk_tolerance(arch);
      expect_parity(*m, kCifarSample, ExecMode::Shrunk, tol, tol);
    }
  }
}

TEST(ServeShrunk, BorderTermsFollowTheCallGeometry) {
  // Compiled for 32x32, served 16x16: the padded convs' dead-input terms
  // must be laid over the call's borders, not the compiled shape's.
  for (const char* arch : {"resnet-20", "preresnet-20"}) {
    ModelPtr m = pruned_zoo_model(arch, kCifarSample, Structure::Channel, 0.1);
    const serve::Executor exec = serve::compile(*m, kCifarSample, ExecMode::Shrunk);
    Rng rng(4);
    Tensor x({7, 3, 16, 16});
    rng.fill_normal(x, 0, 1);
    const Tensor ref = m->forward(x, /*train=*/false);
    const Tensor got = exec.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_TRUE(ops::allclose(got, ref, 2e-3f, 2e-3f)) << arch;
  }
}

TEST(ServeShrunk, LayerWithNoLiveOutputsRunsFromConstants) {
  // A conv whose whole mask is zero: its outputs are BN-shift constants,
  // and the next conv runs on zero live input channels — its output is
  // the border-dependent term alone.
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  std::vector<Conv2d*> convs;
  visit_layers(*m, [&](Layer& l) {
    if (auto* c = dynamic_cast<Conv2d*>(&l)) convs.push_back(c);
  });
  ASSERT_GE(convs.size(), 3u);
  convs[1]->weight().mask.zero();
  apply_masks(*m);
  expect_parity(*m, kCifarSample, ExecMode::Shrunk, 1e-3f, 1e-3f);
}

TEST(ServeExecutor, NaNWeightPropagatesInEveryMode) {
  // A diverged weight must surface in every mode's output, as it does in
  // the eager model — Csr used to drop NaN entries while building CSR.
  Rng rng(2);
  Sequential model("m");
  model.emplace<Linear>("fc", 4, 2);
  init_model(model, rng);
  auto& fc = dynamic_cast<Linear&>(*model.children()[0]);
  fc.weight().data.at(0) = std::nanf("");
  const Tensor x = Tensor::ones({1, 4});
  ASSERT_TRUE(std::isnan(model.forward(x, /*train=*/false).at(0)));
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const Tensor y = serve::compile(model, {4}, mode).forward(x);
    EXPECT_TRUE(std::isnan(y.at(0))) << serve::to_string(mode);
    EXPECT_FALSE(std::isnan(y.at(1))) << serve::to_string(mode);
  }
}

TEST(ServeExecutor, TheoreticalSpeedupTracksEffectiveFlops) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.25);
  const serve::Executor dense = serve::compile(*m, kCifarSample, ExecMode::Dense);
  const serve::Executor csr = serve::compile(*m, kCifarSample, ExecMode::Csr);
  EXPECT_EQ(dense.flops_dense(), csr.flops_dense());
  EXPECT_LT(csr.flops_effective(), csr.flops_dense());
  EXPECT_GT(csr.theoretical_speedup(), 1.0);
  EXPECT_EQ(m->flops(kCifarSample), csr.flops_dense());
  EXPECT_EQ(m->effective_flops(kCifarSample), csr.flops_effective());
}

TEST(ServeExecutor, ForwardRejectsWrongSampleShape) {
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Unstructured, 0.5);
  const serve::Executor exec = serve::compile(*m, kCifarSample, ExecMode::Dense);
  Tensor bad({2, 3, 16, 16});
  EXPECT_THROW(exec.forward(bad), std::invalid_argument);
}

TEST(ServeExecutor, PoolRejectsInputsEagerRejects) {
  // A 2x2 / stride-2 pool compiled for 4x4 maps and fed 5x5 ones: the
  // window grid does not tile the input, so the eager layer throws, and
  // the executor must throw too instead of dropping the ragged edge.
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    for (const bool max : {true, false}) {
      Sequential model("m");
      if (max) {
        model.emplace<MaxPool2d>("pool", 2, 2);
      } else {
        model.emplace<AvgPool2d>("pool", 2, 2);
      }
      const serve::Executor exec = serve::compile(model, {1, 4, 4}, mode);
      const Tensor ragged({1, 1, 5, 5});
      EXPECT_THROW(model.forward(ragged, /*train=*/false), std::invalid_argument);
      EXPECT_THROW(exec.forward(ragged), std::invalid_argument)
          << serve::to_string(mode) << (max ? " max" : " avg") << " pool served a ragged input";
      EXPECT_THROW(exec.forward(Tensor({1, 16})), std::invalid_argument)
          << serve::to_string(mode) << (max ? " max" : " avg") << " pool served a rank-2 input";
    }
  }
}

TEST(ServeExecutor, FlattenFirstAcceptsWhatEagerAccepts) {
  // lenet-300-100 starts with Flatten, so eager takes [N, 784] as well as
  // [N, 28, 28]; every executor must too, and reject what eager rejects.
  const Shape sample{1, 28, 28};
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const Structure structure =
        mode == ExecMode::Shrunk ? Structure::Channel : Structure::Unstructured;
    ModelPtr m = pruned_zoo_model("lenet-300-100", sample, structure, 0.25);
    const serve::Executor exec = serve::compile(*m, sample, mode);
    const float tol = mode == ExecMode::Dense ? 0.0f : 1e-3f;
    Rng rng(5);
    for (const Shape& in : {Shape{7, 784}, Shape{7, 28, 28}, Shape{7, 1, 28, 28}}) {
      Tensor x(in);
      rng.fill_normal(x, 0, 1);
      const Tensor ref = m->forward(x, /*train=*/false);
      const Tensor got = exec.forward(x);
      ASSERT_EQ(got.shape(), ref.shape()) << serve::to_string(mode);
      EXPECT_TRUE(ops::allclose(got, ref, tol, tol))
          << serve::to_string(mode) << " diverged on " << to_string(in);
    }
    const Tensor bad({7, 783});
    EXPECT_THROW(m->forward(bad, /*train=*/false), std::invalid_argument);
    EXPECT_THROW(exec.forward(bad), std::invalid_argument) << serve::to_string(mode);
  }
}

TEST(ServeExecutor, ResidualJoinRejectsBranchesThatDisagree) {
  // A k2/s2 main conv and a 1x1/s2 projection agree on 4x4 and 6x6 inputs
  // but not on 5x5 (2x2 vs 3x3). Eager's join throws there; so must every
  // executor. Main output 0 is masked off, so in Shrunk it is a constant
  // and the join gathers main into the union of live channels.
  auto conv = std::make_unique<Conv2d>("b.conv", 1, 2, 2, 2, 0, /*bias=*/true);
  Conv2d& main_conv = *conv;
  auto main = std::make_unique<Sequential>("b.main");
  main->add(std::move(conv));
  auto shortcut = std::make_unique<Sequential>("b.shortcut");
  shortcut->emplace<Conv2d>("b.proj", 1, 2, 1, 2, 0, /*bias=*/true);
  Sequential model("m");
  model.add(std::make_unique<ResidualBlock>("b", std::move(main), std::move(shortcut)));
  Rng rng(6);
  init_model(model, rng);
  for (Parameter* p : parameters_of(model)) {
    if (!p->prunable) rng.fill_normal(p->data, 0.2f, 0.6f);
  }
  for (int64_t i = 0; i < 4; ++i) main_conv.weight().mask.at(i) = 0.0f;  // output 0
  apply_masks(model);

  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const serve::Executor exec = serve::compile(model, {1, 4, 4}, mode);
    for (const int64_t size : {4, 6}) {
      Tensor x({3, 1, size, size});
      rng.fill_normal(x, 0, 1);
      EXPECT_TRUE(ops::allclose(exec.forward(x), model.forward(x, /*train=*/false), 1e-5f, 1e-5f))
          << serve::to_string(mode) << " at " << size << "x" << size;
    }
    const Tensor odd({3, 1, 5, 5});
    EXPECT_THROW(model.forward(odd, /*train=*/false), std::invalid_argument);
    EXPECT_THROW(exec.forward(odd), std::invalid_argument) << serve::to_string(mode);
  }
}

TEST(ServeExecutor, ModeNamesRoundTrip) {
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    EXPECT_EQ(serve::exec_mode_from_name(serve::to_string(mode)), mode);
  }
  EXPECT_THROW(serve::exec_mode_from_name("bogus"), std::invalid_argument);
}

// ---- fused-grid executors: bit-identical across thread counts ----

TEST(ServeExecutor, ForwardBitIdenticalAcrossThreadCounts) {
  // The conv ops fan out over a fused (sample x out-channel-tile) grid,
  // so even batch-1 forwards engage the pool; the static partition must
  // keep every mode's output bit-identical at any SB_THREADS.
  ModelPtr m = pruned_zoo_model("cifar-vgg", kCifarSample, Structure::Channel, 0.5);
  ThreadPool& pool = ThreadPool::instance();
  const int original = pool.threads();
  Rng rng(21);
  for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
    const serve::Executor exec = serve::compile(*m, kCifarSample, mode);
    for (const int64_t n : {int64_t{1}, int64_t{7}}) {
      Shape in{n};
      in.insert(in.end(), kCifarSample.begin(), kCifarSample.end());
      Tensor x(in);
      rng.fill_normal(x, 0, 1);
      pool.set_threads(1);
      const Tensor ref = exec.forward(x);
      for (const int threads : {2, 4}) {
        pool.set_threads(threads);
        const Tensor got = exec.forward(x);
        EXPECT_TRUE(ops::allclose(got, ref, 0, 0))
            << serve::to_string(mode) << " batch " << n << " diverged at threads=" << threads;
      }
    }
  }
  pool.set_threads(original);
}

// ---- parallel CSR matmul: bit-identical to serial at any SB_THREADS ----

TEST(ServeKernels, CsrMatmulParallelBitMatchesSerial) {
  Rng rng(5);
  const int64_t rows = 512, cols = 256, n = 64;
  Tensor dense({rows, cols});
  rng.fill_normal(dense, 0, 1);
  for (float& v : dense.flat()) {
    if (rng.bernoulli(0.7)) v = 0.0f;
  }
  const CsrMatrix csr = csr_from_dense(dense.data(), rows, cols);
  Tensor x({cols, n});
  rng.fill_normal(x, 0, 1);
  Tensor serial({rows, n}), threaded({rows, n});
  {
    ThreadPool::SerialGuard guard;  // forces the row loop inline-serial
    csr_matmul(csr, x.data(), n, serial.data());
  }
  csr_matmul(csr, x.data(), n, threaded.data());  // fans out per SB_THREADS
  EXPECT_TRUE(ops::allclose(serial, threaded, 0, 0));
}

// ---- executor scratch: steady-state zero growth ----

TEST(ServeWorkspace, ExecutorForwardReachesSteadyState) {
  // Every mode's kernels take their scratch from the thread-local arena,
  // so once warm-up has grown it, forwards must never grow it again. At
  // keep 0.1 the shrunk executor's activations are one channel wide and
  // its padded convs build their border bias planes on every call.
  for (const char* arch : {"cifar-vgg", "resnet-20"}) {
    for (const double keep : {0.5, 0.1}) {
      ModelPtr m = pruned_zoo_model(arch, kCifarSample, Structure::Channel, keep);
      for (const ExecMode mode : {ExecMode::Dense, ExecMode::Csr, ExecMode::Shrunk}) {
        const serve::Executor exec = serve::compile(*m, kCifarSample, mode);
        Rng rng(9);
        Tensor x({4, 3, 32, 32});
        rng.fill_normal(x, 0, 1);
        for (int i = 0; i < 3; ++i) exec.forward(x);
        Workspace& ws = Workspace::tls();
        const int64_t grows = ws.grow_count();
        const size_t cap = ws.capacity();
        for (int i = 0; i < 3; ++i) exec.forward(x);
        EXPECT_EQ(ws.grow_count(), grows) << arch << " keep " << keep << " "
                                          << serve::to_string(mode)
                                          << " grew the arena after warm-up";
        EXPECT_EQ(ws.capacity(), cap);
      }
    }
  }
}

// ---- conv lowering parity: bit-exact against the column formulation ----

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Elements whose bits differ, where two NaNs count as equal: which NaN
// operand a multiply-add returns depends on the instruction's operand
// order, so NaN payloads are not part of the kernels' contract.
int64_t bit_mismatches(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return std::max<int64_t>(a.numel(), 1);
  int64_t bad = 0;
  for (int64_t k = 0; k < a.numel(); ++k) {
    const float u = a.data()[k], v = b.data()[k];
    bad += !(std::isnan(u) && std::isnan(v)) && std::memcmp(&u, &v, sizeof(float)) != 0;
  }
  return bad;
}

TEST(ServeExecutor, InfUnderMaskedLinearColumnIsNaNInEagerAndDense) {
  // Linear multiplies every term, +0 weights included (linear.hpp): an
  // Inf input feature under a fully masked weight column makes every
  // output of its sample NaN, in the eager model and the dense executor
  // alike, at one thread and at four; the other samples stay finite.
  // 37 outputs and 19 samples leave lane and row-tile remainders.
  const int64_t in = 40, out = 37, n = 19, dead = 5;
  Rng rng(3);
  Sequential model("m");
  model.emplace<Linear>("fc", in, out);
  init_model(model, rng);
  Parameter& w = dynamic_cast<Linear&>(*model.children()[0]).weight();
  for (int64_t o = 0; o < out; ++o) w.mask(o, dead) = 0.0f;
  w.apply_mask();
  Tensor x({n, in});
  rng.fill_normal(x, 0, 1);
  x(3, dead) = std::numeric_limits<float>::infinity();
  x(11, dead) = -std::numeric_limits<float>::infinity();
  ThreadPool& pool = ThreadPool::instance();
  const int original = pool.threads();
  for (const int threads : {1, 4}) {
    pool.set_threads(threads);
    const Tensor eager = model.forward(x, /*train=*/false);
    const Tensor dense = serve::compile(model, {in}, ExecMode::Dense).forward(x);
    EXPECT_EQ(bit_mismatches(eager, dense), 0) << "threads " << threads;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t o = 0; o < out; ++o) {
        EXPECT_EQ(std::isnan(eager(i, o)), i == 3 || i == 11)
            << "sample " << i << " output " << o << " threads " << threads;
      }
    }
  }
  pool.set_threads(original);
}

// C = op(A)·op(B) + beta·C, beta 0 or 1: each element starts at +0.0
// (beta 0) or its current value (beta 1) and takes one multiply-add per
// k in ascending order, every term multiplied — the chain the direct
// kernels must reproduce.
void reference_product(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                       const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
                       float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = beta == 0.0f ? 0.0f : c[i * ldc + j];
      for (int64_t p = 0; p < k; ++p) {
        acc = testing::madd(acc, trans_a ? a[p * lda + i] : a[i * lda + p],
                            trans_b ? b[j * ldb + p] : b[p * ldb + j]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

struct ConvGrads {
  Tensor dw, db, dx;
};

// Conv backward in the column formulation: dW from the column matrix via
// the trans_b product, starting from dw0 (nullptr: zeros), dX from the full
// dcols product scattered with a col2im that bounds-tests every element.
// Same reductions in the same order as Conv2d::backward, so the layer
// must match it bit for bit.
ConvGrads column_backward(const Tensor& x, const Tensor& dy, const Tensor& weight,
                          const ConvGeometry& g, int64_t out_c, const Tensor* dw0 = nullptr) {
  const int64_t n = x.size(0), spatial = g.col_cols(), col_rows = g.col_rows();
  const int64_t ld = n * spatial, image = g.in_c * g.in_h * g.in_w;
  const int64_t ow = g.out_w();
  std::vector<float> cols(static_cast<size_t>(col_rows * ld));
  std::vector<float> dy_cm(static_cast<size_t>(out_c * ld));
  std::vector<float> dcols(static_cast<size_t>(col_rows * ld));
  for (int64_t i = 0; i < n; ++i) {
    im2col_ld(g, x.data() + i * image, cols.data() + i * spatial, ld);
    for (int64_t c = 0; c < out_c; ++c) {
      const float* src = dy.data() + (i * out_c + c) * spatial;
      std::copy(src, src + spatial, dy_cm.data() + c * ld + i * spatial);
    }
  }
  ConvGrads r{dw0 != nullptr ? *dw0 : Tensor(weight.shape()), Tensor({out_c}), Tensor(x.shape())};
  reference_product(false, /*trans_b=*/true, out_c, col_rows, ld, dy_cm.data(), ld, cols.data(),
                    ld, 1.0f, r.dw.data(), col_rows);
  reference_product(/*trans_a=*/true, false, col_rows, ld, out_c, weight.data(), col_rows,
                    dy_cm.data(), ld, 0.0f, dcols.data(), ld);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t row = 0; row < col_rows; ++row) {
      const int64_t c = row / (g.kernel_h * g.kernel_w);
      const int64_t kh = (row / g.kernel_w) % g.kernel_h, kw = row % g.kernel_w;
      float* chan = r.dx.data() + i * image + c * g.in_h * g.in_w;
      for (int64_t sp = 0; sp < spatial; ++sp) {
        const int64_t in_y = (sp / ow) * g.stride + kh - g.pad;
        const int64_t in_x = (sp % ow) * g.stride + kw - g.pad;
        if (in_y >= 0 && in_y < g.in_h && in_x >= 0 && in_x < g.in_w) {
          chan[in_y * g.in_w + in_x] += dcols[static_cast<size_t>(row * ld + i * spatial + sp)];
        }
      }
    }
  }
  for (int64_t c = 0; c < out_c; ++c) {
    for (int64_t i = 0; i < n; ++i) {
      const float* src = dy.data() + (i * out_c + c) * spatial;
      double s = 0.0;
      for (int64_t sp = 0; sp < spatial; ++sp) s += src[sp];
      r.db.at(c) += static_cast<float>(s);
    }
  }
  return r;
}

TEST(ConvLowering, BackwardBitMatchesColumnFormulation) {
  const int64_t in_c = 3, out_c = 4, kernel = 3, pad = 1;
  for (const int64_t n : {1, 7, 64}) {
    for (const int64_t plane : {2, 4, 8, 32}) {
      for (const int64_t stride : {1, 2}) {
        for (const bool bias : {false, true}) {
          Conv2d conv("c", in_c, out_c, kernel, stride, pad, bias);
          Rng rng(static_cast<uint64_t>(n * 1000 + plane * 10 + stride));
          kaiming_normal(conv.weight().data, rng);
          Tensor x({n, in_c, plane, plane});
          rng.fill_normal(x, 0, 1);
          const Tensor y = conv.forward(x, /*train=*/true);
          Tensor dy(y.shape());
          rng.fill_normal(dy, 0, 1);
          const Tensor dx = conv.backward(dy);
          const ConvGeometry g{in_c, plane, plane, kernel, kernel, stride, pad};
          const ConvGrads ref = column_backward(x, dy, conv.weight().data, g, out_c);
          const std::string at = "batch " + std::to_string(n) + " plane " +
                                 std::to_string(plane) + " stride " + std::to_string(stride);
          EXPECT_TRUE(same_bits(conv.weight().grad, ref.dw)) << "dW at " << at;
          EXPECT_TRUE(same_bits(dx, ref.dx)) << "dX at " << at;
          if (bias) {
            EXPECT_TRUE(same_bits(conv.bias()->grad, ref.db)) << "bias at " << at;
          }
        }
      }
    }
  }
}

TEST(ConvLowering, DirectBackwardBitMatchesColumnFormulation) {
  // Generated geometries: channel counts off the vector widths, kernels
  // 1/3/5, strides 1/2/3, padding up to one past k/2 (taps that read only
  // padding included), planes 1-20, batches 1/7/64. Weights hold masked
  // +0 entries and -0.0, dY holds -0.0 and positions that are +0 across
  // every channel, and the weight gradient starts from nonzero values and
  // -0.0, so dW must continue each element's chain from its current value.
  Rng rng(2202);
  const int64_t channels[] = {1, 3, 5, 8, 17, 33};
  const int64_t batches[] = {1, 7, 64};
  const auto pick = [&](int64_t lo, int64_t hi) { return lo + rng.randint(hi - lo + 1); };
  int64_t geometries = 0, zero_chains = 0;
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t stride : {1, 2, 3}) {
      for (int64_t pad = 0; pad <= kernel / 2 + 1; ++pad) {
        for (int draw = 0; draw < 6; ++draw) {
          const int64_t n = batches[draw % 3];
          // Batch 64 keeps to planes up to 8, so the reference's column
          // matrices stay a few MB.
          const int64_t max_plane = n == 64 ? 8 : 20;
          const int64_t in_c = channels[pick(0, 5)], out_c = channels[pick(0, 5)];
          const int64_t h = pick(1, max_plane), w = pick(1, max_plane);
          const ConvGeometry g{in_c, h, w, kernel, kernel, stride, pad};
          if (g.out_h() <= 0 || g.out_w() <= 0) continue;
          ++geometries;
          const bool bias = draw % 2 == 1;
          Conv2d conv("c", in_c, out_c, kernel, stride, pad, bias);
          Tensor& weight = conv.weight().data;
          rng.fill_normal(weight, 0, 1);
          for (float& v : weight.flat()) {
            if (rng.bernoulli(0.3)) v = rng.bernoulli(0.9) ? 0.0f : -0.0f;
          }
          Tensor& dw = conv.weight().grad;
          rng.fill_normal(dw, 0, 1);
          for (float& v : dw.flat()) {
            if (rng.bernoulli(0.5)) v = -0.0f;
          }
          const Tensor dw0 = dw;
          Tensor x({n, in_c, h, w});
          rng.fill_normal(x, 0, 1);
          for (float& v : x.flat()) {
            if (rng.bernoulli(0.05)) v = -0.0f;
          }
          conv.forward(x, /*train=*/true);
          const int64_t spatial = g.col_cols();
          Tensor dy({n, out_c, g.out_h(), g.out_w()});
          rng.fill_normal(dy, 0, 1);
          for (float& v : dy.flat()) {
            if (rng.bernoulli(0.05)) v = -0.0f;
          }
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t sp = 0; sp < spatial; ++sp) {
              if (!rng.bernoulli(0.25)) continue;
              for (int64_t o = 0; o < out_c; ++o) dy.data()[(i * out_c + o) * spatial + sp] = 0.0f;
            }
          }
          const Tensor dx = conv.backward(dy);
          const ConvGrads ref = column_backward(x, dy, weight, g, out_c, &dw0);
          const std::string at = "kernel " + std::to_string(kernel) + " stride " +
                                 std::to_string(stride) + " pad " + std::to_string(pad) + " in " +
                                 std::to_string(in_c) + "x" + std::to_string(h) + "x" +
                                 std::to_string(w) + " out_c " + std::to_string(out_c) +
                                 " batch " + std::to_string(n);
          EXPECT_EQ(bit_mismatches(dx, ref.dx), 0) << "dX at " << at;
          EXPECT_EQ(bit_mismatches(dw, ref.dw), 0) << "dW at " << at;
          for (int64_t k = 0; k < dw.numel(); ++k) {
            const float got = dw.data()[k], init = dw0.data()[k];
            zero_chains += init == 0.0f && std::signbit(init) && got == 0.0f && !std::signbit(got);
          }
          if (bias) {
            EXPECT_EQ(bit_mismatches(conv.bias()->grad, ref.db), 0) << "bias at " << at;
          }
        }
      }
    }
  }
  EXPECT_GE(geometries, 120);
  // Taps that read only padding make all-zero chains from -0.0, which end
  // +0.0 once a +0.0 product is added (conv2d.hpp): that edge is covered.
  EXPECT_GT(zero_chains, 0);
}

TEST(ConvLowering, DirectBackwardPropagatesNonFinite) {
  // The direct backward multiplies every term, +0 ones included (the
  // contract in conv2d.hpp): an Inf input under output positions whose
  // dY is +0 across every channel still poisons the dW entries that read
  // it, and a NaN dY under an all-+0 (masked) filter still reaches dX.
  const int64_t in_c = 2, out_c = 4, n = 2, plane = 6;
  Conv2d conv("c", in_c, out_c, 3, 1, 1, false);
  Rng rng(11);
  rng.fill_uniform(conv.weight().data, 0.5f, 1.5f);
  Tensor& mask = conv.weight().mask;
  for (int64_t k = 0; k < in_c * 9; ++k) mask.data()[2 * in_c * 9 + k] = 0.0f;  // filter 2
  conv.weight().apply_mask();
  Tensor x({n, in_c, plane, plane});
  rng.fill_normal(x, 0, 1);
  x(0, 1, 2, 3) = std::numeric_limits<float>::infinity();
  conv.forward(x, /*train=*/true);
  Tensor dy({n, out_c, plane, plane});
  rng.fill_normal(dy, 0, 1);
  // Every output position whose window covers input (2, 3) of sample 0.
  for (int64_t o = 0; o < out_c; ++o) {
    for (int64_t oy = 1; oy <= 3; ++oy) {
      for (int64_t ox = 2; ox <= 4; ++ox) dy(0, o, oy, ox) = 0.0f;
    }
  }
  dy(1, 2, 3, 3) = std::numeric_limits<float>::quiet_NaN();
  const Tensor dx = conv.backward(dy);

  // dW: the NaN in dY (sample 1, filter 2) poisons filter 2's row; the
  // Inf reaches every tap of input channel 1 in the other rows.
  const Tensor& dw = conv.weight().grad;
  for (int64_t o = 0; o < out_c; ++o) {
    for (int64_t k = 0; k < in_c * 9; ++k) {
      const float v = dw.data()[o * in_c * 9 + k];
      if (o == 2 || k >= 9) {
        EXPECT_TRUE(std::isnan(v)) << "dW(" << o << ", " << k << ") = " << v;
      } else {
        EXPECT_TRUE(std::isfinite(v)) << "dW(" << o << ", " << k << ") = " << v;
      }
    }
  }
  // dX: sample 1's pixels under output (3, 3) are NaN in every channel;
  // dX never reads x, so sample 0 stays finite.
  for (int64_t c = 0; c < in_c; ++c) {
    for (int64_t iy = 0; iy < plane; ++iy) {
      for (int64_t ix = 0; ix < plane; ++ix) {
        const bool under = iy >= 2 && iy <= 4 && ix >= 2 && ix <= 4;
        EXPECT_EQ(std::isnan(dx(1, c, iy, ix)), under) << "dX(1, " << c << ", " << iy << ", "
                                                       << ix << ")";
        EXPECT_TRUE(std::isfinite(dx(0, c, iy, ix)));
      }
    }
  }
}

// Runs `forward` on the whole batch and on each sample alone, and demands
// the concatenated batch-1 outputs equal the batch output bit for bit.
template <typename Forward>
void expect_batch_matches_samples(const Tensor& x, Forward&& forward, const std::string& what) {
  const Tensor batch = forward(x);
  const int64_t n = x.size(0);
  const int64_t in_numel = x.numel() / n, out_numel = batch.numel() / n;
  int64_t mismatched = 0;
  for (int64_t i = 0; i < n; ++i) {
    Shape one = x.shape();
    one[0] = 1;
    Tensor xi(one);
    std::copy(x.data() + i * in_numel, x.data() + (i + 1) * in_numel, xi.data());
    const Tensor yi = forward(xi);
    mismatched += std::memcmp(yi.data(), batch.data() + i * out_numel,
                              static_cast<size_t>(out_numel) * sizeof(float)) != 0;
  }
  EXPECT_EQ(mismatched, 0) << what << ": samples whose batch output differs from batch-1";
}

TEST(ConvLowering, BlockedForwardBitMatchesPerSampleForwards) {
  // At 32x32 a sample's column matrix is 36, 108 and 288 KiB for 1, 3 and
  // 8 input channels, so the batch stages in blocks of 7, 2 and 1 samples
  // (64 = 9*7 + 1 leaves a ragged last block) — the output may not depend
  // on where the blocks fall.
  for (const int64_t in_c : {1, 3, 8}) {
    Sequential model("m");
    model.emplace<Conv2d>("c", in_c, 6, 3, 1, 1, true);
    auto& conv = static_cast<Conv2d&>(model[0]);
    Rng rng(static_cast<uint64_t>(50 + in_c));
    kaiming_normal(conv.weight().data, rng);
    rng.fill_normal(conv.bias()->data, 0, 0.1f);
    rng.fill_bernoulli(conv.weight().mask, 0.3);
    Tensor x({64, in_c, 32, 32});
    rng.fill_normal(x, 0, 1);

    const serve::Executor csr = serve::compile(model, {in_c, 32, 32}, ExecMode::Csr);
    expect_batch_matches_samples(
        x, [&](const Tensor& in) { return csr.forward(in); },
        "csr executor, in_c " + std::to_string(in_c));

    conv.weight().apply_mask();
    expect_batch_matches_samples(
        x,
        [&](const Tensor& in) {
          const ConvGeometry g = conv_geometry("c", in, in_c, 3, 1, 1);
          return conv2d_eval(in, g, conv.weight().data.data(), 6, {conv.bias()->data.data()},
                             /*relu=*/false);
        },
        "conv2d_eval, in_c " + std::to_string(in_c));
  }
}

// The column formulation of the CSR conv, one sample at a time: im2col,
// csr_matmul and the bias add — the arithmetic, in the order, that the
// direct kernel must reproduce.
Tensor column_csr_conv(const Tensor& x, const ConvGeometry& g, const CsrMatrix& w,
                       const float* bias) {
  const int64_t n = x.size(0), spatial = g.col_cols();
  const int64_t image = g.in_c * g.in_h * g.in_w;
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * spatial));
  std::vector<float> prod(static_cast<size_t>(w.rows * spatial));
  Tensor y({n, w.rows, g.out_h(), g.out_w()});
  for (int64_t i = 0; i < n; ++i) {
    im2col_ld(g, x.data() + i * image, cols.data(), spatial);
    csr_matmul(w, cols.data(), spatial, prod.data());
    for (int64_t o = 0; o < w.rows; ++o) {
      float* dst = y.data() + (i * w.rows + o) * spatial;
      for (int64_t sp = 0; sp < spatial; ++sp) {
        const float v = prod[static_cast<size_t>(o * spatial + sp)];
        dst[sp] = bias != nullptr ? v + bias[o] : v;
      }
    }
  }
  return y;
}

// Fills t with normal values sprinkled with NaN, ±Inf and -0.0.
void fill_with_specials(Tensor& t, Rng& rng, double special_rate) {
  rng.fill_normal(t, 0, 1);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f};
  for (float& v : t.flat()) {
    if (rng.bernoulli(special_rate)) v = specials[rng.randint(4)];
  }
}

TEST(ConvLowering, DirectCsrConvBitMatchesColumnFormulation) {
  // Generated geometries: kernels 1/3/5, strides 1/2, padding up to one
  // past k/2, planes from 1 wide (a kernel overhanging the padded input)
  // to past one 16-column register tile, NaN/Inf/-0 in inputs and
  // weights, all-zero rows, with and without bias.
  Rng rng(404);
  const int64_t planes[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 17, 20};
  const double keeps[] = {0.0, 0.1, 0.5, 1.0};
  const auto pick = [&](int64_t lo, int64_t hi) { return lo + rng.randint(hi - lo + 1); };
  int64_t geometries = 0;
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t stride : {1, 2}) {
      for (int64_t pad = 0; pad <= kernel / 2 + 1; ++pad) {
        for (int draw = 0; draw < 8; ++draw) {
          const int64_t h = planes[pick(0, 10)], w = planes[pick(0, 10)];
          const ConvGeometry g{pick(1, 4), h, w, kernel, kernel, stride, pad};
          if (g.out_h() <= 0 || g.out_w() <= 0) continue;
          const int64_t out_c = pick(1, 9);
          Tensor dense({out_c, g.col_rows()});
          fill_with_specials(dense, rng, 0.02);
          const double keep = keeps[draw % 4];
          for (float& v : dense.flat()) {
            if (!rng.bernoulli(keep)) v = 0.0f;
          }
          for (int64_t c = 0; c < g.col_rows(); ++c) dense(out_c / 2, c) = 0.0f;  // empty row
          const CsrMatrix csr = csr_from_dense(dense.data(), out_c, g.col_rows());
          Tensor bias({out_c});
          fill_with_specials(bias, rng, 0.1);
          ++geometries;
          for (const int64_t n : {1, 7, 32}) {
            Tensor x({n, g.in_c, h, w});
            fill_with_specials(x, rng, 0.01);
            for (const float* b : std::array<const float*, 2>{nullptr, bias.data()}) {
              const Tensor got = conv2d_csr_eval(x, g, csr, b, /*relu=*/false);
              EXPECT_EQ(bit_mismatches(got, column_csr_conv(x, g, csr, b)), 0)
                  << "kernel " << kernel << " stride " << stride << " pad " << pad << " in "
                  << g.in_c << "x" << h << "x" << w << " out_c " << out_c << " keep " << keep
                  << " batch " << n << (b != nullptr ? " with" : " without") << " bias";
            }
          }
        }
      }
    }
  }
  EXPECT_GE(geometries, 100);
}

TEST(ConvLowering, FusedReluBitMatchesUnfused) {
  // The fused epilogue applies relu_inplace's test to the finished sum,
  // so it must equal the standalone ReLU after the unfused conv — in the
  // CSR kernel and in conv2d_eval under every bias form the Shrunk
  // executor passes it.
  Rng rng(77);
  for (const int64_t stride : {1, 2}) {
    const ConvGeometry g{5, 11, 19, 3, 3, stride, 1};
    const int64_t out_c = 8, spatial = g.col_cols();
    Tensor dense({out_c, g.col_rows()});
    fill_with_specials(dense, rng, 0.01);
    for (float& v : dense.flat()) {
      if (rng.bernoulli(0.6)) v = 0.0f;
    }
    const CsrMatrix csr = csr_from_dense(dense.data(), out_c, g.col_rows());
    Tensor bias({out_c}), plane({out_c, spatial});
    rng.fill_normal(bias, 0, 1);
    rng.fill_normal(plane, 0, 1);
    for (const int64_t n : {1, 7}) {
      Tensor x({n, g.in_c, g.in_h, g.in_w});
      fill_with_specials(x, rng, 0.01);
      for (const float* b : std::array<const float*, 2>{nullptr, bias.data()}) {
        EXPECT_TRUE(same_bits(conv2d_csr_eval(x, g, csr, b, /*relu=*/true),
                              relu(conv2d_csr_eval(x, g, csr, b, /*relu=*/false))))
            << "csr stride " << stride << " batch " << n;
      }
      for (const ConvBias b : {ConvBias{}, ConvBias{bias.data()}, ConvBias{plane.data(), true}}) {
        EXPECT_TRUE(same_bits(conv2d_eval(x, g, dense.data(), out_c, b, /*relu=*/true),
                              relu(conv2d_eval(x, g, dense.data(), out_c, b, /*relu=*/false))))
            << "dense stride " << stride << " batch " << n << " per_position "
            << b.per_position;
      }
    }
  }
}

// The column lowering of the dense eval conv, one sample at a time:
// im2col, W · cols, the bias (either form) and the ReLU — the
// arithmetic, in the order, that both of conv2d_eval's direct kernels
// must reproduce.
Tensor column_dense_conv(const Tensor& x, const ConvGeometry& g, const Tensor& w, ConvBias bias,
                         bool relu) {
  const int64_t n = x.size(0), out_c = w.size(0), spatial = g.col_cols();
  const int64_t image = g.in_c * g.in_h * g.in_w;
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * spatial));
  Tensor y({n, out_c, g.out_h(), g.out_w()});
  for (int64_t i = 0; i < n; ++i) {
    im2col_ld(g, x.data() + i * image, cols.data(), spatial);
    float* yi = y.data() + i * out_c * spatial;
    reference_product(false, false, out_c, spatial, g.col_rows(), w.data(), g.col_rows(),
                      cols.data(), spatial, 0.0f, yi, spatial);
    for (int64_t o = 0; o < out_c; ++o) {
      float* dst = yi + o * spatial;
      for (int64_t sp = 0; sp < spatial; ++sp) {
        if (bias.data != nullptr) {
          dst[sp] += bias.per_position ? bias.data[o * spatial + sp] : bias.data[o];
        }
        if (relu) dst[sp] = dst[sp] < 0.0f ? 0.0f : dst[sp];
      }
    }
  }
  return y;
}

TEST(ConvLowering, DirectDenseConvBitMatchesColumnLowering) {
  // Generated geometries: kernels 1/3/5, strides 1/2, padding up to one
  // past k/2, output planes from 1 to 40 wide, so conv2d_eval runs both
  // its narrow-plane kernel (outputs narrower than kDirectMinOutW; out
  // channels in the vector lanes) and its wide-plane direct path. Narrow
  // draws take up to 17 input channels and cycle their out channels
  // through the 8, 16 and 32-lane splits up to 40, at batches whose
  // n*oh*ow is not always a whole number of 8-position blocks. Wide draws
  // cycle their out channels through 1 to 13: every remainder of the wide
  // kernel's out-channel blocks (up to 4 channels) after none to three
  // full ones, under each bias form and ReLU. Inputs and weights are
  // finite with -0.0 sprinkled in, and whole weight columns are +0, which
  // the kernels and the reference multiply alike: the bits may not differ.
  Rng rng(2101);
  const auto pick = [&](int64_t lo, int64_t hi) { return lo + rng.randint(hi - lo + 1); };
  const auto sprinkle = [&](Tensor& t) {
    rng.fill_normal(t, 0, 1);
    for (float& v : t.flat()) {
      if (rng.bernoulli(0.03)) v = -0.0f;
    }
  };
  const int64_t splits[][2] = {{1, 8}, {9, 16}, {17, 32}, {33, 40}};
  int64_t direct = 0, narrow = 0, ragged = 0;
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t stride : {1, 2}) {
      for (int64_t pad = 0; pad <= kernel / 2 + 1; ++pad) {
        for (int draw = 0; draw < 6; ++draw) {
          const int64_t h = pick(1, 12), w = draw % 2 == 0 ? pick(1, 12) : pick(8, 40 * stride);
          ConvGeometry g{1, h, w, kernel, kernel, stride, pad};
          if (g.out_h() <= 0 || g.out_w() <= 0 || g.out_w() > 40) continue;
          const bool is_narrow = g.out_w() < kDirectMinOutW;
          const int64_t* split = splits[narrow % 4];
          g.in_c = is_narrow ? pick(1, 17) : pick(1, 4);
          const int64_t out_c = is_narrow ? pick(split[0], split[1]) : 1 + direct % 13;
          const int64_t spatial = g.col_cols();
          ++(is_narrow ? narrow : direct);
          Tensor weight({out_c, g.col_rows()});
          sprinkle(weight);
          for (int64_t c = 0; c < g.col_rows(); ++c) {
            if (rng.bernoulli(0.3)) {
              for (int64_t o = 0; o < out_c; ++o) weight(o, c) = 0.0f;
            }
          }
          Tensor bias({out_c}), plane({out_c, spatial});
          rng.fill_normal(bias, 0, 1);
          rng.fill_normal(plane, 0, 1);
          const ConvBias forms[] = {ConvBias{}, ConvBias{bias.data()},
                                    ConvBias{plane.data(), true}};
          for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{is_narrow ? 64 : 32}}) {
            ragged += is_narrow && n * spatial % 8 != 0;
            Tensor x({n, g.in_c, h, w});
            sprinkle(x);
            for (const ConvBias b : forms) {
              for (const bool relu : {false, true}) {
                const Tensor got = conv2d_eval(x, g, weight.data(), out_c, b, relu);
                const char* form = b.data == nullptr ? "none"
                                   : b.per_position  ? "plane"
                                                     : "channel";
                EXPECT_EQ(bit_mismatches(got, column_dense_conv(x, g, weight, b, relu)), 0)
                    << "kernel " << kernel << " stride " << stride << " pad " << pad << " in "
                    << g.in_c << "x" << h << "x" << w << " out_c " << out_c << " batch " << n
                    << " bias " << form << " relu " << relu;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GE(direct, 40);
  EXPECT_GE(narrow, 30);
  EXPECT_GE(ragged, 30);
}

TEST(ConvLowering, DenseDirectPathMultipliesZeroTaps) {
  // The dense baseline takes every tap: a +0 weight times an Inf input is
  // NaN, so it must poison the outputs that read the Inf through it. The
  // center tap of input channel 1 is +0 in every row (as a pruned and
  // masked column is), and every other weight is nonzero, so output
  // (c, c) reads input (1, c, c) only through that zero tap. A 10x10
  // plane runs the wide-plane direct path; 4x4 and 2x2 planes run the
  // narrow-plane kernel, whose positions span samples, so the clean
  // second sample must stay finite.
  for (const int64_t plane : {10, 4, 2}) {
    const ConvGeometry g{2, plane, plane, 3, 3, 1, 1};
    const int64_t out_c = 4, center = 1 * 9 + 4, c = plane / 2;
    Sequential model("m");
    model.emplace<Conv2d>("c", 2, out_c, 3, 1, 1, false);
    auto& conv = static_cast<Conv2d&>(model[0]);
    Tensor& w = conv.weight().data;
    Rng rng(5);
    rng.fill_uniform(w, 0.5f, 1.5f);
    Tensor& mask = conv.weight().mask;
    for (int64_t o = 0; o < out_c; ++o) mask.data()[o * g.col_rows() + center] = 0.0f;
    conv.weight().apply_mask();

    Tensor x({2, 2, plane, plane});
    rng.fill_normal(x, 0, 1);
    x(0, 1, c, c) = std::numeric_limits<float>::infinity();
    const serve::Executor dense = serve::compile(model, {2, plane, plane}, ExecMode::Dense);
    const Tensor outs[] = {conv2d_eval(x, g, w.data(), out_c, {}, /*relu=*/false),
                           dense.forward(x)};
    for (const Tensor& y : outs) {
      for (int64_t o = 0; o < out_c; ++o) {
        EXPECT_TRUE(std::isnan(y(0, o, c, c)))
            << plane << "x" << plane << " channel " << o << ": " << y(0, o, c, c);
        if (c >= 2) {
          EXPECT_TRUE(std::isfinite(y(0, o, 0, 0))) << "channel " << o;
        }
        for (int64_t sp = 0; sp < plane * plane; ++sp) {
          EXPECT_TRUE(std::isfinite(y(1, o, sp / plane, sp % plane)))
              << plane << "x" << plane << " sample 1 channel " << o << " at " << sp;
        }
      }
    }
  }
}

// ---- dynamic batcher ----

ModelPtr tiny_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("tiny");
  m->emplace<Linear>("fc", 8, 4);
  init_model(*m, rng);
  return m;
}

Tensor random_sample(Rng& rng) {
  Tensor s({8});
  rng.fill_normal(s, 0, 1);
  return s;
}

TEST(ServeBatcher, RequestsQueuedWhileBusyFormOneBatch) {
  Rng rng(3);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  // The first batch holds the only worker for 25 ms; whatever it took,
  // the rest of the 5 requests queue meanwhile and fit one batch of 4.
  obs::set_fault_spec("serve.worker_stall:1");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 5; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  server.shutdown();
  obs::set_fault_spec("");
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 5);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.batches, 2);  // the stalled batch, then everything queued behind it
}

TEST(ServeBatcher, IdleWorkerDispatchesALoneRequestAtOnce) {
  Rng rng(4);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 64;  // never reached: nothing may wait for it to fill
  InferenceServer server(exec, opts);
  for (int i = 0; i < 20; ++i) {
    std::future<Tensor> fut = server.submit(random_sample(rng));
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(fut.get().shape(), (Shape{4}));
  }
  // Futures are fulfilled before the worker's stats update lands, so
  // quiesce (shutdown joins the workers) before reading counters.
  server.shutdown();
  const auto snap = obs::Profiler::instance().snapshot();
  obs::Profiler::instance().reset();
  obs::set_profiling_enabled(false);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 20);
  EXPECT_EQ(st.batches, 20);  // sequential requests: each one its own batch
  // A tiny linear forward takes microseconds; a batcher that waited for
  // company would put the median at its timer instead.
  EXPECT_LT(snap.histograms.at("serve.latency_us").p50, 1000.0);
  EXPECT_EQ(snap.histograms.at("serve.queue_wait_us").count, 20);
  EXPECT_EQ(snap.histograms.at("serve.exec_us").count, 20);
}

TEST(ServeBatcher, DrainOnShutdownLosesZeroRequests) {
  Rng rng(6);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 3;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 40; ++i) futs.push_back(server.submit(random_sample(rng)));
  server.shutdown();  // returns only after the queue is fully drained
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 40);
  EXPECT_EQ(st.completed, 40);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.rejected, 0);

  // Late submissions are rejected, not silently dropped.
  EXPECT_FALSE(server.accepting());
  EXPECT_THROW(server.submit(random_sample(rng)), std::runtime_error);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(ServeBatcher, SingleRequestBitMatchesExecutor) {
  Rng rng(8);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // server must form exactly the same batch-of-1
  InferenceServer server(exec, opts);
  const Tensor s = random_sample(rng);
  std::future<Tensor> fut = server.submit(s.clone());
  Tensor batch({1, 8});
  std::copy(s.data(), s.data() + 8, batch.data());
  const Tensor y = exec.forward(batch);
  Tensor expect({4});
  std::copy(y.data(), y.data() + 4, expect.data());
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_TRUE(ops::allclose(fut.get(), expect, 0, 0));
}

TEST(ServeBatcher, SubmitRejectsWrongSampleShape) {
  Rng rng(10);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  InferenceServer server(exec, ServerOptions{});
  Tensor bad({4});
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);
}

TEST(ServeBatcher, OptionsAreValidated) {
  Rng rng(11);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 0;
  EXPECT_THROW(InferenceServer(exec, opts), std::invalid_argument);
}

}  // namespace
}  // namespace shrinkbench
