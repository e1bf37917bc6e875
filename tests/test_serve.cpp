// Serving engine tests: compiler parity against the eval-mode model
// (including the shrunk executor's compact layouts across architectures,
// keep fractions and input sizes), NaN propagation, input rejection
// shared with the eager layers, dynamic-batcher semantics
// (max-wait flush, full-batch flush, lossless drain), parallel CSR matmul
// determinism, and steady-state zero arena growth in every exec mode.
//
// Registered in CMake under SB_THREADS={1,2,4} as well as the default, so
// every parity assertion here doubles as a determinism check: compiled
// executors must produce the same bits at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
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

TEST(ServeBatcher, FullBatchFlushesWithoutWaitingForTheTimer) {
  Rng rng(3);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 10'000'000;  // 10 s: only a full batch can flush fast
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "full batch did not flush before the max-wait timer";
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 4);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.batches, 1);  // one full batch, not four timer flushes
}

TEST(ServeBatcher, MaxWaitFlushesPartialBatch) {
  Rng rng(4);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 64;       // never reached by 3 requests...
  opts.max_wait_us = 20'000; // ...so only the 20 ms timer can flush them
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit(random_sample(rng)));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "partial batch never flushed on max-wait";
    EXPECT_EQ(f.get().shape(), (Shape{4}));
  }
  // Futures are fulfilled before the worker's stats update lands, so
  // quiesce (shutdown joins the workers) before reading counters.
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 3);
  EXPECT_EQ(st.failed, 0);
}

TEST(ServeBatcher, DrainOnShutdownLosesZeroRequests) {
  Rng rng(6);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 3;
  opts.max_wait_us = 60'000'000;  // 60 s: a lossy drain would visibly hang
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
