// Microbenchmarks (google-benchmark) for the primitives everything else is
// built on: the Linear step, im2col lowering, conv forward/backward, batchnorm,
// scoring, mask allocation, and full prune_model calls. Includes the
// mask-enforcement ablation called out in DESIGN.md: how much does
// re-applying masks after every optimizer step cost?
#include <benchmark/benchmark.h>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"
#include "tensor/threadpool.hpp"

namespace sb = shrinkbench;

namespace {

// One Linear training step, forward plus backward: args in features,
// out features, batch. cifar-vgg's fc1 (512 -> 32) and LeNet-300-100's
// fc1 (784 -> 300) at batch 64.
void BM_LinearStep(benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1), batch = state.range(2);
  sb::Linear fc("fc", in, out);
  sb::Rng rng(1);
  sb::kaiming_normal(fc.weight().data, rng);
  sb::Tensor x({batch, in}), dy({batch, out});
  rng.fill_normal(x, 0, 1);
  rng.fill_normal(dy, 0, 1);
  for (auto _ : state) {
    fc.forward(x, true);
    sb::Tensor dx = fc.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * batch * in * out);
}
BENCHMARK(BM_LinearStep)->Args({512, 32, 64})->Args({784, 300, 64});

void BM_Im2col(benchmark::State& state) {
  const sb::ConvGeometry g{16, 12, 12, 3, 3, 1, 1};
  sb::Rng rng(2);
  sb::Tensor img({g.in_c, g.in_h, g.in_w});
  rng.fill_normal(img, 0, 1);
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    sb::im2col(g, img.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

// The conv benches' args: in channels, out channels, square input plane,
// batch, stride (3×3 kernel, padding 1). 16 ch 8×8 at batch 32 is the
// long-standing case; the batch-64 ones are resnet-20's training convs at
// the synthetic-CIFAR resolution: the stem, the three stages, and the
// stride-2 stage entry. The 4×4 and 2×2 planes, and the 4×4 output of the
// stride-2 entry, run the narrow-plane forward.
void conv_args(benchmark::internal::Benchmark* b) {
  b->Args({16, 16, 8, 32, 1})
      ->Args({3, 8, 8, 64, 1})
      ->Args({8, 8, 8, 64, 1})
      ->Args({8, 16, 8, 64, 2})
      ->Args({16, 16, 4, 64, 1})
      ->Args({32, 32, 2, 64, 1});
}

void BM_ConvForward(benchmark::State& state) {
  const int64_t in_c = state.range(0), out_c = state.range(1), plane = state.range(2);
  const int64_t batch = state.range(3), stride = state.range(4);
  sb::Conv2d conv("c", in_c, out_c, 3, stride, 1, false);
  sb::Rng rng(3);
  sb::kaiming_normal(conv.weight().data, rng);
  sb::Tensor x({batch, in_c, plane, plane});
  rng.fill_normal(x, 0, 1);
  for (auto _ : state) {
    sb::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.flops({in_c, plane, plane}) * batch);
}
// Plus the wide planes of the serving benchmark's cifar-vgg convs at
// batch 32 (8 channels on 32x32, 16 on 16x16), which the direct kernel's
// out-channel blocks run.
BENCHMARK(BM_ConvForward)
    ->Apply(conv_args)
    ->Args({8, 8, 32, 32, 1})
    ->Args({16, 16, 16, 32, 1});

// Conv forward across (batch × pool width): the fused (sample ×
// out-channel-tile) grid must scale with threads even at batch 1, where
// the old per-sample split starved the pool — the batch axis tracks
// exactly that small-batch starvation.
void BM_ConvForwardMT(benchmark::State& state) {
  sb::ThreadPool& pool = sb::ThreadPool::instance();
  const int original = pool.threads();
  const int64_t batch = state.range(0);
  pool.set_threads(static_cast<int>(state.range(1)));
  sb::Conv2d conv("c", 16, 16, 3, 1, 1, false);
  sb::Rng rng(3);
  sb::kaiming_normal(conv.weight().data, rng);
  sb::Tensor x({batch, 16, 8, 8});
  rng.fill_normal(x, 0, 1);
  for (auto _ : state) {
    sb::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.flops({16, 8, 8}) * batch);
  pool.set_threads(original);
}
BENCHMARK(BM_ConvForwardMT)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->UseRealTime();

// Forward plus backward, on conv_args.
void BM_ConvBackward(benchmark::State& state) {
  const int64_t in_c = state.range(0), out_c = state.range(1), plane = state.range(2);
  const int64_t batch = state.range(3), stride = state.range(4);
  sb::Conv2d conv("c", in_c, out_c, 3, stride, 1, false);
  sb::Rng rng(4);
  sb::kaiming_normal(conv.weight().data, rng);
  sb::Tensor x({batch, in_c, plane, plane});
  rng.fill_normal(x, 0, 1);
  const sb::Tensor y = conv.forward(x, true);
  sb::Tensor dy(y.shape());
  rng.fill_normal(dy, 0, 1);
  for (auto _ : state) {
    conv.forward(x, true);
    sb::Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward)->Apply(conv_args);

// cifar-vgg's first 2x2 max pool at batch 32 (kernel 2, stride 2: the
// row loop), eval mode.
void BM_MaxPool(benchmark::State& state) {
  sb::Rng rng(6);
  sb::Tensor x({32, 8, 32, 32});
  rng.fill_normal(x, 0, 1);
  for (auto _ : state) {
    sb::Tensor y = sb::max_pool2d("pool", x, 2, 2);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPool);

void BM_BatchNormForward(benchmark::State& state) {
  sb::BatchNorm2d bn("bn", 32);
  sb::Rng rng(5);
  sb::Tensor x({64, 32, 8, 8});
  rng.fill_normal(x, 0, 1);
  for (auto _ : state) {
    sb::Tensor y = bn.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_ScoreMagnitude(benchmark::State& state) {
  sb::Parameter p("w", {512, 256}, true);
  sb::Rng rng(6);
  rng.fill_normal(p.data, 0, 1);
  for (auto _ : state) {
    sb::Tensor s = sb::score_parameter(sb::ScoreKind::Magnitude, p, {}, rng);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * p.numel());
}
BENCHMARK(BM_ScoreMagnitude);

void BM_AllocateGlobal(benchmark::State& state) {
  sb::Rng rng(7);
  sb::Parameter p1("a", {512, 256}, true), p2("b", {1024, 128}, true);
  rng.fill_normal(p1.data, 0, 1);
  rng.fill_normal(p2.data, 0, 1);
  for (auto _ : state) {
    std::vector<sb::ScoredParam> scored;
    scored.push_back({&p1, sb::score_parameter(sb::ScoreKind::Magnitude, p1, {}, rng)});
    scored.push_back({&p2, sb::score_parameter(sb::ScoreKind::Magnitude, p2, {}, rng)});
    benchmark::DoNotOptimize(
        sb::allocate_masks(scored, sb::AllocationScope::Global, sb::Structure::Unstructured,
                           0.25));
  }
  state.SetItemsProcessed(state.iterations() * (p1.numel() + p2.numel()));
}
BENCHMARK(BM_AllocateGlobal);

void BM_PruneResNet20(benchmark::State& state) {
  auto bundle = sb::make_synthetic(sb::synth_cifar());
  auto model = sb::make_model("resnet-20", bundle.train.sample_shape(), 10, 8);
  sb::Rng init(1);
  sb::init_model(*model, init);
  sb::Rng rng(2);
  const auto strategy = sb::strategy_from_name("global-weight");
  for (auto _ : state) {
    sb::prune_model(*model, strategy, 0.25, bundle.train, {}, rng);
    benchmark::DoNotOptimize(model.get());
    state.PauseTiming();
    for (sb::Parameter* p : sb::parameters_of(*model)) p->mask.fill(1.0f);  // reset
    state.ResumeTiming();
  }
}
BENCHMARK(BM_PruneResNet20);

// Ablation: mask re-application cost inside the optimizer step. The
// invariant "pruned weights stay zero" is enforced every step; this
// measures its price relative to the bare update.
void BM_SgdStep(benchmark::State& state) {
  const bool with_mask_overhead = state.range(0) != 0;
  auto bundle = sb::make_synthetic(sb::synth_cifar());
  auto model = sb::make_model("resnet-20", bundle.train.sample_shape(), 10, 8);
  sb::Rng init(1);
  sb::init_model(*model, init);
  auto params = sb::parameters_of(*model);
  if (with_mask_overhead) {
    sb::Rng rng(2);
    sb::prune_model(*model, sb::strategy_from_name("global-weight"), 0.25, bundle.train, {}, rng);
  }
  sb::SGD opt(params, {.lr = 1e-3f, .momentum = 0.9f});
  for (sb::Parameter* p : params) p->grad.fill(1e-4f);
  for (auto _ : state) {
    opt.step();  // step() always re-applies masks; arg toggles mask density
    benchmark::DoNotOptimize(params.data());
  }
}
BENCHMARK(BM_SgdStep)->Arg(0)->Arg(1);

}  // namespace

// Custom main so every report (and BENCH_perf.json derived from the JSON
// output; see bench/check_regression.cpp) records the build's SIMD tier.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("simd", sb::simd::level_name(sb::simd::active_level()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
