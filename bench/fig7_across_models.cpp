// Figure 7: "Top-1 Accuracy on CIFAR-10 for several compression ratios" for
// CIFAR-VGG and ResNet-56, five baseline methods, three random seeds with
// sample standard deviations.
//
// Pitfalls demonstrated (paper §7.3, "Results Vary Across Models, Datasets,
// and Pruning Amounts"): method rankings flip between architectures and
// between compression regimes; seeds matter near the accuracy cliff.
#include <cstdio>

#include "bench_common.hpp"

using namespace shrinkbench;
using namespace shrinkbench::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  std::printf("=== Figure 7: results vary across models (CIFAR-VGG & ResNet-56) ===\n\n");

  ExperimentRunner runner(args.cache_dir);
  const std::vector<std::string> strategies = {"global-weight", "layer-weight",
                                               "global-gradient", "layer-gradient", "random"};
  const std::vector<double> ratios = {1, 2, 4, 8, 16, 32};
  const std::vector<uint64_t> seeds = {1, 2, 3};  // error bars are the point

  BenchStatus status;
  std::map<std::string, std::map<std::string, std::vector<AggregatePoint>>> per_model;
  for (const std::string& arch : {std::string("cifar-vgg"), std::string("resnet-56")}) {
    ExperimentConfig base;
    base.dataset = "synth-cifar10";
    base.arch = arch;
    base.width = 8;
    base.pretrain = bench_pretrain(args.full);
    base.finetune = bench_cifar_finetune(args.full);

    SweepSummary summary;
    const auto results = run_sweep(runner, base, strategies, ratios, seeds,
                                   sweep_options(args, "fig7_" + arch), &summary);
    status.add(summary);
    save_results(args, "fig7_" + arch, results);
    if (summary.interrupted) return status.finish();
    const auto agg = aggregate_by_strategy(results);
    per_model[arch] = agg;
    print_tradeoff_table(agg, arch + " on synth-cifar10 (3 seeds, mean +/- std):");
    std::printf("%s\n",
                tradeoff_chart(agg, XAxis::Compression, arch + " — accuracy vs compression")
                    .c_str());
  }

  // Shape checks from the figure's caption.
  const auto mean_at = [](const std::vector<AggregatePoint>& pts, double target) {
    for (const auto& p : pts) {
      if (p.target == target) return p.top1_mean;
    }
    return 0.0;
  };
  std::printf("Shape checks:\n");
  for (const auto& [arch, agg] : per_model) {
    const double rand16 = mean_at(agg.at("random"), 16);
    const double gw16 = mean_at(agg.at("global-weight"), 16);
    std::printf("  %s: global-weight %.4f vs random %.4f at 16x (expect magnitude >> random)\n",
                arch.c_str(), gw16, rand16);
  }
  const double vgg_gg = mean_at(per_model["cifar-vgg"].at("global-gradient"), 4);
  const double vgg_lw = mean_at(per_model["cifar-vgg"].at("layer-weight"), 4);
  const double r56_gg = mean_at(per_model["resnet-56"].at("global-gradient"), 4);
  const double r56_lw = mean_at(per_model["resnet-56"].at("layer-weight"), 4);
  std::printf("  rank flip check at 4x: (GlobalGradient - LayerWeight) = %+.4f on cifar-vgg vs "
              "%+.4f on resnet-56\n",
              vgg_gg - vgg_lw, r56_gg - r56_lw);
  std::printf("  (paper: Global Gradient beats Layerwise Magnitude on CIFAR-VGG but not on "
              "ResNet-56)\n");

  // Seed-variance blowup near the cliff.
  double max_std = 0, max_std_ratio = 0;
  std::string max_std_strategy;
  for (const auto& [arch, agg] : per_model) {
    for (const auto& [strategy, pts] : agg) {
      for (const auto& p : pts) {
        if (p.top1_std > max_std) {
          max_std = p.top1_std;
          max_std_ratio = p.target;
          max_std_strategy = arch + "/" + strategy;
        }
      }
    }
  }
  std::printf("  largest seed stddev: %.4f at %s x%.0f (paper: gradient methods near the\n"
              "  drop-off point are minibatch-sensitive)\n",
              max_std, max_std_strategy.c_str(), max_std_ratio);
  return status.finish();
}
