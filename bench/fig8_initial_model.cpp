// Figure 8: "Global and Layerwise Magnitude Pruning on two different
// ResNet-56 models."
//
// Weights A and Weights B are two pretrained models of the *same*
// architecture on the *same* data, differing only in training recipe
// (paper Appendix: Adam with lr 1e-3 vs 1e-4). The pitfall (§7.3, "Using
// the Same Initial Model is Essential"): different initial models yield
// different tradeoff curves, and reporting *changes* in accuracy does not
// fix it — Layerwise-on-B can appear to beat Global-on-A even though
// Global wins whenever the initial model is held constant.
#include <cstdio>

#include "bench_common.hpp"

using namespace shrinkbench;
using namespace shrinkbench::bench;

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  std::printf("=== Figure 8: the initial model is a confounder (ResNet-56, two pretrains) ===\n\n");

  ExperimentRunner runner(args.cache_dir);
  const std::vector<double> ratios = {1, 2, 4, 8, 16, 32, 64};

  struct Variant {
    std::string tag;
    float lr;
  };
  // Paper: Adam until convergence at 1e-3 (Weights A) vs 1e-3-annealed (Weights B).
  // Our scaled recipe anneals from 10x-apart initial rates; both converge,
  // to different optima — which is the entire point of the experiment.
  const Variant variants[] = {{"weightsA-adam3e-3", 3e-3f}, {"weightsB-adam1e-3", 1e-3f}};
  const auto pretty = [](const std::string& tag, const std::string& strategy) {
    const std::string which = tag.find("3e-3") != std::string::npos ? "A" : "B";
    return (strategy == "global-weight" ? std::string("Global ") : std::string("Layer ")) + which;
  };

  std::map<std::string, std::vector<ExperimentResult>> runs;  // pretty name -> results
  std::map<std::string, double> initial_top1;                 // "A"/"B"
  std::vector<ExperimentResult> all;
  for (const Variant& v : variants) {
    for (const std::string& strategy :
         {std::string("global-weight"), std::string("layer-weight")}) {
      ExperimentConfig cfg;
      cfg.dataset = "synth-cifar10";
      cfg.arch = "resnet-56";
      cfg.width = 8;
      cfg.pretrain = bench_pretrain(args.full);
      cfg.pretrain.optimizer = OptimizerKind::Adam;
      cfg.pretrain.lr = v.lr;
      cfg.pretrain_tag = v.tag;
      cfg.finetune = bench_cifar_finetune(args.full);
      cfg.strategy = strategy;
      for (const double ratio : ratios) {
        cfg.target_compression = ratio;
        const ExperimentResult r = runner.run(cfg);
        runs[pretty(v.tag, strategy)].push_back(r);
        all.push_back(r);
        initial_top1[v.tag.find("3e-3") != std::string::npos ? "A" : "B"] = r.pre_top1;
        std::fprintf(stderr, "[fig8] %s %s x%.0f -> top1 %.4f (pre %.4f)\n", v.tag.c_str(),
                     strategy.c_str(), ratio, r.post_top1, r.pre_top1);
      }
    }
  }

  std::printf("Initial models: Weights A (Adam 3e-3, cosine) top1 %.4f; Weights B (Adam 1e-3, cosine) top1 %.4f\n\n",
              initial_top1["A"], initial_top1["B"]);

  report::Table table({"curve", "target", "compression", "top1 (absolute)", "dTop1 (relative)"});
  std::vector<report::Series> abs_series, rel_series;
  for (const auto& [label, results] : runs) {
    report::Series as{label, {}, {}}, rs{label, {}, {}};
    for (const auto& r : results) {
      table.add_row({label, report::Table::num(r.config.target_compression, 0),
                     report::Table::num(r.compression, 2), report::Table::num(r.post_top1, 4),
                     report::Table::num(r.post_top1 - r.pre_top1, 4)});
      as.x.push_back(r.compression);
      as.y.push_back(r.post_top1);
      rs.x.push_back(r.compression);
      rs.y.push_back(r.post_top1 - r.pre_top1);
    }
    abs_series.push_back(std::move(as));
    rel_series.push_back(std::move(rs));
  }
  std::printf("%s\n", table.render().c_str());

  report::ChartOptions opts;
  opts.log_x = true;
  opts.x_label = "Compression Ratio";
  opts.title = "Absolute accuracy";
  std::printf("%s\n", report::render_chart(abs_series, opts).c_str());
  opts.title = "Relative accuracy (change vs own initial model)";
  std::printf("%s\n", report::render_chart(rel_series, opts).c_str());
  save_results(args, "fig8_initial_model", all);

  // The confounding check: does Layer-on-one-model ever appear better than
  // Global-on-the-other at matched compression, even though Global wins
  // within each model?
  const auto& globalA = runs[pretty("weightsA-adam3e-3", "global-weight")];
  const auto& layerB = runs[pretty("weightsB-adam1e-3", "layer-weight")];
  int confounded = 0, within_model_global_wins = 0, points = 0;
  for (size_t i = 0; i < ratios.size(); ++i) {
    const double d_layerB = layerB[i].post_top1 - layerB[i].pre_top1;
    const double d_globalA = globalA[i].post_top1 - globalA[i].pre_top1;
    if (ratios[i] >= 8) {
      ++points;
      confounded += d_layerB > d_globalA;
      const auto& layerA = runs[pretty("weightsA-adam3e-3", "layer-weight")];
      within_model_global_wins += globalA[i].post_top1 >= layerA[i].post_top1;
    }
  }
  std::printf("At compression >= 8 (%d points):\n", points);
  std::printf("  dAccuracy(Layer on B) > dAccuracy(Global on A) at %d points — the apparent\n"
              "  ranking flip the paper warns about when initial models differ\n",
              confounded);
  std::printf("  Global beats Layer within Weights A at %d points — the true ordering\n",
              within_model_global_wins);
  return 0;
}
