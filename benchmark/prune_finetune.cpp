// prune_finetune: cold grid points of the paper's Algorithm 1 through
// run_sweep — load the pretrained cifar-vgg, evaluate, prune one-shot,
// fine-tune, evaluate, cache the row — with default SweepOptions plus the
// incremental CSV the benches stream rows into. The grid is
// {global-weight, layer-weight, global-gradient, global-fisher, random} x
// compression {2, 4, 8} x run seeds, walked one point per run_sweep call so
// every point is timed; the 20-epoch pretrain happens in set-up. Points cost
// within about 10% of each other whatever the strategy or compression, so
// the window's median does not depend on where in the grid it stops.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/metrics.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "probe_trainer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace sbbench {

using namespace shrinkbench;

namespace {

const std::vector<std::string> kStrategies = {"global-weight", "layer-weight", "global-gradient",
                                              "global-fisher", "random"};
const std::vector<double> kCompressions = {2.0, 4.0, 8.0};
constexpr int kSetupReps = 3;
constexpr int kProbeWarmupSteps = 2;
constexpr int kProbeSteps = 16;

ExperimentConfig base_config(uint64_t seed) {
  ExperimentConfig c;
  c.dataset = "synth-cifar10";
  c.data_seed = derive_seed(seed, 1);
  c.arch = "cifar-vgg";
  c.init_seed = derive_seed(seed, 2);
  c.pretrain_tag = "benchmark";
  c.pretrain = default_pretrain_options();
  c.pretrain.epochs = 20;
  // The benches' quick fine-tune: 4 fixed epochs.
  c.finetune = cifar_finetune_options();
  c.finetune.epochs = 4;
  c.finetune.patience = 0;
  return c;
}

const char* layer_kind(Layer& layer) {
  if (dynamic_cast<Conv2d*>(&layer)) return "conv";
  if (dynamic_cast<BatchNorm2d*>(&layer)) return "bn";
  if (dynamic_cast<ReLU*>(&layer)) return "relu";
  if (dynamic_cast<MaxPool2d*>(&layer)) return "pool";
  if (dynamic_cast<Linear*>(&layer)) return "linear";
  return nullptr;  // flatten: a reshape, not a layer kind the ledger tracks
}

/// Runs one strategy x compression cycle of the grid twice over, in
/// pairs: each point once through run_sweep and once by hand through the
/// public calls ExperimentRunner::run makes, with a span around each phase.
/// Pairing puts a slow phase of the host on both sides of a ratio; each
/// share is the median over pairs of the part's time over the run_sweep
/// point's. Then drives fine-tuning steps on a pruned model with a span
/// around every layer.
void probe_layers(Report& report, ExperimentRunner& runner, const ExperimentConfig& base,
                  SweepOptions sweep, const std::filesystem::path& work) {
  const DatasetBundle& bundle = runner.dataset(base.dataset, base.data_seed);
  sweep.append = true;
  std::map<std::string, std::vector<double>> shares;
  std::vector<double> point_s;
  int index = 0;
  for (const double compression : kCompressions) {
    for (const std::string& strategy : kStrategies) {
      const auto before = spans::totals();
      spans::set_recording(true);
      {
        spans::Span span("core.run_sweep");
        const uint64_t run_seed = derive_seed(base.init_seed, 1000 + static_cast<uint64_t>(index));
        run_sweep(runner, base, {strategy}, {compression}, {run_seed}, sweep);
      }
      ModelPtr model;
      {
        spans::Span span("core.pretrained_load");
        model = runner.pretrained(base);
      }
      {
        spans::Span span("metrics.eval");
        evaluate(*model, bundle.test, base.finetune.batch_size);
      }
      Rng rng(derive_seed(base.init_seed, 5));
      const double keep = fraction_for_compression(*model, compression, base.prune);
      const std::string prune_name = "core.prune." + strategy;
      {
        spans::Span span(prune_name.c_str());
        prune_model(*model, strategy_from_name(strategy), keep, bundle.train, base.prune, rng);
      }
      {
        spans::Span span("core.finetune");
        TrainOptions ft = base.finetune;
        // A directory per point: train_model resumes from any checkpoint
        // it finds in its directory.
        ft.checkpoint_dir = (work / "probe_ckpt" / std::to_string(index++)).string();
        train_model(*model, bundle, ft);
      }
      {
        spans::Span span("metrics.eval");
        evaluate(*model, bundle.test, base.finetune.batch_size);
      }
      spans::set_recording(false);

      std::map<std::string, double> took = spans::seconds_since(before);
      const double sweep_s = took["core.run_sweep"];
      point_s.push_back(sweep_s);
      double parts = 0.0;
      for (const std::string name :
           {"core.pretrained_load", "metrics.eval", prune_name.c_str(), "core.finetune"}) {
        shares[name].push_back(took[name] / sweep_s);
        parts += took[name];
      }
      shares["core.point_overhead"].push_back((sweep_s - parts) / sweep_s);
    }
  }
  for (const auto& [name, v] : shares) report.metric(name, median(v), "fraction");
  const double point = median(point_s);
  report.note("ms.core.run_sweep", point * 1e3);

  // Fine-tuning steps on the grid's middle point (global magnitude at
  // compression 4), one span per leaf layer; shares of the median point.
  ModelPtr model = runner.pretrained(base);
  Rng rng(derive_seed(base.init_seed, 5));
  prune_model(*model, strategy_from_name("global-weight"),
              fraction_for_compression(*model, 4.0, base.prune), bundle.train, base.prune, rng);
  ProbeTrainer trainer(*model, bundle.train, base.finetune, derive_seed(base.init_seed, 6),
                       [](const std::string& child) { return child; });
  const auto before = spans::totals();
  for (int step = 0; step < kProbeWarmupSteps + kProbeSteps; ++step) {
    spans::set_recording(step >= kProbeWarmupSteps);
    report.check(trainer.step(), "probe fine-tune loss and gradients are finite");
  }
  spans::set_recording(false);

  std::map<std::string, double> took = spans::seconds_since(before);
  const double steps_per_point =
      static_cast<double>(trainer.batches_per_epoch()) * base.finetune.epochs;
  std::map<std::string, double> kind_s;
  for (size_t i = 0; i < model->size(); ++i) {
    const char* kind = layer_kind((*model)[i]);
    if (!kind) continue;
    const std::string& fwd = trainer.fwd_span(i);
    const std::string& bwd = trainer.bwd_span(i);
    const double f = took[fwd] / kProbeSteps, b = took[bwd] / kProbeSteps;
    kind_s[std::string("nn.fwd.") + kind] += f;
    kind_s[std::string("nn.bwd.") + kind] += b;
    if (std::string(kind) == "conv") {
      report.metric(fwd, f * steps_per_point / point, "fraction");
      report.metric(bwd, b * steps_per_point / point, "fraction");
    }
  }
  for (const auto& [name, s] : kind_s) {
    report.metric(name, s * steps_per_point / point, "fraction");
    report.note("us_per_step." + name, s * 1e6);
  }
  const FlopCounts flops = count_flops(*model, bundle.train.sample_shape());
  report.note("fwd_gmacs_effective_per_step",
              static_cast<double>(flops.effective) * base.finetune.batch_size / 1e9);
}

}  // namespace

Report run_prune_finetune(const Args& args, const std::filesystem::path& work) {
  Report report;
  const ExperimentConfig base = base_config(args.seed);
  std::unique_ptr<ExperimentRunner> runner;
  int rep = 0;
  const std::vector<double> setup_s = time_setup(kSetupReps, [&] {
    // A fresh cache each time, so every repetition pretrains.
    runner = std::make_unique<ExperimentRunner>((work / ("cache" + std::to_string(rep++))).string());
    runner->pretrained(base);
  });

  SweepOptions sweep;
  sweep.csv_path = (work / "sweep.csv").string();
  std::vector<ExperimentResult> rows;
  const size_t cells = kStrategies.size() * kCompressions.size();
  Window w = run_window(args.seconds, args.trace, "op.run_sweep", [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    const std::string& strategy = kStrategies[k % kStrategies.size()];
    const double compression = kCompressions[(k / kStrategies.size()) % kCompressions.size()];
    const uint64_t run_seed = derive_seed(args.seed, 10 + k / cells);
    sweep.append = i > 0;
    SweepSummary summary;
    std::vector<ExperimentResult> out =
        run_sweep(*runner, base, {strategy}, {compression}, {run_seed}, sweep, &summary);
    const bool ok = summary.failures == 0 && out.size() == 1;
    rows.insert(rows.end(), out.begin(), out.end());
    return ok;
  });
  report_end_to_end(report, setup_s, {w});

  double top1_sum = 0.0, gmacs_sum = 0.0;
  const DatasetBundle& bundle = runner->dataset(base.dataset, base.data_seed);
  for (const ExperimentResult& r : rows) {
    report.check(!r.failed, "sweep row " + r.config.strategy + " ok: " + r.error);
    report.check(!r.from_cache, "sweep row computed, not served from the result cache");
    report.check(std::abs(r.compression / r.config.target_compression - 1.0) <= 0.01,
                 "achieved compression within 1% of target for " + r.config.strategy);
    report.check(std::isfinite(r.post_top1), "post-prune top1 is finite");
    top1_sum += r.post_top1;
    // Pre-evaluation on the dense model; fine-tune forward + backward over
    // train and forward over val each epoch; post-evaluation; all on the
    // pruned model's effective multiply-adds.
    const double dense = static_cast<double>(r.flops_dense);
    const double eff = static_cast<double>(r.flops_effective);
    gmacs_sum += (dense * bundle.test.size() +
                  r.finetune_epochs * (3.0 * eff * bundle.train.size() + eff * bundle.val.size()) +
                  eff * bundle.test.size()) /
                 1e9;
  }
  const double rows_n = static_cast<double>(rows.size());
  const double mean_top1 = rows.empty() ? 0.0 : top1_sum / rows_n;
  report.note("top1", mean_top1);
  report.check(mean_top1 >= 2.0 / bundle.train.num_classes,
               "mean post-prune top1 is at least twice chance");

  if (args.trace) {
    report_common_layers(report, {w}, rows.empty() ? 0.0 : gmacs_sum / rows_n);
    probe_layers(report, *runner, base, sweep, work);
  }
  return report;
}

}  // namespace sbbench
