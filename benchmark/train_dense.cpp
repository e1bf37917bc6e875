// train_dense: cold PretrainedStore::get of resnet-20 on synth-cifar10 —
// what a user pays before any pruning can start. The operation is one cold
// get under the default pretraining recipe (Adam, cosine schedule, fixed
// epochs, per-epoch training checkpoints) shortened to kGetEpochs epochs so
// a window holds about ten of them; each get uses a fresh init seed, so
// none is served from the store.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/pretrained.hpp"
#include "metrics/metrics.hpp"
#include "nn/checkpoint.hpp"
#include "nn/init.hpp"
#include "probe_trainer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace sbbench {

using namespace shrinkbench;

namespace {

constexpr const char* kArch = "resnet-20";
constexpr int kGetEpochs = 3;
constexpr int kSetupReps = 3;
constexpr int kProbeWarmupSteps = 4;
constexpr int kProbeRounds = 5;
constexpr int kProbeStepsPerRound = 8;

TrainOptions recipe(int epochs) {
  TrainOptions opts = default_pretrain_options();
  opts.epochs = epochs;
  return opts;
}

/// Top-level children of the CIFAR ResNets fall into five groups: the stem
/// conv-bn-relu, the three stages of residual blocks, and the pool +
/// classifier head.
std::string child_group(const std::string& name) {
  const std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "stem" || prefix.rfind("stage", 0) == 0) return prefix;
  return "head";
}

const std::vector<std::string> kGroups = {"stem", "stage1", "stage2", "stage3", "head"};

/// Drives training steps by hand through the same public calls
/// train_model makes, with a span around each, plus the once-per-epoch
/// validation and checkpoint, and reports each part's share of one get.
/// Works in rounds, each pairing one real get (`get`) with a block of steps,
/// so a slow phase of the host lands on both sides of a ratio; every share
/// is the median over rounds. Returns the median round's modelled get time
/// over its measured one.
double probe_layers(Report& report, const DatasetBundle& bundle, uint64_t seed,
                    const std::filesystem::path& work, const std::function<void()>& get) {
  Rng rng(derive_seed(seed, 3));
  ModelPtr model = make_model(kArch, bundle.train.sample_shape(), bundle.train.num_classes);
  init_model(*model, rng);
  const TrainOptions opts = recipe(kGetEpochs);
  ProbeTrainer trainer(*model, bundle.train, opts, derive_seed(seed, 4), child_group);
  const auto train_step = [&] {
    report.check(trainer.step(), "probe training loss and gradients are finite");
  };
  for (int i = 0; i < kProbeWarmupSteps; ++i) train_step();

  std::vector<std::string> per_step = {"data.loader"};
  for (const std::string& g : kGroups) per_step.push_back("nn.fwd." + g);
  for (const std::string& g : kGroups) per_step.push_back("nn.bwd." + g);
  per_step.push_back("nn.loss");
  per_step.push_back("nn.optimizer");
  const std::vector<std::string> per_epoch = {"nn.ckpt_save", "metrics.eval"};

  const double steps_per_get =
      static_cast<double>(trainer.batches_per_epoch()) * static_cast<double>(kGetEpochs);
  const std::string ckpt_dir = (work / "probe_ckpt").string();
  std::map<std::string, std::vector<double>> shares, seconds;
  std::vector<double> coverage;
  for (int round = 0; round < kProbeRounds; ++round) {
    const auto before = spans::totals();
    spans::set_recording(true);
    {
      spans::Span span("core.pretrained_get");
      get();
    }
    for (int i = 0; i < kProbeStepsPerRound; ++i) train_step();
    // Once per epoch train_model validates, snapshots the best weights,
    // and writes a full training checkpoint.
    {
      spans::Span span("metrics.eval");
      evaluate(*model, bundle.val, opts.batch_size);
    }
    {
      spans::Span span("nn.ckpt_save");
      TrainCheckpoint ckpt;
      ckpt.epoch = round;
      ckpt.best_state = state_dict(*model);
      ckpt.model = state_dict(*model);
      ckpt.optimizer = trainer.optimizer_state();
      report.check(save_train_checkpoint(ckpt, ckpt_dir), "probe checkpoint written");
    }
    spans::set_recording(false);

    std::map<std::string, double> took = spans::seconds_since(before);
    const double get_s = took["core.pretrained_get"];
    seconds["core.pretrained_get"].push_back(get_s);
    double modelled = 0.0;
    for (const std::string& name : per_step) {
      const double s = took[name] / kProbeStepsPerRound * steps_per_get;
      seconds[name].push_back(took[name] / kProbeStepsPerRound);
      shares[name].push_back(s / get_s);
      modelled += s;
    }
    for (const std::string& name : per_epoch) {
      seconds[name].push_back(took[name]);
      shares[name].push_back(took[name] * kGetEpochs / get_s);
      modelled += took[name] * kGetEpochs;
    }
    coverage.push_back(modelled / get_s);
  }

  for (const auto& [name, v] : shares) report.metric(name, median(v), "fraction");
  for (const std::string& name : per_step) {
    report.note("us_per_step." + name, median(seconds[name]) * 1e6);
  }
  for (const std::string& name : per_epoch) {
    report.note("ms_per_epoch." + name, median(seconds[name]) * 1e3);
  }
  report.note("ms.core.pretrained_get", median(seconds["core.pretrained_get"]) * 1e3);
  const FlopCounts flops = count_flops(*model, bundle.train.sample_shape());
  report.note("fwd_gmacs_per_step",
              static_cast<double>(flops.dense) * static_cast<double>(opts.batch_size) / 1e9);
  report.note("bwd_gmacs_per_step",
              2.0 * static_cast<double>(flops.dense) * static_cast<double>(opts.batch_size) / 1e9);
  return median(coverage);
}

}  // namespace

Report run_train_dense(const Args& args, const std::filesystem::path& work) {
  Report report;
  DatasetBundle bundle;
  std::unique_ptr<PretrainedStore> store;
  int rep = 0;
  const std::vector<double> setup_s = time_setup(kSetupReps, [&] {
    bundle = make_synthetic(synthetic_preset("synth-cifar10", derive_seed(args.seed, 1)));
    store = std::make_unique<PretrainedStore>((work / ("store" + std::to_string(rep))).string());
    // A one-epoch cold get spawns the thread pool and grows the workspace
    // arena, so the window measures steady state.
    store->get(bundle, kArch, 0, derive_seed(args.seed, 1000 + rep), recipe(1), "warmup");
    ++rep;
  });

  ModelPtr last;
  Window w = run_window(args.seconds, args.trace, "op.pretrained_get", [&](int64_t i) {
    try {
      last = store->get(bundle, kArch, 0, derive_seed(args.seed, 2000 + static_cast<uint64_t>(i)),
                        recipe(kGetEpochs));
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train_dense: get %lld failed: %s\n", static_cast<long long>(i),
                   e.what());
      return false;
    }
  });
  report_end_to_end(report, setup_s, {w});

  if (last) {
    const EvalResult eval = evaluate(*last, bundle.test);
    const double chance = 1.0 / bundle.train.num_classes;
    report.note("top1", eval.top1);
    report.check(std::isfinite(eval.top1) && eval.top1 >= 2.0 * chance,
                 "trained top1 is finite and at least twice chance");
  }
  const double samples_per_get =
      static_cast<double>(bundle.train.size()) * static_cast<double>(kGetEpochs);
  report.note("train_samples_per_s", samples_per_get / plain_op_s({w}));

  if (args.trace) {
    const Shape sample = bundle.train.sample_shape();
    ModelPtr shape_model = make_model(kArch, sample, bundle.train.num_classes);
    const double fwd_macs = static_cast<double>(count_flops(*shape_model, sample).dense);
    // Per epoch: forward + backward over the train split, forward over val.
    const double gmacs = kGetEpochs *
                         (3.0 * fwd_macs * static_cast<double>(bundle.train.size()) +
                          fwd_macs * static_cast<double>(bundle.val.size())) /
                         1e9;
    report_common_layers(report, {w}, gmacs);
    uint64_t probe_get = 0;
    const auto get = [&] {
      store->get(bundle, kArch, 0, derive_seed(args.seed, 3000 + probe_get++), recipe(kGetEpochs));
    };
    report.metric("nn.probe_coverage", probe_layers(report, bundle, args.seed, work, get),
                  "fraction");
  }
  return report;
}

}  // namespace sbbench
