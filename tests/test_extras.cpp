// Tests for the auxiliary APIs: learning-rate schedules, the Appendix-B
// checklist grader, and the model summary printer.
#include <gtest/gtest.h>

#include "core/checklist.hpp"
#include "core/train.hpp"
#include "metrics/metrics.hpp"
#include "metrics/summary.hpp"
#include "models/zoo.hpp"

namespace shrinkbench {
namespace {

// ---- learning-rate schedules ----

TEST(LrSchedule, FixedIsConstant) {
  TrainOptions opts;
  opts.lr = 0.01f;
  opts.epochs = 20;
  for (int e = 0; e < 20; ++e) EXPECT_FLOAT_EQ(lr_at_epoch(opts, e), 0.01f);
}

TEST(LrSchedule, StepDecayDropsAtBoundaries) {
  TrainOptions opts;
  opts.lr = 1.0f;
  opts.lr_schedule = LrSchedule::StepDecay;
  opts.lr_step_every = 5;
  opts.lr_step_gamma = 0.1f;
  EXPECT_FLOAT_EQ(lr_at_epoch(opts, 0), 1.0f);
  EXPECT_FLOAT_EQ(lr_at_epoch(opts, 4), 1.0f);
  EXPECT_FLOAT_EQ(lr_at_epoch(opts, 5), 0.1f);
  EXPECT_NEAR(lr_at_epoch(opts, 10), 0.01f, 1e-7f);
}

TEST(LrSchedule, CosineInterpolatesToFloor) {
  TrainOptions opts;
  opts.lr = 1.0f;
  opts.lr_min = 0.1f;
  opts.lr_schedule = LrSchedule::Cosine;
  opts.epochs = 11;
  EXPECT_NEAR(lr_at_epoch(opts, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(lr_at_epoch(opts, 10), 0.1f, 1e-5f);
  EXPECT_NEAR(lr_at_epoch(opts, 5), 0.55f, 1e-4f);  // midpoint
  // Monotone decreasing.
  for (int e = 1; e < 11; ++e) EXPECT_LE(lr_at_epoch(opts, e), lr_at_epoch(opts, e - 1) + 1e-6f);
}

TEST(LrSchedule, CosineSingleEpochIsBase) {
  TrainOptions opts;
  opts.lr = 0.5f;
  opts.lr_schedule = LrSchedule::Cosine;
  opts.epochs = 1;
  EXPECT_FLOAT_EQ(lr_at_epoch(opts, 0), 0.5f);
}

// ---- checklist ----

ExperimentResult fake_result(const std::string& strategy, const std::string& dataset,
                             const std::string& arch, double ratio, uint64_t seed) {
  ExperimentResult r;
  r.config.strategy = strategy;
  r.config.dataset = dataset;
  r.config.arch = arch;
  r.config.target_compression = ratio;
  r.config.run_seed = seed;
  r.pre_top1 = 0.9;
  r.pre_top5 = 0.99;
  r.post_top1 = 0.85;
  r.post_top5 = 0.98;
  r.compression = ratio;
  r.speedup = ratio * 0.8;
  return r;
}

TEST(Checklist, SingleRunFailsMostItems) {
  const auto report = evaluate_checklist({fake_result("global-weight", "d", "a", 4, 1)},
                                         "global-weight");
  EXPECT_LT(report.satisfied(), report.total() / 2 + 2);
  // But controls and both-metric items pass for a well-formed result.
  for (const auto& item : report.items) {
    if (item.id == "controls" || item.id == "both-efficiency-metrics" ||
        item.id == "both-accuracy-metrics") {
      EXPECT_TRUE(item.satisfied) << item.id;
    }
    if (item.id == "operating-points" || item.id == "multiple-seeds" ||
        item.id == "random-baseline") {
      EXPECT_FALSE(item.satisfied) << item.id;
    }
  }
}

TEST(Checklist, FullSweepSatisfiesEverything) {
  std::vector<ExperimentResult> results;
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"synth-cifar10", "resnet-56"}, {"synth-cifar10", "cifar-vgg"},
      {"synth-imagenet", "resnet-18"}};
  for (const auto& [ds, arch] : pairs) {
    for (const double ratio : {2.0, 4.0, 8.0, 16.0, 32.0}) {
      for (const uint64_t seed : {1, 2, 3}) {
        for (const char* strategy : {"my-method", "global-weight", "random"}) {
          results.push_back(fake_result(strategy, ds, arch, ratio, seed));
        }
      }
    }
  }
  const auto report = evaluate_checklist(results, "my-method");
  EXPECT_EQ(report.satisfied(), report.total());
}

TEST(Checklist, DetectsMissingBaselines) {
  std::vector<ExperimentResult> results;
  for (const double ratio : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    results.push_back(fake_result("my-method", "d", "a", ratio, 1));
  }
  const auto report = evaluate_checklist(results, "my-method");
  for (const auto& item : report.items) {
    if (item.id == "random-baseline" || item.id == "magnitude-baseline") {
      EXPECT_FALSE(item.satisfied) << item.id;
    }
    if (item.id == "operating-points") {
      EXPECT_TRUE(item.satisfied);
    }
  }
}

TEST(Checklist, RenderListsEveryItem) {
  const auto report = evaluate_checklist({fake_result("m", "d", "a", 2, 1)}, "m");
  const std::string text = render_checklist(report);
  for (const auto& item : report.items) {
    EXPECT_NE(text.find(item.id), std::string::npos) << item.id;
  }
  EXPECT_NE(text.find("Best-practice checklist"), std::string::npos);
}

// ---- model summary ----

TEST(Summary, RowsCoverLeavesWithCorrectTotals) {
  auto model = make_model("resnet-20", {3, 8, 8}, 10, 4);
  const auto rows = summarize_layers(*model, {3, 8, 8});
  // Leaves only: no Sequential/ResidualBlock rows.
  int64_t params = 0;
  for (const auto& row : rows) {
    EXPECT_NE(row.kind, "Sequential");
    EXPECT_NE(row.kind, "ResidualBlock");
    params += row.params;
  }
  ParamCounts counts = count_params(*model);
  EXPECT_EQ(params, counts.total);
  // First row is the stem conv producing [4, 8, 8].
  EXPECT_EQ(rows.front().kind, "Conv2d");
  EXPECT_EQ(rows.front().output_shape, (Shape{4, 8, 8}));
  // Last row is the classifier.
  EXPECT_EQ(rows.back().kind, "Linear");
  EXPECT_EQ(rows.back().output_shape, (Shape{10}));
}

TEST(Summary, DescribeMentionsLayersAndTotals) {
  auto model = make_model("lenet-5", {1, 8, 8}, 10);
  const std::string text = describe(*model, {1, 8, 8});
  EXPECT_NE(text.find("Conv2d"), std::string::npos);
  EXPECT_NE(text.find("MaxPool2d"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
  EXPECT_NE(text.find("lenet-5"), std::string::npos);
}

TEST(Summary, EffectiveFlopsTrackMasks) {
  auto model = make_model("cifar-vgg", {3, 8, 8}, 10, 4);
  for (Parameter* p : parameters_of(*model)) {
    if (p->prunable) p->mask.zero();
  }
  const auto rows = summarize_layers(*model, {3, 8, 8});
  for (const auto& row : rows) {
    if (row.kind == "Conv2d" || row.kind == "Linear") {
      EXPECT_EQ(row.flops_effective, 0) << row.name;
      EXPECT_GT(row.flops, 0) << row.name;
    }
  }
}

}  // namespace
}  // namespace shrinkbench
