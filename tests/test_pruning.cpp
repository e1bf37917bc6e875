// Pruning-core tests: score functions, mask allocation (with TEST_P
// property sweeps over keep fractions), strategy registry, prune_model on
// real models, and the compression-ratio solver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/pruner.hpp"
#include "core/strategy.hpp"
#include "data/synthetic.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace shrinkbench {
namespace {

// ---- scoring ----

TEST(Scoring, MagnitudeIsAbsoluteValue) {
  Parameter p("w", {4}, true);
  p.data = Tensor::of({-3, 1, 0, 2});
  Rng rng(1);
  const Tensor s = score_parameter(ScoreKind::Magnitude, p, {}, rng);
  EXPECT_EQ(s.at(0), 3.0f);
  EXPECT_EQ(s.at(1), 1.0f);
  EXPECT_EQ(s.at(2), 0.0f);
}

TEST(Scoring, GradientMagnitudeIsWeightTimesGrad) {
  Parameter p("w", {3}, true);
  p.data = Tensor::of({2, -3, 1});
  const Tensor grad = Tensor::of({0.5f, 1.0f, -4.0f});
  Rng rng(1);
  const Tensor s = score_parameter(ScoreKind::GradientMagnitude, p, grad, rng);
  EXPECT_FLOAT_EQ(s.at(0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(1), 3.0f);
  EXPECT_FLOAT_EQ(s.at(2), 4.0f);
  const Tensor sq = score_parameter(ScoreKind::GradientSquared, p, grad, rng);
  EXPECT_FLOAT_EQ(sq.at(1), 9.0f);
}

TEST(Scoring, GradientKindRequiresGradient) {
  Parameter p("w", {3}, true);
  Rng rng(1);
  EXPECT_THROW(score_parameter(ScoreKind::GradientMagnitude, p, {}, rng), std::invalid_argument);
  EXPECT_TRUE(needs_gradients(ScoreKind::GradientMagnitude));
  EXPECT_FALSE(needs_gradients(ScoreKind::Magnitude));
  EXPECT_FALSE(needs_gradients(ScoreKind::Random));
}

TEST(Scoring, MaskedEntriesScoreNegInf) {
  Parameter p("w", {3}, true);
  p.data = Tensor::of({5, 5, 5});
  p.mask = Tensor::of({1, 0, 1});
  Rng rng(1);
  const Tensor s = score_parameter(ScoreKind::Magnitude, p, {}, rng);
  EXPECT_TRUE(std::isinf(s.at(1)));
  EXPECT_LT(s.at(1), 0.0f);
}

TEST(Scoring, RandomIsSeedDeterministic) {
  Parameter p("w", {16}, true);
  p.data.fill(1.0f);
  Rng r1(7), r2(7);
  const Tensor a = score_parameter(ScoreKind::Random, p, {}, r1);
  const Tensor b = score_parameter(ScoreKind::Random, p, {}, r2);
  EXPECT_TRUE(ops::allclose(a, b, 0, 0));
}

// ---- allocation: exactness properties over fractions ----

class AllocationFractions : public ::testing::TestWithParam<double> {};

TEST_P(AllocationFractions, GlobalUnstructuredKeepsExactCount) {
  const double fraction = GetParam();
  Rng rng(11);
  Parameter p1("a", {40}, true), p2("b", {25, 4}, true);
  rng.fill_normal(p1.data, 0, 1);
  rng.fill_normal(p2.data, 0, 1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p1, score_parameter(ScoreKind::Magnitude, p1, {}, rng)});
  scored.push_back({&p2, score_parameter(ScoreKind::Magnitude, p2, {}, rng)});
  const int64_t kept = allocate_masks(scored, AllocationScope::Global, Structure::Unstructured,
                                      fraction);
  const int64_t expected = llround(fraction * 140);
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(p1.nonzero() + p2.nonzero(), expected);
}

TEST_P(AllocationFractions, LayerwiseKeepsPerLayerCount) {
  const double fraction = GetParam();
  Rng rng(12);
  Parameter p1("a", {50}, true), p2("b", {30}, true);
  rng.fill_normal(p1.data, 0, 1);
  rng.fill_normal(p2.data, 0, 1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p1, score_parameter(ScoreKind::Magnitude, p1, {}, rng)});
  scored.push_back({&p2, score_parameter(ScoreKind::Magnitude, p2, {}, rng)});
  allocate_masks(scored, AllocationScope::Layerwise, Structure::Unstructured, fraction);
  EXPECT_EQ(p1.nonzero(), std::max<int64_t>(1, llround(fraction * 50)));
  EXPECT_EQ(p2.nonzero(), std::max<int64_t>(1, llround(fraction * 30)));
}

INSTANTIATE_TEST_SUITE_P(Fractions, AllocationFractions,
                         ::testing::Values(0.0, 0.03125, 0.0625, 0.125, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

TEST(Allocation, GlobalKeepsHighestScores) {
  Parameter p("w", {6}, true);
  p.data = Tensor::of({0.1f, 5.0f, 0.2f, 4.0f, 0.3f, 3.0f});
  Rng rng(1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  allocate_masks(scored, AllocationScope::Global, Structure::Unstructured, 0.5);
  EXPECT_EQ(p.mask.at(1), 1.0f);
  EXPECT_EQ(p.mask.at(3), 1.0f);
  EXPECT_EQ(p.mask.at(5), 1.0f);
  EXPECT_EQ(p.mask.at(0), 0.0f);
}

TEST(Allocation, TiesBrokenDeterministically) {
  Parameter p("w", {8}, true);
  p.data.fill(1.0f);  // all scores equal
  Rng rng(1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  allocate_masks(scored, AllocationScope::Global, Structure::Unstructured, 0.5);
  EXPECT_EQ(p.nonzero(), 4);
  // Re-run: identical result.
  Parameter q("w", {8}, true);
  q.data.fill(1.0f);
  std::vector<ScoredParam> scored2;
  scored2.push_back({&q, score_parameter(ScoreKind::Magnitude, q, {}, rng)});
  allocate_masks(scored2, AllocationScope::Global, Structure::Unstructured, 0.5);
  EXPECT_TRUE(ops::allclose(p.mask, q.mask, 0, 0));
}

// NaN scores used to reach nth_element with std::greater<float>, where
// they violate strict weak ordering (UB). The fix maps NaN to -inf before
// selection: an unmeasurable score means "prunable", never "keep".
TEST(Allocation, NanScoresArePrunedNotKept) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Parameter p("w", {8}, true);
  p.data = Tensor::of({0.1f, 2.0f, 0.0f, 4.0f, 0.3f, 3.0f, 0.0f, 1.0f});
  p.data.data()[2] = nan;
  p.data.data()[6] = nan;
  Rng rng(1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  const int64_t kept = allocate_masks(scored, AllocationScope::Global,
                                      Structure::Unstructured, 0.5);
  EXPECT_EQ(kept, 4);
  EXPECT_EQ(p.mask.at(2), 0.0f);
  EXPECT_EQ(p.mask.at(6), 0.0f);
  // The four largest finite magnitudes survive.
  EXPECT_EQ(p.mask.at(1), 1.0f);
  EXPECT_EQ(p.mask.at(3), 1.0f);
  EXPECT_EQ(p.mask.at(5), 1.0f);
  EXPECT_EQ(p.mask.at(7), 1.0f);
}

TEST(Allocation, NanScoresStayPrunedAtKeepEverything) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Parameter p("w", {6}, true);
  p.data = Tensor::of({1.0f, 2.0f, 0.0f, 4.0f, 5.0f, 6.0f});
  p.data.data()[2] = nan;
  Rng rng(1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  const int64_t kept = allocate_masks(scored, AllocationScope::Global,
                                      Structure::Unstructured, 1.0);
  EXPECT_EQ(kept, 5);  // the k >= total fast path must also drop NaN
  EXPECT_EQ(p.mask.at(2), 0.0f);
}

TEST(Allocation, NanChannelScoresPruneTheChannel) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Parameter p("conv.weight", {4, 3}, true);
  const float vals[12] = {9.0f, 9.0f, 9.0f,   // ch0: strong, kept
                          nan,  nan,  nan,    // ch1: unmeasurable, pruned
                          0.1f, 0.1f, 0.1f,   // ch2: weak, pruned
                          5.0f, 5.0f, 5.0f};  // ch3: mid, kept
  std::copy(vals, vals + 12, p.data.data());
  Rng rng(1);
  std::vector<ScoredParam> scored;
  scored.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  const int64_t kept = allocate_masks(scored, AllocationScope::Global,
                                      Structure::Channel, 0.5);
  EXPECT_EQ(kept, 6);  // two whole channels
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p.mask.at(0 * 3 + i), 1.0f);
    EXPECT_EQ(p.mask.at(1 * 3 + i), 0.0f) << "NaN channel survived";
    EXPECT_EQ(p.mask.at(2 * 3 + i), 0.0f);
    EXPECT_EQ(p.mask.at(3 * 3 + i), 1.0f);
  }
}

TEST(Allocation, NeverResurrectsPrunedWeights) {
  Rng rng(13);
  Parameter p("w", {20}, true);
  rng.fill_normal(p.data, 0, 1);
  // Prune to 50%, then "re-prune" to 80% keep: previously pruned entries
  // must stay pruned (their scores are -inf).
  std::vector<ScoredParam> s1;
  s1.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  allocate_masks(s1, AllocationScope::Global, Structure::Unstructured, 0.5);
  p.apply_mask();
  const Tensor mask_after_first = p.mask;

  std::vector<ScoredParam> s2;
  s2.push_back({&p, score_parameter(ScoreKind::Magnitude, p, {}, rng)});
  allocate_masks(s2, AllocationScope::Global, Structure::Unstructured, 0.8);
  for (int64_t i = 0; i < 20; ++i) {
    if (mask_after_first.at(i) == 0.0f) {
      EXPECT_EQ(p.mask.at(i), 0.0f);
    }
  }
}

TEST(Allocation, ChannelStructureZeroesWholeFilters) {
  Rng rng(14);
  Parameter conv("conv.weight", {6, 3, 3, 3}, true);
  rng.fill_normal(conv.data, 0, 1);
  std::vector<ScoredParam> scored;
  scored.push_back({&conv, score_parameter(ScoreKind::Magnitude, conv, {}, rng)});
  allocate_masks(scored, AllocationScope::Layerwise, Structure::Channel, 0.5);
  const int64_t unit = 27;
  int kept_channels = 0;
  for (int64_t c = 0; c < 6; ++c) {
    const float first = conv.mask.at(c * unit);
    for (int64_t i = 0; i < unit; ++i) {
      ASSERT_EQ(conv.mask.at(c * unit + i), first) << "partial channel " << c;
    }
    kept_channels += first > 0.0f;
  }
  EXPECT_EQ(kept_channels, 3);
}

TEST(Allocation, ChannelGlobalKeepsAtLeastOnePerLayer) {
  Rng rng(15);
  Parameter big("big", {8, 4, 3, 3}, true);
  Parameter small("small", {4, 2, 3, 3}, true);
  rng.fill_normal(big.data, 0, 2.0f);       // big magnitudes
  rng.fill_normal(small.data, 0, 0.0001f);  // tiny: would be fully pruned
  std::vector<ScoredParam> scored;
  scored.push_back({&big, score_parameter(ScoreKind::Magnitude, big, {}, rng)});
  scored.push_back({&small, score_parameter(ScoreKind::Magnitude, small, {}, rng)});
  allocate_masks(scored, AllocationScope::Global, Structure::Channel, 0.3);
  EXPECT_GE(small.nonzero(), 18);  // one full channel survives
}

TEST(Allocation, RejectsBadInput) {
  std::vector<ScoredParam> scored;
  Parameter p("w", {4}, true);
  scored.push_back({&p, Tensor({3})});  // wrong shape
  EXPECT_THROW(
      allocate_masks(scored, AllocationScope::Global, Structure::Unstructured, 0.5),
      std::invalid_argument);
  scored[0].scores = Tensor({4});
  EXPECT_THROW(
      allocate_masks(scored, AllocationScope::Global, Structure::Unstructured, 1.5),
      std::invalid_argument);
}

// ---- strategy registry ----

TEST(Strategy, RegistryResolvesAllNames) {
  for (const std::string& name : strategy_names()) {
    const PruningStrategy s = strategy_from_name(name);
    EXPECT_EQ(s.name, name);
    EXPECT_FALSE(display_name(name).empty());
  }
  EXPECT_THROW(strategy_from_name("nope"), std::invalid_argument);
}

TEST(Strategy, PaperBaselinesPresent) {
  // The five baselines of Section 7.2.
  EXPECT_EQ(strategy_from_name("global-weight").score, ScoreKind::Magnitude);
  EXPECT_EQ(strategy_from_name("layer-weight").scope, AllocationScope::Layerwise);
  EXPECT_EQ(strategy_from_name("global-gradient").score, ScoreKind::GradientMagnitude);
  EXPECT_EQ(strategy_from_name("layer-gradient").scope, AllocationScope::Layerwise);
  EXPECT_EQ(strategy_from_name("random").score, ScoreKind::Random);
  EXPECT_EQ(display_name("global-weight"), "Global Weight");
}

// ---- prune_model on real models ----

struct PruneFixture {
  DatasetBundle bundle;
  ModelPtr model;

  PruneFixture() {
    SyntheticSpec spec = synth_cifar(5);
    spec.train_size = 64;
    spec.val_size = 32;
    spec.test_size = 32;
    bundle = make_synthetic(spec);
    model = make_model("resnet-20", bundle.train.sample_shape(), 10, 4);
    Rng rng(2);
    init_model(*model, rng);
  }
};

TEST(PruneModel, HitsRequestedFraction) {
  PruneFixture fx;
  Rng rng(3);
  const PruneOptions opts;
  const double achieved = prune_model(*fx.model, strategy_from_name("global-weight"), 0.25,
                                      fx.bundle.train, opts, rng);
  EXPECT_NEAR(achieved, 0.25, 1e-3);
  // Weights actually became zero.
  int64_t zeros = 0, total = 0;
  for (const Parameter* p : prunable_params(*fx.model, opts)) {
    zeros += p->numel() - ops::count_nonzero(p->data);
    total += p->numel();
  }
  EXPECT_NEAR(static_cast<double>(zeros) / total, 0.75, 0.01);
}

TEST(PruneModel, ClassifierExcludedByDefault) {
  PruneFixture fx;
  Rng rng(4);
  PruneOptions opts;
  prune_model(*fx.model, strategy_from_name("global-weight"), 0.1, fx.bundle.train, opts, rng);
  for (const Parameter* p : parameters_of(*fx.model)) {
    if (p->is_classifier) {
      EXPECT_EQ(p->nonzero(), p->numel());
    }
  }
}

TEST(PruneModel, ClassifierIncludedOnRequest) {
  PruneFixture fx;
  Rng rng(5);
  PruneOptions opts;
  opts.include_classifier = true;
  prune_model(*fx.model, strategy_from_name("global-weight"), 0.05, fx.bundle.train, opts, rng);
  int64_t classifier_zeros = 0;
  for (const Parameter* p : parameters_of(*fx.model)) {
    if (p->is_classifier) classifier_zeros = p->numel() - p->nonzero();
  }
  EXPECT_GT(classifier_zeros, 0);
}

TEST(PruneModel, GradientStrategiesDependOnSeed) {
  PruneFixture fx;
  PruneOptions opts;
  opts.grad_batch_size = 8;
  Rng r1(100), r2(200);
  auto m1 = make_model("resnet-20", fx.bundle.train.sample_shape(), 10, 4);
  auto m2 = make_model("resnet-20", fx.bundle.train.sample_shape(), 10, 4);
  Rng init(2);
  init_model(*m1, init);
  Rng init2(2);
  init_model(*m2, init2);
  prune_model(*m1, strategy_from_name("global-gradient"), 0.3, fx.bundle.train, opts, r1);
  prune_model(*m2, strategy_from_name("global-gradient"), 0.3, fx.bundle.train, opts, r2);
  // Different minibatches -> (almost surely) different masks.
  int64_t differing = 0;
  const auto p1 = prunable_params(*m1, opts), p2 = prunable_params(*m2, opts);
  for (size_t i = 0; i < p1.size(); ++i) {
    for (int64_t j = 0; j < p1[i]->numel(); ++j) {
      differing += p1[i]->mask.at(j) != p2[i]->mask.at(j);
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(PruneModel, GradientSnapshotLeavesGradsZeroed) {
  PruneFixture fx;
  Rng rng(6);
  PruneOptions opts;
  const auto grads = gradient_snapshot(*fx.model, fx.bundle.train, opts, rng);
  EXPECT_EQ(grads.size(), prunable_params(*fx.model, opts).size());
  double nonzero_grad = 0;
  for (const Tensor& g : grads) nonzero_grad += ops::sum_sq(g);
  EXPECT_GT(nonzero_grad, 0.0);
  for (const Parameter* p : parameters_of(*fx.model)) {
    EXPECT_EQ(ops::sum_sq(p->grad), 0.0f) << p->name;
  }
}

// ---- compression-ratio solver ----

class CompressionSolver : public ::testing::TestWithParam<double> {};

TEST_P(CompressionSolver, AchievesTargetRatio) {
  const double target = GetParam();
  PruneFixture fx;
  PruneOptions opts;
  const double fraction = fraction_for_compression(*fx.model, target, opts);
  Rng rng(7);
  prune_model(*fx.model, strategy_from_name("global-weight"), fraction, fx.bundle.train, opts,
              rng);
  const double achieved = compression_ratio(*fx.model);
  if (fraction > 0.0) {
    EXPECT_NEAR(achieved, target, 0.05 * target);
  } else {
    EXPECT_GT(achieved, 1.0);  // clamped: everything prunable removed
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, CompressionSolver, ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0));

TEST(CompressionSolver, RejectsRatioBelowOne) {
  PruneFixture fx;
  EXPECT_THROW(fraction_for_compression(*fx.model, 0.5, {}), std::invalid_argument);
}

TEST(CompressionSolver, RatioOneKeepsEverything) {
  PruneFixture fx;
  EXPECT_DOUBLE_EQ(fraction_for_compression(*fx.model, 1.0, {}), 1.0);
}

}  // namespace
}  // namespace shrinkbench
