// Thread-count determinism tests: the thread pool's static partitioning
// guarantees that training curves, evaluation metrics, full experiments,
// and sweep CSVs are bit-identical whether the runtime uses 1 thread or
// many — the reproducibility contract the paper's comparisons rely on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <cstring>

#include "core/experiment.hpp"
#include "data/synthetic.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "obs/io.hpp"
#include "obs/profile.hpp"
#include "tensor/threadpool.hpp"

namespace shrinkbench {
namespace {

struct PoolFixture : ::testing::Test {
  int original = ThreadPool::instance().threads();
  void TearDown() override { ThreadPool::instance().set_threads(original); }
};

SyntheticSpec tiny_spec() {
  SyntheticSpec spec = synth_mnist();
  spec.train_size = 256;
  spec.val_size = 96;
  spec.test_size = 96;
  return spec;
}

TrainOptions tiny_train_options() {
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 32;
  opts.patience = 0;
  return opts;
}

// A conv + batchnorm + pool + linear model so the multi-threaded
// determinism claim covers every parallelised layer.
ModelPtr tiny_model(const DatasetBundle& bundle) {
  ModelPtr model = make_model("cifar-vgg", bundle.train.sample_shape(),
                              bundle.train.num_classes, /*base_width=*/4);
  Rng rng(17);
  init_model(*model, rng);
  return model;
}

// ---- Fused conv grid determinism ----

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Conv forward/backward must be bit-identical across thread counts at
// every batch size the forward grids tile differently: on the wide-plane
// (sample × out-channel-tile) grid, batch 1 splits channels only, batch 7
// splits ragged sample ranges, batch 32 splits samples only; on the
// narrow-plane (position block × out-channel group) grid, batches 1 and 7
// leave a ragged last block. Covers y, dx, dW and db.
TEST_F(PoolFixture, ConvForwardBackwardBitIdenticalAcrossThreadsAndBatches) {
  struct ConvOut {
    Tensor y, dx, dw, db;
  };
  // A 9x9 plane at stride 1 runs the wide-plane direct forward; the 4x4
  // and 2x2 outputs of stride-2 convs run the narrow-plane kernel, the
  // 2x2 one over two out-channel groups and ragged last blocks. The wide
  // kernel convolves up to 4 out channels per block: at batch 1, 13 of
  // them split 7/6 over two tiles and 5/4/4 over three, so tiles end
  // mid-block and a block never spans two tiles.
  struct Case {
    int64_t in_c, out_c, plane, stride, out;
  };
  for (const Case c : {Case{5, 12, 9, 1, 9}, Case{3, 13, 10, 1, 10}, Case{5, 12, 8, 2, 4},
                       Case{17, 40, 4, 2, 2}}) {
    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{32}}) {
      const auto run = [&](int threads) {
        ThreadPool::instance().set_threads(threads);
        Conv2d conv("c", c.in_c, c.out_c, 3, c.stride, 1, /*bias=*/true);
        Rng rng(21);
        rng.fill_normal(conv.weight().data, 0.0f, 1.0f);
        rng.fill_normal(conv.bias()->data, 0.0f, 1.0f);
        Tensor x({batch, c.in_c, c.plane, c.plane}), dy({batch, c.out_c, c.out, c.out});
        Rng data_rng(22);
        data_rng.fill_normal(x, 0.0f, 1.0f);
        data_rng.fill_normal(dy, 0.0f, 1.0f);
        ConvOut out;
        out.y = conv.forward(x, /*train=*/true);
        out.dx = conv.backward(dy);
        out.dw = conv.weight().grad;
        out.db = conv.bias()->grad;
        return out;
      };
      const ConvOut serial = run(1);
      for (const int threads : {2, 4}) {
        const ConvOut threaded = run(threads);
        const std::string at = "plane=" + std::to_string(c.plane) + " batch=" +
                               std::to_string(batch) + " threads=" + std::to_string(threads);
        EXPECT_TRUE(same_bits(serial.y, threaded.y)) << at;
        EXPECT_TRUE(same_bits(serial.dx, threaded.dx)) << at;
        EXPECT_TRUE(same_bits(serial.dw, threaded.dw)) << at;
        EXPECT_TRUE(same_bits(serial.db, threaded.db)) << at;
      }
    }
  }
}

// Linear forward/backward must be bit-identical across thread counts:
// its products fan row blocks over the pool (samples for y and dX, out
// features for dW), so batches 1, 7 and 64 and 300 out features split
// differently at each width. 37 -> 19 leaves lane and row-tile
// remainders everywhere. dW continues from a nonzero grad.
TEST_F(PoolFixture, LinearForwardBackwardBitIdenticalAcrossThreadsAndBatches) {
  struct Case {
    int64_t in, out;
  };
  for (const Case c : {Case{512, 32}, Case{144, 300}, Case{37, 19}}) {
    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{64}}) {
      const auto run = [&](int threads) {
        ThreadPool::instance().set_threads(threads);
        Linear fc("fc", c.in, c.out);
        Rng rng(23);
        rng.fill_normal(fc.weight().data, 0.0f, 1.0f);
        rng.fill_normal(fc.bias()->data, 0.0f, 1.0f);
        rng.fill_normal(fc.weight().grad, 0.0f, 1.0f);
        Tensor x({batch, c.in}), dy({batch, c.out});
        rng.fill_normal(x, 0.0f, 1.0f);
        rng.fill_normal(dy, 0.0f, 1.0f);
        std::vector<Tensor> out{fc.forward(x, /*train=*/true)};
        out.push_back(fc.backward(dy));
        out.push_back(fc.weight().grad);
        out.push_back(fc.bias()->grad);
        return out;
      };
      const std::vector<Tensor> serial = run(1);
      for (const int threads : {2, 4}) {
        const std::vector<Tensor> threaded = run(threads);
        const std::string at = std::to_string(c.in) + "->" + std::to_string(c.out) + " batch=" +
                               std::to_string(batch) + " threads=" + std::to_string(threads);
        const char* names[] = {"y", "dx", "dw", "db"};
        for (size_t k = 0; k < serial.size(); ++k) {
          EXPECT_TRUE(same_bits(serial[k], threaded[k])) << names[k] << " at " << at;
        }
      }
    }
  }
}

// Small-batch training (batch below the pool width included) must stay
// on the same loss curve to the bit for SB_THREADS in {1, 2, 4}: the
// fused grid's channel-axis split may only change the work schedule,
// never the arithmetic.
TEST_F(PoolFixture, TrainingCurveBitIdenticalAcrossThreadsAndBatchSizes) {
  SyntheticSpec spec = tiny_spec();
  spec.train_size = 64;
  spec.val_size = 32;
  spec.test_size = 32;
  const DatasetBundle bundle = make_synthetic(spec);
  for (const int batch : {1, 7, 32}) {
    TrainOptions opts;
    opts.epochs = 1;
    opts.batch_size = batch;
    opts.patience = 0;
    const auto run = [&](int threads) {
      ThreadPool::instance().set_threads(threads);
      ModelPtr model = tiny_model(bundle);
      return train_model(*model, bundle, opts);
    };
    const TrainHistory serial = run(1);
    for (const int threads : {2, 4}) {
      const TrainHistory threaded = run(threads);
      ASSERT_EQ(serial.epochs.size(), threaded.epochs.size());
      for (size_t i = 0; i < serial.epochs.size(); ++i) {
        EXPECT_EQ(serial.epochs[i].train_loss, threaded.epochs[i].train_loss)
            << "batch=" << batch << " threads=" << threads << " epoch " << i;
        EXPECT_EQ(serial.epochs[i].val_loss, threaded.epochs[i].val_loss)
            << "batch=" << batch << " threads=" << threads << " epoch " << i;
        EXPECT_EQ(serial.epochs[i].val_top1, threaded.epochs[i].val_top1)
            << "batch=" << batch << " threads=" << threads << " epoch " << i;
      }
    }
  }
}

// The point of the fused grid: a batch-1 conv forward must actually fan
// out over the pool (the old per-sample split left threadpool.jobs flat
// because one sample formed one chunk).
TEST_F(PoolFixture, Batch1ConvForwardEngagesPool) {
  ThreadPool::instance().set_threads(4);
  Conv2d conv("c", 8, 16, 3, 1, 1, /*bias=*/false);
  Rng rng(23);
  rng.fill_normal(conv.weight().data, 0.0f, 1.0f);
  Tensor x({1, 8, 12, 12});
  rng.fill_normal(x, 0.0f, 1.0f);
  obs::set_profiling_enabled(true);
  const int64_t jobs_before = obs::Profiler::instance().snapshot().counters["threadpool.jobs"];
  Tensor y = conv.forward(x, /*train=*/false);
  const int64_t jobs_after = obs::Profiler::instance().snapshot().counters["threadpool.jobs"];
  obs::set_profiling_enabled(false);
  ASSERT_GT(y.numel(), 0);
  EXPECT_GT(jobs_after, jobs_before) << "batch-1 forward never fanned out over the pool";
}

TEST_F(PoolFixture, TrainingCurvesBitIdenticalAcrossThreadCounts) {
  const DatasetBundle bundle = make_synthetic(tiny_spec());
  const auto run = [&](int threads) {
    ThreadPool::instance().set_threads(threads);
    ModelPtr model = tiny_model(bundle);
    return train_model(*model, bundle, tiny_train_options());
  };
  const TrainHistory serial = run(1);
  const TrainHistory threaded = run(4);
  ASSERT_EQ(serial.epochs.size(), threaded.epochs.size());
  for (size_t i = 0; i < serial.epochs.size(); ++i) {
    // Exact equality, not near: the loss curve must be bit-identical.
    EXPECT_EQ(serial.epochs[i].train_loss, threaded.epochs[i].train_loss) << "epoch " << i;
    EXPECT_EQ(serial.epochs[i].val_loss, threaded.epochs[i].val_loss) << "epoch " << i;
    EXPECT_EQ(serial.epochs[i].val_top1, threaded.epochs[i].val_top1) << "epoch " << i;
  }
}

TEST_F(PoolFixture, EvaluateBitIdenticalAcrossThreadCounts) {
  const DatasetBundle bundle = make_synthetic(tiny_spec());
  ModelPtr model = tiny_model(bundle);
  ThreadPool::instance().set_threads(1);
  const EvalResult serial = evaluate(*model, bundle.test, 32);
  for (const int threads : {2, 4}) {
    ThreadPool::instance().set_threads(threads);
    const EvalResult threaded = evaluate(*model, bundle.test, 32);
    EXPECT_EQ(serial.loss, threaded.loss) << "threads=" << threads;
    EXPECT_EQ(serial.top1, threaded.top1) << "threads=" << threads;
    EXPECT_EQ(serial.top5, threaded.top5) << "threads=" << threads;
    EXPECT_EQ(serial.samples, threaded.samples);
  }
  // A batch size that does not divide the dataset exercises the ragged
  // final batch in the parallel evaluate path.
  ThreadPool::instance().set_threads(1);
  const EvalResult ragged_serial = evaluate(*model, bundle.test, 40);
  ThreadPool::instance().set_threads(4);
  const EvalResult ragged_threaded = evaluate(*model, bundle.test, 40);
  EXPECT_EQ(ragged_serial.loss, ragged_threaded.loss);
  EXPECT_EQ(ragged_serial.top1, ragged_threaded.top1);
}

// ---- Crash-and-resume bit-identity ----

// The auto-resume contract: a run that crashes mid-training and restarts
// from its checkpoints must produce the same training curve and the same
// final weights, to the bit, as a run that was never interrupted — under
// any thread count. Uses the dropout VGG variant so the per-layer RNG
// streams are part of the contract too.
TEST_F(PoolFixture, ResumeMatchesUninterruptedRunBitIdentical) {
  const DatasetBundle bundle = make_synthetic(tiny_spec());
  const std::string dir = ::testing::TempDir() + "/sb_det_resume";
  const auto dropout_model = [&bundle]() {
    ModelPtr model = make_model("cifar-vgg-dropout", bundle.train.sample_shape(),
                                bundle.train.num_classes, /*base_width=*/4);
    Rng rng(17);
    init_model(*model, rng);
    return model;
  };

  for (const int threads : {1, 4}) {
    ThreadPool::instance().set_threads(threads);
    std::filesystem::remove_all(dir);
    TrainOptions opts = tiny_train_options();
    opts.epochs = 4;

    ModelPtr control = dropout_model();
    const TrainHistory uninterrupted = train_model(*control, bundle, opts);

    opts.checkpoint_dir = dir;
    opts.checkpoint_every = 1;
    ModelPtr crashed = dropout_model();
    obs::set_fault_spec("train.crash_epoch:3");  // kill at epoch 2
    EXPECT_THROW(train_model(*crashed, bundle, opts), std::runtime_error);
    obs::set_fault_spec("");

    ModelPtr resumed_model = dropout_model();
    const TrainHistory resumed = train_model(*resumed_model, bundle, opts);
    EXPECT_EQ(resumed.resumed_from_epoch, 2) << "threads=" << threads;

    ASSERT_EQ(resumed.epochs.size(), uninterrupted.epochs.size());
    for (size_t i = 0; i < resumed.epochs.size(); ++i) {
      EXPECT_EQ(resumed.epochs[i].train_loss, uninterrupted.epochs[i].train_loss)
          << "threads=" << threads << " epoch " << i;
      EXPECT_EQ(resumed.epochs[i].val_loss, uninterrupted.epochs[i].val_loss)
          << "threads=" << threads << " epoch " << i;
      EXPECT_EQ(resumed.epochs[i].val_top1, uninterrupted.epochs[i].val_top1)
          << "threads=" << threads << " epoch " << i;
    }
    EXPECT_EQ(resumed.best_epoch, uninterrupted.best_epoch);
    EXPECT_EQ(resumed.best_val_top1, uninterrupted.best_val_top1);

    const StateDict a = state_dict(*control);
    const StateDict b = state_dict(*resumed_model);
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, tensor] : a) {
      const auto it = b.find(key);
      ASSERT_NE(it, b.end()) << key;
      ASSERT_EQ(tensor.numel(), it->second.numel()) << key;
      EXPECT_EQ(std::memcmp(tensor.data(), it->second.data(),
                            sizeof(float) * static_cast<size_t>(tensor.numel())),
                0)
          << "threads=" << threads << " tensor " << key;
    }

    // Re-running against a directory whose training already finished is a
    // pure no-op resume: same history, no extra epochs.
    ModelPtr again = dropout_model();
    const TrainHistory noop = train_model(*again, bundle, opts);
    EXPECT_EQ(noop.resumed_from_epoch, opts.epochs);
    ASSERT_EQ(noop.epochs.size(), uninterrupted.epochs.size());
    std::filesystem::remove_all(dir);
  }
}

// ---- Sweep CSV determinism across SB_SWEEP_PARALLEL ----

ExperimentConfig sweep_config() {
  ExperimentConfig cfg;
  cfg.dataset = "synth-mnist";
  cfg.arch = "lenet-300-100";
  cfg.pretrain.epochs = 4;
  cfg.pretrain.batch_size = 64;
  cfg.pretrain.patience = 0;
  cfg.finetune.epochs = 1;
  cfg.finetune.patience = 0;
  return cfg;
}

// Strips the wall-clock columns (seconds, pretrain_s, prune_s,
// finetune_s, eval_s — header indices 20-24), which legitimately differ
// between runs; every other column must match exactly.
std::string strip_timing_columns(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i >= 20 && i <= 24) continue;
    out += fields[i];
    out += ',';
  }
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

TEST_F(PoolFixture, SweepCsvBitIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> strategies = {"global-weight", "random"};
  const std::vector<double> compressions = {2.0, 4.0};
  const std::vector<uint64_t> seeds = {1};
  const std::string dir = ::testing::TempDir() + "/sb_det_sweep";
  std::filesystem::remove_all(dir);

  const auto run = [&](int workers, const std::string& tag) {
    // Separate cache dirs so neither run serves the other's results.
    ExperimentRunner runner(dir + "/cache_" + tag);
    SweepOptions options;
    options.csv_path = dir + "/sweep_" + tag + ".csv";
    options.parallel = workers;
    SweepSummary summary;
    const auto results =
        run_sweep(runner, sweep_config(), strategies, compressions, seeds, options, &summary);
    EXPECT_EQ(summary.completed, strategies.size() * compressions.size());
    EXPECT_EQ(summary.failures, 0u);
    EXPECT_FALSE(summary.interrupted);
    return results;
  };

  const auto sequential = run(1, "seq");
  const auto parallel = run(3, "par");

  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    // Row order is grid order in both modes, and metrics are
    // bit-identical because each experiment's arithmetic is unchanged.
    EXPECT_EQ(sequential[i].config.strategy, parallel[i].config.strategy);
    EXPECT_EQ(sequential[i].config.target_compression, parallel[i].config.target_compression);
    EXPECT_EQ(sequential[i].pre_top1, parallel[i].pre_top1) << "row " << i;
    EXPECT_EQ(sequential[i].post_top1, parallel[i].post_top1) << "row " << i;
    EXPECT_EQ(sequential[i].post_loss, parallel[i].post_loss) << "row " << i;
    EXPECT_EQ(sequential[i].compression, parallel[i].compression) << "row " << i;
  }

  const auto lines_seq = read_lines(dir + "/sweep_seq.csv");
  const auto lines_par = read_lines(dir + "/sweep_par.csv");
  ASSERT_EQ(lines_seq.size(), lines_par.size());
  ASSERT_EQ(lines_seq.size(), sequential.size() + 1);  // header + rows
  for (size_t i = 0; i < lines_seq.size(); ++i) {
    EXPECT_EQ(strip_timing_columns(lines_seq[i]), strip_timing_columns(lines_par[i]))
        << "line " << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shrinkbench
