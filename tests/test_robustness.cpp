// Crash-safety and fault-tolerance tests: atomic writes, checksummed
// result-cache entries (corruption -> quarantine -> recompute), failure
// isolation + retries in run_sweep, incremental CSV output, and
// killed-then-restarted sweeps resuming with zero recomputation. Every
// failure path is driven deterministically through the SB_FAULT-style
// injection hooks (obs::set_fault_spec / obs::fault_point).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "data/loader.hpp"
#include "models/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "obs/io.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"

namespace shrinkbench {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

size_t count_files_with(const fs::path& dir, const std::string& needle) {
  size_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    n += entry.path().filename().string().find(needle) != std::string::npos;
  }
  return n;
}

// Cheapest possible end-to-end experiment: accuracy values are never
// asserted, only determinism and cache behavior.
ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.dataset = "synth-mnist";
  cfg.arch = "lenet-300-100";
  cfg.strategy = "global-weight";
  cfg.target_compression = 2.0;
  cfg.pretrain.epochs = 2;
  cfg.pretrain.batch_size = 64;
  cfg.pretrain.patience = 0;
  cfg.finetune.epochs = 1;
  cfg.finetune.patience = 0;
  return cfg;
}

struct RobustnessFixture : ::testing::Test {
  std::string cache_dir;
  std::string out_dir;
  std::unique_ptr<ExperimentRunner> runner;

  void SetUp() override {
    cache_dir = ::testing::TempDir() + "/sb_robust_cache";
    out_dir = ::testing::TempDir() + "/sb_robust_out";
    fs::remove_all(cache_dir);
    fs::remove_all(out_dir);
    obs::set_fault_spec("");
    clear_sweep_interrupt();
    runner = std::make_unique<ExperimentRunner>(cache_dir);
  }
  void TearDown() override {
    obs::set_fault_spec("");
    clear_sweep_interrupt();
    fs::remove_all(cache_dir);
    fs::remove_all(out_dir);
  }

  fs::path result_entry() const {
    const fs::path dir = fs::path(cache_dir) / "results";
    if (fs::exists(dir)) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".result") return entry.path();
      }
    }
    return {};
  }
};

// ---- atomic_write_file ----

TEST(AtomicWrite, RoundTripsAndCreatesParents) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_atomic";
  fs::remove_all(dir);
  const fs::path file = dir / "a" / "b" / "out.txt";
  ASSERT_TRUE(obs::atomic_write_file(file, "hello\nworld\n"));
  EXPECT_EQ(slurp(file), "hello\nworld\n");
  // Overwrite replaces atomically.
  ASSERT_TRUE(obs::atomic_write_file(file, "v2"));
  EXPECT_EQ(slurp(file), "v2");
  EXPECT_EQ(count_files_with(dir, ".tmp."), 0u);
  fs::remove_all(dir);
}

TEST(AtomicWrite, ShortWriteLeavesNoPartialFile) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_atomic_short";
  fs::remove_all(dir);
  const fs::path file = dir / "out.txt";
  obs::set_fault_spec("io.short_write:1");
  EXPECT_FALSE(obs::atomic_write_file(file, "doomed"));
  EXPECT_FALSE(fs::exists(file));                      // nothing visible at the target
  EXPECT_EQ(count_files_with(dir, ".tmp."), 0u);       // temp cleaned up
  // Fault consumed: the retry lands intact.
  EXPECT_TRUE(obs::atomic_write_file(file, "ok"));
  EXPECT_EQ(slurp(file), "ok");
  obs::set_fault_spec("");
  fs::remove_all(dir);
}

// Regression: the temp path used to be <path>.tmp.<pid>, so two threads
// flushing the same destination shared one temp file and tore each other
// mid-write (fclose EBADF races, partial renames). The per-process
// sequence suffix makes every in-flight temp unique.
TEST(AtomicWrite, ConcurrentWritersToOneDestinationNeverTear) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_atomic_race";
  fs::remove_all(dir);
  const fs::path file = dir / "out.txt";
  constexpr int kThreads = 8;
  constexpr int kWrites = 40;
  std::atomic<int> failures{0};
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t) {
    payloads.push_back(std::string(4096, static_cast<char>('a' + t)) + "\n");
  }
  std::vector<std::thread> crew;
  for (int t = 0; t < kThreads; ++t) {
    crew.emplace_back([&, t] {
      for (int w = 0; w < kWrites; ++w) {
        if (!obs::atomic_write_file(file, payloads[static_cast<size_t>(t)])) ++failures;
      }
    });
  }
  for (std::thread& th : crew) th.join();
  EXPECT_EQ(failures.load(), 0);  // no writer ever saw a torn temp file
  // Last rename wins, but whatever won must be one writer's payload in
  // full — never an interleaving or a truncation.
  const std::string final_bytes = slurp(file);
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), final_bytes), payloads.end());
  EXPECT_EQ(count_files_with(dir, ".tmp."), 0u);  // every temp renamed or removed
  fs::remove_all(dir);
}

TEST(AtomicWrite, FaultSpecCountsPerSite) {
  obs::set_fault_spec("site.a:2,site.b:*");
  EXPECT_FALSE(obs::fault_point("site.a"));  // call 1
  EXPECT_TRUE(obs::fault_point("site.a"));   // call 2 fires
  EXPECT_FALSE(obs::fault_point("site.a"));  // call 3
  EXPECT_TRUE(obs::fault_point("site.b"));   // '*' fires always
  EXPECT_TRUE(obs::fault_point("site.b"));
  obs::set_fault_spec("");
  EXPECT_FALSE(obs::fault_point("site.b"));  // disarmed
}

TEST(AtomicWrite, ChecksumIsStable) {
  EXPECT_EQ(obs::fnv1a64(""), 0xcbf29ce484222325ULL);  // FNV offset basis
  EXPECT_EQ(obs::checksum_hex("abc").size(), 16u);
  EXPECT_NE(obs::checksum_hex("abc"), obs::checksum_hex("abd"));
}

// ---- result cache durability ----

TEST_F(RobustnessFixture, CacheWriteFailureDoesNotPoisonLaterRuns) {
  const ExperimentConfig cfg = tiny_config();
  obs::set_fault_spec("io.short_write:*");
  const ExperimentResult r1 = runner->run(cfg);  // runs fine, cache write dropped
  EXPECT_FALSE(r1.failed);
  EXPECT_EQ(result_entry(), fs::path{});  // truncated entry never became visible

  obs::set_fault_spec("");
  const ExperimentResult r2 = runner->run(cfg);  // recomputed, now cached
  EXPECT_FALSE(r2.from_cache);
  EXPECT_DOUBLE_EQ(r1.post_top1, r2.post_top1);  // determinism: same experiment
  const ExperimentResult r3 = runner->run(cfg);
  EXPECT_TRUE(r3.from_cache);
}

TEST_F(RobustnessFixture, CorruptCacheEntryIsQuarantinedAndRecomputed) {
  const ExperimentConfig cfg = tiny_config();
  const ExperimentResult r1 = runner->run(cfg);
  const fs::path entry = result_entry();
  ASSERT_FALSE(entry.empty());

  // Flip bytes in the metrics line, keeping the three-line shape — the
  // checksum must catch it.
  std::string bytes = slurp(entry);
  const size_t line2 = bytes.find('\n') + 1;
  ASSERT_LT(line2 + 4, bytes.size());
  bytes[line2] = bytes[line2] == '9' ? '8' : '9';
  {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os << bytes;
  }

  ExperimentRunner fresh(cache_dir);
  const ExperimentResult r2 = fresh.run(cfg);
  EXPECT_FALSE(r2.from_cache);                       // recomputed, never parsed
  EXPECT_DOUBLE_EQ(r1.post_top1, r2.post_top1);
  EXPECT_EQ(count_files_with(fs::path(cache_dir) / "results", ".corrupt"), 1u);
  const ExperimentResult r3 = fresh.run(cfg);        // rewritten entry is valid again
  EXPECT_TRUE(r3.from_cache);
}

// Regression: quarantining a corrupt entry when <entry>.corrupt already
// existed (same entry corrupted twice across runs) used to race the
// rename and could leave the corrupt entry in place, re-warning on every
// read. The quarantine must replace the old capture and stay idempotent.
TEST_F(RobustnessFixture, QuarantineReplacesExistingCorruptCapture) {
  const ExperimentConfig cfg = tiny_config();
  const ExperimentResult r1 = runner->run(cfg);
  const fs::path entry = result_entry();
  ASSERT_FALSE(entry.empty());

  // A stale capture from a previous quarantine of the same entry.
  fs::path stale = entry;
  stale += ".corrupt";
  {
    std::ofstream os(stale, std::ios::binary);
    os << "older corrupt capture";
  }

  std::string bytes = slurp(entry);
  const size_t line2 = bytes.find('\n') + 1;
  ASSERT_LT(line2 + 4, bytes.size());
  bytes[line2] = bytes[line2] == '9' ? '8' : '9';
  {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os << bytes;
  }

  ExperimentRunner fresh(cache_dir);
  const ExperimentResult r2 = fresh.run(cfg);
  EXPECT_FALSE(r2.from_cache);
  EXPECT_DOUBLE_EQ(r1.post_top1, r2.post_top1);
  // Exactly one capture (the new one replaced the stale file), and the
  // rewritten entry is live again.
  EXPECT_EQ(count_files_with(fs::path(cache_dir) / "results", ".corrupt"), 1u);
  EXPECT_NE(slurp(stale), "older corrupt capture");
  const ExperimentResult r3 = fresh.run(cfg);
  EXPECT_TRUE(r3.from_cache);
}

TEST_F(RobustnessFixture, CorruptInjectionAtWriteTimeIsDetectedOnRead) {
  const ExperimentConfig cfg = tiny_config();
  obs::set_fault_spec("cache.corrupt:1");  // bit-rot the entry as it is written
  runner->run(cfg);
  obs::set_fault_spec("");

  ExperimentRunner fresh(cache_dir);
  const ExperimentResult r = fresh.run(cfg);
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(count_files_with(fs::path(cache_dir) / "results", ".corrupt"), 1u);
}

TEST_F(RobustnessFixture, PreChecksumEntryIsSilentStaleMiss) {
  const ExperimentConfig cfg = tiny_config();
  runner->run(cfg);
  const fs::path entry = result_entry();
  ASSERT_FALSE(entry.empty());

  // Strip the "#crc" line: the layout of cache entries before checksums.
  std::string bytes = slurp(entry);
  const size_t crc_at = bytes.find("#crc ");
  ASSERT_NE(crc_at, std::string::npos);
  {
    std::ofstream os(entry, std::ios::binary | std::ios::trunc);
    os << bytes.substr(0, crc_at);
  }

  ExperimentRunner fresh(cache_dir);
  const ExperimentResult r = fresh.run(cfg);
  EXPECT_FALSE(r.from_cache);  // recomputed...
  EXPECT_EQ(count_files_with(fs::path(cache_dir) / "results", ".corrupt"), 0u);  // ...quietly
}

// ---- failure isolation in run_sweep ----

// Regression: a sweep whose rows all hit the result cache has no timing
// sample, and the ETA used to extrapolate from garbage (0.0s, or the
// last run's numbers). With no miss timing the sweep must say so.
TEST_F(RobustnessFixture, AllCacheHitSweepReportsUnknownEta) {
  ExperimentConfig base = tiny_config();
  SweepOptions options;
  options.retries = 0;
  SweepSummary sum;
  run_sweep(*runner, base, {base.strategy}, {2.0}, {1, 2}, options, &sum);  // warm the cache
  ASSERT_EQ(sum.failures, 0u);

  fs::create_directories(out_dir);
  const std::string log_path = out_dir + "/sweep.log";
  obs::set_log_file(log_path);
  SweepSummary warm;
  run_sweep(*runner, base, {base.strategy}, {2.0}, {1, 2}, options, &warm);
  obs::set_log_file("");
  EXPECT_EQ(warm.cache_hits, 2u);
  const std::string log = slurp(log_path);
  EXPECT_NE(log.find("eta unknown"), std::string::npos);  // every row: no estimate
  EXPECT_EQ(log.find("eta 0.0s"), std::string::npos);     // the old lie
}

TEST_F(RobustnessFixture, ThrowingExperimentBecomesFailedRowAndSweepContinues) {
  ExperimentConfig base = tiny_config();
  SweepOptions options;
  options.csv_path = out_dir + "/sweep.csv";
  options.retries = 0;
  SweepSummary summary;
  obs::set_fault_spec("experiment.throw:1");
  const auto results =
      run_sweep(*runner, base, {"global-weight"}, {2.0, 4.0}, {1}, options, &summary);
  obs::set_fault_spec("");

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_NE(results[0].error.find("injected"), std::string::npos);
  EXPECT_FALSE(results[1].failed);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.failures, 1u);
  EXPECT_EQ(summary.exit_code(), 1);

  // The failed row is in the streamed CSV, error string and all.
  const std::string csv = slurp(options.csv_path);
  EXPECT_NE(csv.find(",failed,"), std::string::npos);
  EXPECT_NE(csv.find("injected"), std::string::npos);
  EXPECT_NE(csv.find(",ok,"), std::string::npos);
}

TEST_F(RobustnessFixture, RetryRecoversTransientFailure) {
  ExperimentConfig base = tiny_config();
  SweepOptions options;
  options.retries = 1;
  SweepSummary summary;
  obs::set_fault_spec("experiment.throw:1");  // first attempt only
  const auto results = run_sweep(*runner, base, {"global-weight"}, {2.0}, {1}, options, &summary);
  obs::set_fault_spec("");

  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].failed);
  EXPECT_EQ(summary.failures, 0u);
  EXPECT_EQ(summary.exit_code(), 0);
}

TEST_F(RobustnessFixture, FailedRowRoundTripsThroughCsv) {
  ExperimentResult r;
  r.config = tiny_config();
  r.failed = true;
  r.error = "bad, \"quoted\" and\nmultiline";
  const std::string row = experiment_csv_row(r);
  EXPECT_NE(row.find(",failed,"), std::string::npos);
  EXPECT_EQ(row.find('\n'), std::string::npos);  // one row stays one line
  const auto commas_outside_quotes = [](const std::string& s) {
    int n = 0;
    bool quoted = false;
    for (const char c : s) {
      if (c == '"') quoted = !quoted;
      n += (c == ',' && !quoted);
    }
    return n;
  };
  EXPECT_EQ(commas_outside_quotes(row),
            commas_outside_quotes(experiment_csv_header()));
}

// ---- crash / interrupt / resume ----

TEST_F(RobustnessFixture, AbortedSweepResumesWithZeroRecomputation) {
  ExperimentConfig base = tiny_config();
  const std::vector<std::string> strategies = {"global-weight", "random"};
  const std::vector<double> ratios = {2.0, 4.0};
  SweepOptions options;
  options.csv_path = out_dir + "/resume.csv";

  // "Crash" after two experiments: the abort throws out of run_sweep,
  // leaving the incremental CSV and the result cache as a kill -9 would.
  obs::set_fault_spec("sweep.abort:3");
  EXPECT_THROW(run_sweep(*runner, base, strategies, ratios, {1}, options), std::runtime_error);
  obs::set_fault_spec("");
  const std::string partial = slurp(options.csv_path);
  EXPECT_EQ(std::count(partial.begin(), partial.end(), '\n'), 3);  // header + 2 rows

  // Restart: the two pre-crash configs come from the cache, only the
  // remaining two are computed.
  ExperimentRunner restarted(cache_dir);
  SweepSummary resume;
  const auto results = run_sweep(restarted, base, strategies, ratios, {1}, options, &resume);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(resume.cache_hits, 2u);
  EXPECT_EQ(resume.failures, 0u);
  const std::string full = slurp(options.csv_path);
  EXPECT_EQ(partial, full.substr(0, partial.size()));  // prefix preserved verbatim

  // A fully-cached rerun reproduces the final CSV byte for byte.
  ExperimentRunner rerun(cache_dir);
  SweepSummary cached;
  run_sweep(rerun, base, strategies, ratios, {1}, options, &cached);
  EXPECT_EQ(cached.cache_hits, 4u);
  EXPECT_EQ(slurp(options.csv_path), full);
}

TEST_F(RobustnessFixture, InterruptFlushesAndStopsCleanly) {
  ExperimentConfig base = tiny_config();
  SweepOptions options;
  options.csv_path = out_dir + "/interrupted.csv";
  SweepSummary summary;
  obs::set_fault_spec("sweep.interrupt:2");  // SIGINT arrives before experiment 2
  const auto results =
      run_sweep(*runner, base, {"global-weight"}, {2.0, 4.0}, {1}, options, &summary);
  obs::set_fault_spec("");
  clear_sweep_interrupt();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.completed, 1u);
  EXPECT_EQ(summary.exit_code(), 130);
  const std::string csv = slurp(options.csv_path);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);  // header + the finished row
}

TEST_F(RobustnessFixture, PendingInterruptStopsSweepBeforeWork) {
  request_sweep_interrupt();
  SweepSummary summary;
  const auto results =
      run_sweep(*runner, tiny_config(), {"global-weight"}, {2.0}, {1}, {}, &summary);
  clear_sweep_interrupt();
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(summary.interrupted);
}

// ---- unopenable lock files ----

/// Turns a hang into a failure: unless disarmed within 20 s it requests
/// a sweep interrupt, which every sweep loop and pretrain wait honors.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(20), [this] { return disarmed_; })) {
            fired_ = true;
            request_sweep_interrupt();
          }
        }) {}
  ~Watchdog() { disarm(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops the timer; true when it had already fired.
  bool disarm() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return fired_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  bool fired_ = false;
  std::thread thread_;
};

int64_t counter(const char* name) {
  const auto snap = obs::Profiler::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Regression: an unopenable claim file used to read as a claim a peer
// holds, so a fleet worker deferred every point and polled forever. It
// must compute the rows unclaimed (and uncached) instead.
TEST_F(RobustnessFixture, UnopenableClaimFileComputesInsteadOfPolling) {
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  std::ofstream(fs::path(cache_dir) / "results") << "a file where the results dir belongs\n";
  SweepOptions options;
  options.shard_id = 0;
  options.shard_count = 2;
  options.retries = 0;
  SweepSummary summary;
  Watchdog watchdog;
  const auto results =
      run_sweep(*runner, tiny_config(), {"global-weight"}, {2.0, 4.0}, {1}, options, &summary);
  EXPECT_FALSE(watchdog.disarm());
  EXPECT_FALSE(summary.interrupted);
  ASSERT_EQ(results.size(), 2u);
  for (const ExperimentResult& r : results) {
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_FALSE(r.from_cache);
  }
  EXPECT_GE(counter("io.lock_open_failed"), 2);
  obs::set_profiling_enabled(false);
}

// Regression: the same misreading made PretrainedStore::get poll an
// unopenable <ckpt>.lock every 200 ms forever, in every sweep mode.
TEST_F(RobustnessFixture, UnopenablePretrainLockTrainsInsteadOfPolling) {
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  const ExperimentConfig cfg = tiny_config();
  const DatasetBundle& bundle = runner->dataset(cfg.dataset, cfg.data_seed);
  // PretrainedStore's checkpoint name; a directory in its lock file's
  // place can never be opened as a file.
  const std::string ckpt = bundle.spec.name + "_s" + std::to_string(bundle.spec.seed) + "_" +
                           cfg.arch + "_w" + std::to_string(cfg.width) + "_i" +
                           std::to_string(cfg.init_seed) + "_" + cfg.pretrain_tag + ".ckpt";
  fs::create_directories(fs::path(cache_dir) / (ckpt + ".lock"));
  Watchdog watchdog;
  ModelPtr model;
  try {
    model = runner->pretrained(cfg);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  EXPECT_FALSE(watchdog.disarm());
  EXPECT_FALSE(sweep_interrupt_requested());
  EXPECT_NE(model, nullptr);
  EXPECT_TRUE(fs::exists(fs::path(cache_dir) / ckpt));
  EXPECT_GE(counter("io.lock_open_failed"), 1);
  obs::set_profiling_enabled(false);
}

// Regression: resuming an incremental CSV whose last line was torn by a
// kill mid-append glued the next row onto the fragment.
TEST_F(RobustnessFixture, ResumedCsvDropsTornLastLine) {
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  const ExperimentConfig base = tiny_config();
  SweepOptions options;
  options.csv_path = out_dir + "/torn.csv";
  run_sweep(*runner, base, {"global-weight"}, {2.0}, {1}, options);
  const std::string fragment = "synth-mnist,lenet-300-100,0,glob";
  std::ofstream(options.csv_path, std::ios::app) << fragment;

  options.append = true;
  SweepSummary summary;
  run_sweep(*runner, base, {"global-weight"}, {4.0}, {1}, options, &summary);
  EXPECT_EQ(summary.completed, 1u);
  EXPECT_EQ(counter("sweep.csv_torn_tail"), 1);
  obs::set_profiling_enabled(false);

  // Every line is whole, and the fragment's "synth-mnist" is gone: one
  // per row is left.
  const auto fields = [](const std::string& line) {
    return std::count(line.begin(), line.end(), ',');
  };
  std::istringstream csv(slurp(options.csv_path));
  std::vector<std::string> lines;
  size_t datasets = 0;
  for (std::string line; std::getline(csv, line);) {
    EXPECT_EQ(fields(line), fields(experiment_csv_header())) << line;
    for (size_t at = line.find("synth-mnist"); at != std::string::npos;
         at = line.find("synth-mnist", at + 1)) {
      ++datasets;
    }
    lines.push_back(line);
  }
  EXPECT_EQ(lines.size(), 3u);  // header + one row per sweep
  EXPECT_EQ(datasets, 2u);
}

// ---- training checkpoints ----

// Small but representative model: conv + batchnorm (running stats) +
// dropout (layer RNG stream) + prunable weights (masks).
SyntheticSpec ckpt_spec() {
  SyntheticSpec spec = synth_mnist();
  spec.train_size = 128;
  spec.val_size = 64;
  spec.test_size = 64;
  return spec;
}

ModelPtr ckpt_model(const DatasetBundle& bundle) {
  ModelPtr model = make_model("cifar-vgg-dropout", bundle.train.sample_shape(),
                              bundle.train.num_classes, /*base_width=*/4);
  Rng rng(7);
  init_model(*model, rng);
  return model;
}

void expect_tensors_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())), 0)
      << what;
}

void expect_state_dicts_equal(const StateDict& a, const StateDict& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, tensor] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    expect_tensors_equal(tensor, it->second, key);
  }
}

void expect_rng_states_equal(const RngState& a, const RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
}

TEST(TrainCheckpointTest, RoundTripsAllState) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_ckpt_roundtrip";
  fs::remove_all(dir);
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);

  // Give every piece of state a non-default value: masks via pruning, BN
  // stats + dropout RNG via a training step, Adam moments + t via step().
  Rng prune_rng(3);
  prune_model(*model, strategy_from_name("global-weight"), 0.5, bundle.train, {}, prune_rng);
  DataLoader loader(bundle.train, 32, /*shuffle=*/true, /*seed=*/5, {});
  Adam opt(parameters_of(*model), {});
  SoftmaxCrossEntropy loss;
  Batch batch;
  ASSERT_TRUE(loader.next(batch));
  opt.zero_grad();
  loss.forward(model->forward(batch.x, /*train=*/true), batch.y);
  model->backward(loss.backward());
  opt.step();

  TrainCheckpoint ck;
  ck.epoch = 3;
  ck.lr_scale = 0.25;
  ck.model = state_dict(*model);
  ck.best_state = ck.model;
  ck.optimizer = opt.state();
  const DataLoaderState ls = loader.state();
  ck.loader_shuffle_rng = ls.shuffle_rng;
  ck.loader_augment_rng = ls.augment_rng;
  ck.layer_rng = layer_rng_states(*model);
  ck.history = {{0, 2.0, 0.3, 1.9}, {1, 1.5, 0.4, 1.6}};
  ck.best_val_top1 = 0.4;
  ck.best_epoch = 1;
  ck.epochs_since_best = 2;
  ck.anomalies = 5;
  ck.skipped_batches = 2;
  ck.rollbacks = 1;
  ASSERT_TRUE(save_train_checkpoint(ck, dir.string()));

  TrainCheckpoint out;
  ASSERT_TRUE(load_latest_train_checkpoint(dir.string(), out));
  EXPECT_EQ(out.epoch, 3);
  EXPECT_DOUBLE_EQ(out.lr_scale, 0.25);
  // The StateDict carries masks and batchnorm running stats by key.
  EXPECT_GT(std::count_if(out.model.begin(), out.model.end(),
                          [](const auto& kv) {
                            return kv.first.find(".mask") != std::string::npos;
                          }),
            0);
  EXPECT_GT(std::count_if(out.model.begin(), out.model.end(),
                          [](const auto& kv) {
                            return kv.first.find(".running_mean") != std::string::npos;
                          }),
            0);
  expect_state_dicts_equal(ck.model, out.model);
  expect_state_dicts_equal(ck.best_state, out.best_state);
  EXPECT_EQ(out.optimizer.kind, "adam");
  ASSERT_EQ(out.optimizer.slots.size(), ck.optimizer.slots.size());
  for (size_t i = 0; i < ck.optimizer.slots.size(); ++i) {
    EXPECT_EQ(out.optimizer.slots[i].first, ck.optimizer.slots[i].first);
    expect_tensors_equal(out.optimizer.slots[i].second, ck.optimizer.slots[i].second,
                         ck.optimizer.slots[i].first);
  }
  ASSERT_EQ(out.optimizer.scalars.size(), 1u);
  EXPECT_EQ(out.optimizer.scalars[0].first, "t");
  EXPECT_DOUBLE_EQ(out.optimizer.scalars[0].second, 1.0);  // one step taken
  expect_rng_states_equal(out.loader_shuffle_rng, ck.loader_shuffle_rng);
  expect_rng_states_equal(out.loader_augment_rng, ck.loader_augment_rng);
  ASSERT_EQ(out.layer_rng.size(), ck.layer_rng.size());
  ASSERT_GE(out.layer_rng.size(), 1u);  // the dropout layer
  for (size_t i = 0; i < ck.layer_rng.size(); ++i) {
    EXPECT_EQ(out.layer_rng[i].first, ck.layer_rng[i].first);
    expect_rng_states_equal(out.layer_rng[i].second, ck.layer_rng[i].second);
  }
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_DOUBLE_EQ(out.history[1].train_loss, 1.5);
  EXPECT_DOUBLE_EQ(out.best_val_top1, 0.4);
  EXPECT_EQ(out.best_epoch, 1);
  EXPECT_EQ(out.epochs_since_best, 2);
  EXPECT_EQ(out.anomalies, 5);
  EXPECT_EQ(out.skipped_batches, 2);
  EXPECT_EQ(out.rollbacks, 1);
  fs::remove_all(dir);
}

// best_state is usually a byte copy of the model dict (validation just
// improved); the writer collapses that to a flag. Both the deduplicated
// and the distinct encoding must round-trip, and the dedup must shrink
// the file.
TEST(TrainCheckpointTest, DedupesBestStateWhenIdenticalToModel) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_ckpt_dedup";
  fs::remove_all(dir);
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);

  TrainCheckpoint same;
  same.epoch = 0;
  same.model = state_dict(*model);
  same.best_state = same.model;
  same.optimizer = {"stateless", {}, {}};
  ASSERT_TRUE(save_train_checkpoint(same, dir.string(), /*keep=*/4));

  TrainCheckpoint distinct = same;
  distinct.epoch = 1;
  distinct.best_state.begin()->second.data()[0] += 1.0f;
  ASSERT_TRUE(save_train_checkpoint(distinct, dir.string(), /*keep=*/4));

  const auto size_of = [&](int64_t epoch) {
    return fs::file_size(train_checkpoint_path(dir.string(), epoch));
  };
  EXPECT_LT(size_of(0), size_of(1));

  TrainCheckpoint out;
  ASSERT_TRUE(load_train_checkpoint(train_checkpoint_path(dir.string(), 0), out));
  expect_state_dicts_equal(same.best_state, out.best_state);
  ASSERT_TRUE(load_train_checkpoint(train_checkpoint_path(dir.string(), 1), out));
  expect_state_dicts_equal(distinct.best_state, out.best_state);
  expect_state_dicts_equal(distinct.model, out.model);
  fs::remove_all(dir);
}

TEST(TrainCheckpointTest, CorruptNewestFallsBackToPrevious) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_ckpt_fallback";
  fs::remove_all(dir);
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  TrainCheckpoint ck;
  ck.model = state_dict(*model);
  ck.optimizer = {"stateless", {}, {}};
  ck.epoch = 0;
  ASSERT_TRUE(save_train_checkpoint(ck, dir.string()));
  ck.epoch = 1;
  ASSERT_TRUE(save_train_checkpoint(ck, dir.string()));

  // Bit-flip the newest checkpoint: its checksum fails, it is quarantined,
  // and the loader falls back to the epoch-0 file.
  const fs::path newest = train_checkpoint_path(dir.string(), 1);
  std::string bytes = slurp(newest);
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream os(newest, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  TrainCheckpoint out;
  ASSERT_TRUE(load_latest_train_checkpoint(dir.string(), out));
  EXPECT_EQ(out.epoch, 0);
  EXPECT_EQ(count_files_with(dir, ".corrupt"), 1u);

  // Truncate the survivor too: nothing valid remains.
  const fs::path oldest = train_checkpoint_path(dir.string(), 0);
  bytes = slurp(oldest);
  {
    std::ofstream os(oldest, std::ios::binary | std::ios::trunc);
    os << bytes.substr(0, bytes.size() / 3);
  }
  EXPECT_FALSE(load_latest_train_checkpoint(dir.string(), out));
  EXPECT_EQ(count_files_with(dir, ".corrupt"), 2u);
  fs::remove_all(dir);
}

TEST(TrainCheckpointTest, WriteTimeCorruptionInjectionIsCaught) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_ckpt_writecorrupt";
  fs::remove_all(dir);
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  TrainCheckpoint ck;
  ck.model = state_dict(*model);
  ck.optimizer = {"stateless", {}, {}};
  ck.epoch = 0;
  ASSERT_TRUE(save_train_checkpoint(ck, dir.string()));
  obs::set_fault_spec("ckpt.corrupt:1");  // bit-rot epoch 1 as it is written
  ck.epoch = 1;
  ASSERT_TRUE(save_train_checkpoint(ck, dir.string()));
  obs::set_fault_spec("");
  TrainCheckpoint out;
  ASSERT_TRUE(load_latest_train_checkpoint(dir.string(), out));
  EXPECT_EQ(out.epoch, 0);
  EXPECT_EQ(count_files_with(dir, ".corrupt"), 1u);
  fs::remove_all(dir);
}

// ---- numeric-anomaly detection and recovery ----

TrainOptions anomaly_train_options() {
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 32;
  opts.patience = 0;
  opts.grad_check_every = 1;
  return opts;
}

TEST(TrainAnomaly, ThrowPolicyFailsFastOnNanLoss) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  obs::set_fault_spec("train.nan_loss:2");
  EXPECT_THROW(train_model(*model, bundle, anomaly_train_options()), NumericAnomalyError);
  obs::set_fault_spec("");
}

TEST(TrainAnomaly, ThrowPolicyFailsFastOnNanGrad) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  obs::set_fault_spec("train.nan_grad:1");
  EXPECT_THROW(train_model(*model, bundle, anomaly_train_options()), NumericAnomalyError);
  obs::set_fault_spec("");
}

TEST(TrainAnomaly, SkipBatchDropsTheBatchAndFinishes) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  TrainOptions opts = anomaly_train_options();
  opts.anomaly_policy = AnomalyPolicy::SkipBatch;
  obs::set_fault_spec("train.nan_loss:2");
  const TrainHistory hist = train_model(*model, bundle, opts);
  obs::set_fault_spec("");
  EXPECT_EQ(hist.anomalies, 1);
  EXPECT_EQ(hist.skipped_batches, 1);
  EXPECT_EQ(hist.rollbacks, 0);
  EXPECT_EQ(static_cast<int>(hist.epochs.size()), opts.epochs);
  EXPECT_TRUE(std::isfinite(hist.epochs.back().train_loss));
}

TEST(TrainAnomaly, SkipBatchDropsANonFiniteConvGradient) {
  // A finite loss meets a non-finite conv dW. One input pixel of a dead,
  // pruned channel holds FLT_MAX: the forward multiplies it by that
  // channel's zero weights, so the logits and the loss stay finite, but
  // the conv backward multiplies it by dY, and the classifier's weights
  // are scaled up so that dY exceeds 1 in magnitude and the product
  // overflows to Inf. The gradient check must see it and drop that one
  // batch per epoch. Channel 1 reads +0 everywhere else, so its pruned
  // weights get zero gradients and stay zero through every optimizer step.
  SyntheticSpec spec = ckpt_spec();
  spec.channels = 2;
  spec.height = spec.width = 4;
  spec.num_classes = 4;
  DatasetBundle bundle = make_synthetic(spec);
  Tensor& images = bundle.train.images;
  for (int64_t i = 0; i < images.size(0); ++i) {
    std::fill(images.data() + (i * 2 + 1) * 16, images.data() + (i * 2 + 2) * 16, 0.0f);
  }
  images(5, 1, 1, 2) = std::numeric_limits<float>::max();
  Model model("m");
  model.emplace<Conv2d>("conv", 2, 4, 3, 1, 1, false);
  model.emplace<Flatten>("flatten");
  model.emplace<Linear>("fc", 4 * 4 * 4, 4, true, /*is_classifier=*/true);
  Rng rng(3);
  init_model(model, rng);
  auto& conv = static_cast<Conv2d&>(model[0]);
  ASSERT_LT(conv.output_sample_shape({2, 4, 4})[2], kDirectMinOutW);
  for (int64_t o = 0; o < 4; ++o) {
    for (int64_t k = 0; k < 9; ++k) {
      conv.weight().mask.data()[(o * 2 + 1) * 9 + k] = 0.0f;
    }
  }
  conv.weight().apply_mask();
  for (float& v : static_cast<Linear&>(model[2]).weight().data.flat()) v *= 1000.0f;
  Tensor one({1, 2, 4, 4});
  std::copy(images.data() + 5 * 32, images.data() + 6 * 32, one.data());
  const Tensor logits = model.forward(one, /*train=*/true);
  for (int64_t j = 0; j < logits.numel(); ++j) ASSERT_TRUE(std::isfinite(logits.data()[j]));

  TrainOptions opts = anomaly_train_options();
  opts.anomaly_policy = AnomalyPolicy::SkipBatch;
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  const TrainHistory hist = train_model(model, bundle, opts);
  EXPECT_EQ(counter("train.anomaly.grad"), opts.epochs);
  EXPECT_EQ(counter("train.anomaly.loss"), 0);
  obs::set_profiling_enabled(false);
  EXPECT_EQ(hist.anomalies, opts.epochs);
  EXPECT_EQ(hist.skipped_batches, opts.epochs);
  EXPECT_EQ(static_cast<int>(hist.epochs.size()), opts.epochs);
  EXPECT_TRUE(std::isfinite(hist.epochs.back().train_loss));
  for (const Parameter* p : parameters_of(model)) {
    for (int64_t j = 0; j < p->numel(); ++j) EXPECT_TRUE(std::isfinite(p->data.data()[j]));
  }
}

TEST(TrainAnomaly, RollbackRestoresLastGoodAndHalvesLr) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  TrainOptions opts = anomaly_train_options();
  opts.epochs = 3;
  opts.anomaly_policy = AnomalyPolicy::Rollback;
  obs::set_fault_spec("train.nan_loss:6");  // mid-epoch, after a good epoch
  const TrainHistory hist = train_model(*model, bundle, opts);
  obs::set_fault_spec("");
  EXPECT_EQ(hist.anomalies, 1);
  EXPECT_EQ(hist.rollbacks, 1);
  EXPECT_FLOAT_EQ(hist.lr_scale, 0.5f);
  EXPECT_EQ(static_cast<int>(hist.epochs.size()), opts.epochs);
}

TEST(TrainAnomaly, RollbackBudgetExhaustionThrows) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  TrainOptions opts = anomaly_train_options();
  opts.anomaly_policy = AnomalyPolicy::Rollback;
  opts.anomaly_max_rollbacks = 2;
  obs::set_fault_spec("train.nan_loss:*");  // every batch diverges
  EXPECT_THROW(train_model(*model, bundle, opts), NumericAnomalyError);
  obs::set_fault_spec("");
}

TEST(TrainAnomaly, GradClippingBoundsGlobalNormAndDetectsNan) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  auto params = parameters_of(*model);
  int64_t n = 0;
  for (Parameter* p : params) {
    float* g = p->grad.data();
    for (int64_t j = 0; j < p->numel(); ++j) g[j] = 3.0f;
    n += p->numel();
  }
  SGD opt(params, {});
  EXPECT_TRUE(opt.grads_finite());
  const double pre_norm = opt.clip_global_grad_norm(1.0f);
  EXPECT_NEAR(pre_norm, 3.0 * std::sqrt(static_cast<double>(n)), 1e-3);
  double post_sq = 0.0;
  for (const Parameter* p : params) {
    const float* g = p->grad.data();
    for (int64_t j = 0; j < p->numel(); ++j) post_sq += static_cast<double>(g[j]) * g[j];
  }
  EXPECT_NEAR(std::sqrt(post_sq), 1.0, 1e-4);
  params[0]->grad.data()[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(opt.grads_finite());
  EXPECT_FALSE(std::isfinite(opt.clip_global_grad_norm(1.0f)));
}

// ---- train_model guards (satellites) ----

TEST(TrainGuards, EmptySplitThrowsDescriptively) {
  DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  DatasetBundle no_train = bundle;
  no_train.train.images = Tensor();
  EXPECT_THROW(train_model(*model, no_train, anomaly_train_options()), std::invalid_argument);
  DatasetBundle no_val = bundle;
  no_val.val.images = Tensor();
  EXPECT_THROW(train_model(*model, no_val, anomaly_train_options()), std::invalid_argument);
}

TEST(TrainGuards, ZeroEpochRunNeverClobbersWeights) {
  const DatasetBundle bundle = make_synthetic(ckpt_spec());
  ModelPtr model = ckpt_model(bundle);
  const StateDict before = state_dict(*model);
  TrainOptions opts = anomaly_train_options();
  opts.epochs = 0;
  opts.restore_best = true;  // best_state stays empty — must not be loaded
  const TrainHistory hist = train_model(*model, bundle, opts);
  EXPECT_EQ(hist.best_epoch, -1);
  expect_state_dicts_equal(before, state_dict(*model));
}

// ---- crash-and-resume through the experiment runner ----

TEST_F(RobustnessFixture, CrashedExperimentResumesFromCheckpoints) {
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  ExperimentConfig cfg = tiny_config();
  cfg.pretrain.epochs = 4;

  // Crash pretraining at epoch 2: epochs 0-1 are checkpointed.
  obs::set_fault_spec("train.crash_epoch:3");
  EXPECT_THROW(runner->run(cfg), std::runtime_error);
  obs::set_fault_spec("");
  auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("train.epochs"), 2);

  // The rerun resumes: only epochs 2-3 of pretraining plus the single
  // fine-tune epoch actually execute.
  obs::Profiler::instance().reset();
  const ExperimentResult resumed = runner->run(cfg);
  snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("train.epochs"), 3);
  EXPECT_GE(snap.counters.at("train.resume"), 1);
  obs::set_profiling_enabled(false);

  // Identical metrics to a run that never crashed (fresh cache).
  const std::string control_cache = ::testing::TempDir() + "/sb_robust_cache_control";
  fs::remove_all(control_cache);
  ExperimentRunner control_runner(control_cache);
  const ExperimentResult control = control_runner.run(cfg);
  EXPECT_DOUBLE_EQ(resumed.post_top1, control.post_top1);
  EXPECT_DOUBLE_EQ(resumed.post_top5, control.post_top5);
  EXPECT_DOUBLE_EQ(resumed.pre_top1, control.pre_top1);
  fs::remove_all(control_cache);

  // Checkpoints are transient resume state: once the pretrained model and
  // the result row are cached, the .ckpt files are cleaned up.
  EXPECT_EQ(count_files_with(fs::path(cache_dir) / "ckpt", ".ckpt"), 0u);
}

TEST_F(RobustnessFixture, AnomalyCountsSurfaceInRunManifest) {
  ExperimentResult r;
  r.config = tiny_config();
  r.anomalies = 3;
  r.skipped_batches = 2;
  r.rollbacks = 1;
  r.resumed_rounds = 1;
  const std::string path = out_dir + "/manifest.json";
  write_run_manifest(path, "unit", {r});
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"anomalies\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"skipped_batches\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rollbacks\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"resumed_rounds\": 1"), std::string::npos);

  // Clean rows stay schema-stable: no anomaly keys at all.
  ExperimentResult clean;
  clean.config = tiny_config();
  write_run_manifest(path, "unit", {clean});
  EXPECT_EQ(slurp(path).find("anomalies"), std::string::npos);
}

}  // namespace
}  // namespace shrinkbench
