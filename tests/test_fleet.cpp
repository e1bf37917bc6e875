// Multi-process fleet tests: real fork()ed workers racing one shared
// result cache. Covers the FileLock claim primitive (exclusion + free on
// death), exactly-once pretraining and experiment compute across
// processes (asserted through train.epochs counters, not log scraping),
// byte-identical full-grid CSVs from every worker, and convergence after
// a worker is kill -9'ed mid-sweep.
//
// Fork safety: this binary pins SB_THREADS=1 before anything can build
// the tensor pool, so forked children never inherit dead pool threads.
#include <gtest/gtest.h>

#if !defined(_WIN32)

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "obs/io.hpp"
#include "obs/profile.hpp"

namespace shrinkbench {
namespace {

namespace fs = std::filesystem;

// Must run before any test (or static) touches the thread pool: width 1
// keeps every child single-threaded and therefore fork-safe.
const bool g_single_threaded = [] {
  ::setenv("SB_THREADS", "1", 1);
  return true;
}();

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

// Cheapest grid that still exercises pretraining + several rows.
ExperimentConfig fleet_config() {
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

int64_t train_epochs_counter() {
  const auto snap = obs::snapshot_if_enabled();
  const auto it = snap.counters.find("train.epochs");
  return it == snap.counters.end() ? 0 : it->second;
}

/// Runs one fleet worker in this (child) process: full sweep over the
/// shared cache as shard `id` of `count` on `parallel` claiming threads,
/// then reports the number of training epochs this process actually ran
/// via a summary file the parent reads back. Exits with the sweep's exit
/// code (or 99 on throw).
[[noreturn]] void run_worker(const std::string& cache, const fs::path& out_dir, int id, int count,
                             const std::vector<std::string>& strategies,
                             const std::vector<double>& ratios, int parallel = 1) {
  obs::set_profiling_enabled(true);  // child-local; parent stays clean
  int code = 99;
  try {
    ExperimentRunner runner(cache);
    SweepOptions opts;
    opts.csv_path = (out_dir / ("fleet" + std::to_string(id) + ".csv")).string();
    opts.shard_id = id;
    opts.shard_count = count;
    opts.parallel = parallel;
    SweepSummary sum;
    const std::vector<ExperimentResult> results =
        run_sweep(runner, fleet_config(), strategies, ratios, {1}, opts, &sum);
    write_experiment_csv(opts.csv_path, results);
    // Closed before _exit: _exit skips destructors, so an open ofstream
    // would silently drop its buffered bytes.
    std::ofstream os(out_dir / ("worker" + std::to_string(id) + ".summary"));
    os << "epochs=" << train_epochs_counter() << "\ncompleted=" << sum.completed
       << "\nstolen=" << sum.stolen << "\nrows=" << results.size() << "\n";
    os.close();
    code = sum.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker %d: %s\n", id, e.what());
  }
  ::_exit(code);
}

int64_t summary_value(const fs::path& file, const std::string& key) {
  std::ifstream is(file);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(key + "=", 0) == 0) return std::atoll(line.c_str() + key.size() + 1);
  }
  return -1;
}

struct FleetFixture : ::testing::Test {
  std::string cache_dir;
  fs::path out_dir;

  void SetUp() override {
    cache_dir = ::testing::TempDir() + "/sb_fleet_cache";
    out_dir = fs::path(::testing::TempDir()) / "sb_fleet_out";
    fs::remove_all(cache_dir);
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);
    clear_sweep_interrupt();
  }
  void TearDown() override {
    clear_sweep_interrupt();
    fs::remove_all(cache_dir);
    fs::remove_all(out_dir);
  }
};

// ---- the claim primitive ----

TEST(FileLock, ExcludesAcrossProcessesAndFreesOnKill) {
  const fs::path dir = fs::path(::testing::TempDir()) / "sb_flock";
  fs::remove_all(dir);
  const fs::path lock_path = dir / "x.claim";

  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    obs::FileLock child_lock;
    if (!child_lock.try_acquire(lock_path)) ::_exit(1);
    char byte = 'r';
    (void)!::write(ready[1], &byte, 1);
    // Hold the lock until killed — never released in userspace.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(10));
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);  // child holds the lock now
  ::close(ready[0]);
  ::close(ready[1]);

  obs::FileLock lock;
  EXPECT_FALSE(lock.try_acquire(lock_path));  // exclusion across processes

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The kernel released the dead child's flock: claimable immediately.
  EXPECT_TRUE(lock.try_acquire(lock_path));
  lock.release(/*unlink_file=*/true);
  EXPECT_FALSE(fs::exists(lock_path));
  fs::remove_all(dir);
}

// ---- exactly-once pretraining across processes ----

TEST_F(FleetFixture, PretrainedIsTrainedOnceAcrossProcesses) {
  const ExperimentConfig cfg = fleet_config();
  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      obs::set_profiling_enabled(true);
      int code = 1;
      try {
        ExperimentRunner runner(cache_dir);
        ModelPtr model = runner.pretrained(cfg);
        code = model ? 0 : 1;
      } catch (...) {
      }
      std::ofstream os(out_dir / ("pretrain" + std::to_string(i) + ".summary"));
      os << "epochs=" << train_epochs_counter() << "\n";
      os.close();  // _exit skips destructors; flush explicitly
      ::_exit(code);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  // The flock on <ckpt>.lock serialized the miss path: one process ran
  // all pretrain epochs, the other waited and loaded the checkpoint.
  const int64_t e0 = summary_value(out_dir / "pretrain0.summary", "epochs");
  const int64_t e1 = summary_value(out_dir / "pretrain1.summary", "epochs");
  EXPECT_EQ(e0 + e1, cfg.pretrain.epochs);
  EXPECT_EQ(count_files_with(cache_dir, ".lock"), 0u);  // unlinked on release
}

// ---- the fleet itself ----

TEST_F(FleetFixture, TwoWorkersComputeExactlyOnceAndAgreeByteForByte) {
  const std::vector<std::string> strategies = {"global-weight", "layer-weight"};
  const std::vector<double> ratios = {2.0, 4.0};

  // Threads compose with shards: each worker claims through the same
  // protocol on one thread, then on two.
  for (const int parallel : {1, 2}) {
    SCOPED_TRACE("parallel " + std::to_string(parallel));
    fs::remove_all(cache_dir);
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);
    std::vector<pid_t> pids;
    for (int i = 0; i < 2; ++i) {
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) run_worker(cache_dir, out_dir, i, 2, strategies, ratios, parallel);
      pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // Exactly-once compute, counted in actual training epochs: pretraining
    // (2 epochs, once, fleet-wide) + 4 rows x 1 fine-tune epoch, however
    // they were distributed.
    const int64_t e0 = summary_value(out_dir / "worker0.summary", "epochs");
    const int64_t e1 = summary_value(out_dir / "worker1.summary", "epochs");
    EXPECT_EQ(e0 + e1, 2 + 4);

    // Every worker converged to the full grid...
    EXPECT_EQ(summary_value(out_dir / "worker0.summary", "rows"), 4);
    EXPECT_EQ(summary_value(out_dir / "worker1.summary", "rows"), 4);

    // ...and their final CSVs are byte-identical to each other and to a
    // sequential sweep of the same grid over the same cache.
    const std::string csv0 = slurp(out_dir / "fleet0.csv");
    const std::string csv1 = slurp(out_dir / "fleet1.csv");
    ASSERT_FALSE(csv0.empty());
    EXPECT_EQ(csv0, csv1);

    ExperimentRunner runner(cache_dir);
    SweepOptions control;
    control.shard_id = 0;
    control.shard_count = 1;
    control.parallel = 1;
    SweepSummary control_sum;
    const auto control_results =
        run_sweep(runner, fleet_config(), strategies, ratios, {1}, control, &control_sum);
    EXPECT_EQ(control_sum.cache_hits, 4u);  // fully warm: nothing recomputed
    const fs::path control_csv = out_dir / "control.csv";
    write_experiment_csv(control_csv.string(), control_results);
    EXPECT_EQ(csv0, slurp(control_csv));

    // The per-shard streams exist and carry the same rows.
    const std::string stream0 = slurp(out_dir / "fleet0.csv.shard0");
    const std::string stream1 = slurp(out_dir / "fleet1.csv.shard1");
    ASSERT_FALSE(stream0.empty());
    ASSERT_FALSE(stream1.empty());
    const auto sorted_lines = [](const std::string& text) {
      std::vector<std::string> lines;
      std::istringstream ss(text);
      for (std::string line; std::getline(ss, line);) lines.push_back(line);
      std::sort(lines.begin(), lines.end());
      return lines;
    };
    EXPECT_EQ(sorted_lines(stream0), sorted_lines(csv0));
    EXPECT_EQ(sorted_lines(stream1), sorted_lines(csv0));

    // No claim or quarantine debris in the shared cache.
    EXPECT_EQ(count_files_with(cache_dir, ".claim"), 0u);
    EXPECT_EQ(count_files_with(cache_dir, ".corrupt"), 0u);
    EXPECT_EQ(count_files_with(cache_dir, ".lock"), 0u);
  }
}

TEST_F(FleetFixture, FleetConvergesAfterWorkerIsKilled) {
  const std::vector<std::string> strategies = {"global-weight", "layer-weight"};
  const std::vector<double> ratios = {2.0, 4.0};

  const pid_t survivor = fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) run_worker(cache_dir, out_dir, 0, 2, strategies, ratios);
  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) run_worker(cache_dir, out_dir, 1, 2, strategies, ratios);

  // kill -9 the victim early — likely mid-pretrain or mid-row, holding
  // claims and possibly the pretrain lock. The kernel drops its flocks;
  // the survivor steals the work and converges alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(victim, SIGKILL);  // may lose the race with a very fast victim
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);

  ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(summary_value(out_dir / "worker0.summary", "rows"), 4);

  // "Restart" the killed shard in-process: everything is cached, so it
  // converges instantly and reproduces the identical full-grid CSV.
  ExperimentRunner runner(cache_dir);
  SweepOptions restart;
  restart.shard_id = 1;
  restart.shard_count = 2;
  restart.csv_path = (out_dir / "restart.csv").string();
  SweepSummary restart_sum;
  const auto rows = run_sweep(runner, fleet_config(), strategies, ratios, {1}, restart,
                              &restart_sum);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_EQ(restart_sum.cache_hits, 4u);
  write_experiment_csv(restart.csv_path, rows);
  EXPECT_EQ(slurp(out_dir / "restart.csv"), slurp(out_dir / "fleet0.csv"));
}

}  // namespace
}  // namespace shrinkbench

#endif  // !_WIN32
