// sb_fleet: multi-process sweep coordinator.
//
//   ./sb_fleet --workers 4 --strategies global-weight,layer-weight
//              --ratios 2,4,8 --seeds 1,2,3 --csv fleet.csv
//
// Forks N worker processes that shard one (strategy x ratio x seed)
// grid through the shared result cache: each worker claims grid points
// with flock'd claim files (see EXPERIMENTS.md "Fleet"), steals
// whatever a dead or slow peer left behind, and converges to the full
// grid. Workers are preemptible — kill -9 any of them and the
// coordinator restarts it; the restarted worker resumes from the result
// cache and the bit-identical training checkpoints, so the final CSV is
// byte-identical to a single-process run of the same sweep.
//
// Exit code: 0 clean, 1 some rows failed after retries, 130 interrupted.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/experiment.hpp"

using namespace shrinkbench;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

void usage(const char* argv0) {
  std::printf("usage: %s [options]\n", argv0);
  std::printf(
      "  --workers N          worker processes (default SB_FLEET_WORKERS or 2)\n"
      "  --strategies A,B,... pruning strategies (default global-weight)\n"
      "  --ratios A,B,...     target compression ratios (default 4)\n"
      "  --seeds A,B,...      run seeds (default 1)\n"
      "  --dataset NAME       synth-cifar10 | synth-imagenet | synth-mnist\n"
      "  --arch NAME          model architecture (default resnet-56)\n"
      "  --width N            base width override (0 = architecture default)\n"
      "  --schedule NAME      one-shot | iterative | polynomial (default one-shot)\n"
      "  --steps N            pruning rounds for iterative/polynomial (default 3)\n"
      "  --epochs N           fine-tune epochs (default 10)\n"
      "  --pretrain-epochs N  pretraining epochs (default 60; cached per config)\n"
      "  --prune-classifier   include the classifier layer (off by default)\n"
      "  --cache DIR          shared result/pretrained cache (default .sb_cache)\n"
      "  --csv PATH           final merged CSV (per-worker streams at PATH.shard<i>)\n"
      "  --max-restarts N     restarts per worker after a crash/kill (default 3)\n"
      "\n"
      "preemption: kill -9 any worker; its flock-held claims free instantly and\n"
      "peers (or its restart) take the work over from the shared cache.\n");
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  for (size_t pos = 0; pos < list.size();) {
    const size_t comma = list.find(',', pos);
    const std::string tok = list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

#if defined(_WIN32)

int main() {
  std::fprintf(stderr, "sb_fleet: the fleet is a POSIX (fork/flock) feature\n");
  return 1;
}

#else

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.finetune.epochs = 10;
  cfg.finetune.patience = 4;
  std::string cache = default_cache_dir();
  std::string csv_path;
  std::vector<std::string> strategies = {"global-weight"};
  std::vector<double> ratios = {4.0};
  std::vector<uint64_t> seeds = {1};
  int workers = 2;
  if (const char* env = std::getenv("SB_FLEET_WORKERS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) workers = parsed;
  }
  int max_restarts = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--workers") {
      workers = std::atoi(next().c_str());
    } else if (a == "--strategies") {
      strategies = split_list(next());
    } else if (a == "--ratios") {
      ratios.clear();
      for (const std::string& tok : split_list(next())) ratios.push_back(std::atof(tok.c_str()));
    } else if (a == "--seeds") {
      seeds.clear();
      for (const std::string& tok : split_list(next())) {
        seeds.push_back(static_cast<uint64_t>(std::atoll(tok.c_str())));
      }
    } else if (a == "--dataset") {
      cfg.dataset = next();
    } else if (a == "--arch") {
      cfg.arch = next();
    } else if (a == "--width") {
      cfg.width = std::atoll(next().c_str());
    } else if (a == "--schedule") {
      cfg.schedule = schedule_from_name(next());
    } else if (a == "--steps") {
      cfg.schedule_steps = std::atoi(next().c_str());
    } else if (a == "--epochs") {
      cfg.finetune.epochs = std::atoi(next().c_str());
    } else if (a == "--pretrain-epochs") {
      cfg.pretrain.epochs = std::atoi(next().c_str());
    } else if (a == "--prune-classifier") {
      cfg.prune.include_classifier = true;
    } else if (a == "--cache") {
      cache = next();
    } else if (a == "--csv") {
      csv_path = next();
    } else if (a == "--max-restarts") {
      max_restarts = std::atoi(next().c_str());
    } else {
      usage(argv[0]);
      return a == "--help" ? 0 : 1;
    }
  }
  if (cfg.dataset == "synth-imagenet") cfg.finetune = imagenet_finetune_options();
  if (strategies.empty() || ratios.empty() || seeds.empty()) {
    std::fprintf(stderr, "sb_fleet: empty grid\n");
    return 1;
  }
  const size_t grid_size = strategies.size() * ratios.size() * seeds.size();
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > grid_size) workers = static_cast<int>(grid_size);

  std::signal(SIGINT, on_sigint);

  // Fork the fleet. The coordinator stays deliberately dumb before this
  // point — no runner, no thread pool, no telemetry sampler — so the
  // children never inherit half a thread's worth of state.
  const auto spawn = [&](int shard) -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Worker process: sharding and heartbeat identity ride the
    // environment so run_sweep and telemetry pick them up untouched.
    setenv("SB_FLEET_SHARD", std::to_string(shard).c_str(), 1);
    setenv("SB_FLEET_SHARDS", std::to_string(workers).c_str(), 1);
    setenv("SB_STATUS_SUFFIX", (".w" + std::to_string(shard)).c_str(), 1);
    std::signal(SIGINT, SIG_DFL);
    ExperimentRunner runner(cache);
    SweepOptions opts;
    opts.csv_path = csv_path;
    SweepSummary sum;
    try {
      run_sweep(runner, cfg, strategies, ratios, seeds, opts, &sum);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sb_fleet[w%d]: %s\n", shard, e.what());
      std::exit(2);
    }
    std::exit(sum.exit_code());
  };

  std::printf("sb_fleet: %d workers over %zu grid points (cache %s)\n", workers, grid_size,
              cache.c_str());
  std::map<pid_t, int> shard_of;
  std::vector<int> restarts(static_cast<size_t>(workers), 0);
  for (int w = 0; w < workers; ++w) {
    const pid_t pid = spawn(w);
    if (pid < 0) {
      std::perror("sb_fleet: fork");
      return 1;
    }
    shard_of[pid] = w;
  }

  bool interrupted = false;
  bool failures = false;
  while (!shard_of.empty()) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) {
        if (g_interrupted) interrupted = true;  // children drain on their own SIGINT
        continue;
      }
      break;
    }
    const auto it = shard_of.find(pid);
    if (it == shard_of.end()) continue;
    const int shard = it->second;
    shard_of.erase(it);
    if (g_interrupted) interrupted = true;

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      std::printf("sb_fleet: worker %d done\n", shard);
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 130) {
      interrupted = true;
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 1) {
      // Rows failed after retries — deterministic, so a restart would
      // only replay the failures. Record and move on.
      std::fprintf(stderr, "sb_fleet: worker %d reported failed rows\n", shard);
      failures = true;
      continue;
    }
    // Crash or kill: the kernel already released the worker's claims, so
    // a replacement (or its peers) can take the work over immediately.
    const char* how = WIFSIGNALED(status) ? strsignal(WTERMSIG(status)) : "nonzero exit";
    if (interrupted || restarts[static_cast<size_t>(shard)] >= max_restarts) {
      std::fprintf(stderr, "sb_fleet: worker %d lost (%s), not restarting\n", shard, how);
      failures = true;
      continue;
    }
    ++restarts[static_cast<size_t>(shard)];
    std::fprintf(stderr, "sb_fleet: worker %d lost (%s), restarting (%d/%d)\n", shard, how,
                 restarts[static_cast<size_t>(shard)], max_restarts);
    const pid_t fresh = spawn(shard);
    if (fresh < 0) {
      std::perror("sb_fleet: fork");
      failures = true;
      continue;
    }
    shard_of[fresh] = shard;
  }

  if (interrupted) {
    std::fprintf(stderr, "sb_fleet: interrupted — cache holds all completed rows; rerun to "
                 "resume\n");
    return 130;
  }

  // Sweep out claim files: live claims are unlinked on release, so
  // whatever is left belongs to killed workers whose flocks the kernel
  // already dropped.
  {
    std::error_code ec;
    const std::filesystem::path results_dir = std::filesystem::path(cache) / "results";
    for (std::filesystem::directory_iterator it(results_dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->path().extension() == ".claim") std::filesystem::remove(it->path(), ec);
    }
  }

  // Merge: a sequential pass over the now-warm cache. Every row is a
  // cache hit, rows land in grid order, and write_experiment_csv
  // atomically rewrites the canonical CSV — byte-identical to what a
  // single-process run_sweep of the same grid would have produced.
  ExperimentRunner runner(cache);
  SweepOptions merge_opts;
  merge_opts.csv_path = csv_path;
  merge_opts.parallel = 1;
  merge_opts.shard_id = 0;
  merge_opts.shard_count = 1;
  SweepSummary sum;
  std::vector<ExperimentResult> results;
  try {
    results = run_sweep(runner, cfg, strategies, ratios, seeds, merge_opts, &sum);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb_fleet: merge failed: %s\n", e.what());
    return 1;
  }
  if (!csv_path.empty()) {
    write_experiment_csv(csv_path, results);
    std::string manifest = csv_path;
    if (manifest.size() > 4 && manifest.rfind(".csv") == manifest.size() - 4) {
      manifest.erase(manifest.size() - 4);
    }
    manifest += ".manifest.json";
    write_run_manifest(manifest, "sb_fleet", results);
    std::printf("merged csv: %s\n", csv_path.c_str());
  }
  std::printf("sb_fleet: %zu/%zu rows, %zu failures, %zu cache hits\n", sum.completed, sum.total,
              sum.failures, sum.cache_hits);
  if (sum.interrupted) return 130;
  return failures || sum.failures > 0 ? 1 : 0;
}

#endif  // _WIN32
