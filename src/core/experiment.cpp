#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metrics/metrics.hpp"
#include "obs/io.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/telemetry.hpp"
#include "tensor/simd.hpp"
#include "tensor/threadpool.hpp"

namespace shrinkbench {

namespace {

/// Accumulates elapsed wall time into a PhaseTimings field. Independent
/// of the profiler: phase timings flow into results/CSV even with every
/// SB_* switch off.
class PhaseClock {
  using clock = std::chrono::steady_clock;

 public:
  explicit PhaseClock(double& acc) : acc_(acc), start_(clock::now()) {}
  ~PhaseClock() { acc_ += std::chrono::duration<double>(clock::now() - start_).count(); }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

 private:
  double& acc_;
  clock::time_point start_;
};

}  // namespace

ExperimentRunner::ExperimentRunner(std::string cache_dir) : store_(std::move(cache_dir)) {}

const DatasetBundle& ExperimentRunner::dataset(const std::string& name, uint64_t data_seed) {
  const std::string key = name + "/" + std::to_string(data_seed);
  std::lock_guard<std::mutex> lock(datasets_mu_);
  for (const auto& [k, bundle] : datasets_) {
    if (k == key) {
      obs::count("cache.dataset.hit");
      return *bundle;
    }
  }
  obs::count("cache.dataset.miss");
  datasets_.emplace_back(
      key, std::make_unique<DatasetBundle>(make_synthetic(synthetic_preset(name, data_seed))));
  return *datasets_.back().second;
}

const std::string& ExperimentRunner::cache_dir() const { return store_.cache_dir(); }

ModelPtr ExperimentRunner::pretrained(const ExperimentConfig& config) {
  const DatasetBundle& bundle = dataset(config.dataset, config.data_seed);
  const int64_t width = config.width;
  // Serialized so concurrent sweep workers hitting a cold checkpoint
  // train it once; the waiters then load it from the disk cache.
  std::lock_guard<std::mutex> lock(pretrain_mu_);
  return store_.get(bundle, config.arch, width, config.init_seed, config.pretrain,
                    config.pretrain_tag);
}

std::string config_fingerprint(const ExperimentConfig& c) {
  std::ostringstream ss;
  ss << c.dataset << '|' << c.data_seed << '|' << c.arch << '|' << c.width << '|' << c.init_seed
     << '|' << c.pretrain_tag << '|' << c.strategy << '|' << c.target_compression << '|'
     << to_string(c.schedule) << '|' << c.schedule_steps << '|' << c.prune.include_classifier
     << '|' << c.prune.grad_batch_size << '|' << c.run_seed << '|' << c.pretrain.epochs << '|'
     << c.pretrain.lr << '|' << static_cast<int>(c.pretrain.optimizer) << '|'
     << c.pretrain.batch_size << '|' << c.pretrain.patience << '|' << c.finetune.epochs << '|'
     << c.finetune.lr << '|' << static_cast<int>(c.finetune.optimizer) << '|'
     << c.finetune.batch_size << '|' << c.finetune.patience << '|' << c.finetune.momentum << '|'
     << c.finetune.weight_decay;
  // Newer knobs are appended only when they differ from their defaults so
  // that fingerprints of pre-existing cached results stay valid.
  const auto append_schedule = [&ss](const char* tag, const TrainOptions& o) {
    if (o.lr_schedule != LrSchedule::Fixed) {
      ss << '|' << tag << static_cast<int>(o.lr_schedule) << ':' << o.lr_step_every << ':'
         << o.lr_step_gamma << ':' << o.lr_min;
    }
  };
  append_schedule("ptsched", c.pretrain);
  append_schedule("ftsched", c.finetune);
  if (c.prune.fisher_batches != 4) ss << "|fb" << c.prune.fisher_batches;
  if (c.prune.activation_batches != 4) ss << "|ab" << c.prune.activation_batches;
  const auto append_augment = [&ss](const char* tag, const AugmentOptions& a) {
    if (a.any()) ss << '|' << tag << a.hflip << ':' << a.max_shift << ':' << a.noise_std;
  };
  append_augment("ptaug", c.pretrain.augment);
  append_augment("ftaug", c.finetune.augment);
  // Anomaly handling changes the computation (skipped steps, LR halving,
  // clipped gradients), so non-default policies get their own cache
  // entries. checkpoint_dir/checkpoint_every are deliberately absent:
  // checkpointing is bit-transparent to the result.
  const auto append_anomaly = [&ss](const char* tag, const TrainOptions& o) {
    if (o.anomaly_policy != AnomalyPolicy::Throw || o.grad_clip_norm != 0.0f) {
      ss << '|' << tag << static_cast<int>(o.anomaly_policy) << ':' << o.anomaly_max_rollbacks
         << ':' << o.grad_check_every << ':' << o.grad_clip_norm;
    }
  };
  append_anomaly("ptanom", c.pretrain);
  append_anomaly("ftanom", c.finetune);
  return ss.str();
}

namespace {

std::filesystem::path result_cache_path(const std::string& cache_dir,
                                        const ExperimentConfig& config) {
  const std::string fp = config_fingerprint(config);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(std::hash<std::string>{}(fp)));
  return std::filesystem::path(cache_dir) / "results" / (std::string(hex) + ".result");
}

// Cache entry layout (v2, checksummed):
//   line 1  config fingerprint
//   line 2  space-separated metrics
//   line 3  "#crc <16-hex fnv1a64 of lines 1-2 incl. newlines>"
// The checksum turns torn or bit-rotted files into detected corruption
// (quarantined + recomputed) instead of mis-parsed result rows.
constexpr const char* kCacheCrcPrefix = "#crc ";

bool write_cached_result(const std::filesystem::path& path, const ExperimentConfig& config,
                         const ExperimentResult& r) {
  std::ostringstream os;
  os.precision(17);  // cached doubles must round-trip bit-exactly
  os << config_fingerprint(config) << '\n'
     << r.pre_top1 << ' ' << r.pre_top5 << ' ' << r.pre_loss << ' ' << r.post_top1 << ' '
     << r.post_top5 << ' ' << r.post_loss << ' ' << r.compression << ' ' << r.speedup << ' '
     << r.params_total << ' ' << r.params_nonzero << ' ' << r.flops_dense << ' '
     << r.flops_effective << ' ' << r.finetune_epochs << ' ' << r.seconds << ' '
     << r.phases.pretrain << ' ' << r.phases.prune << ' ' << r.phases.finetune << ' '
     << r.phases.eval << '\n';
  std::string body = os.str();
  const std::string crc = obs::checksum_hex(body);  // before injection: mismatch is the point
  if (obs::fault_point("cache.corrupt") && !body.empty()) body[body.size() / 2] ^= 0x20;
  // A failed write (full disk, unwritable dir) leaves no file at all —
  // the experiment result is still returned, only the cache is skipped.
  if (!obs::atomic_write_file(path, body + kCacheCrcPrefix + crc + '\n')) {
    obs::count("cache.result.write_failed");
    SB_LOG_WARN("cache", "could not persist result cache entry %s", path.string().c_str());
    return false;
  }
  return true;
}

/// Idempotent across processes: two workers detecting the same torn
/// entry must both end with the entry out of the way and exactly one
/// quarantine file. POSIX rename atomically replaces an existing
/// .corrupt; when the rename fails instead (source already moved by the
/// peer, or a platform that refuses to overwrite), the fallback removes
/// our copy so the recompute path is clear either way. Warns once per
/// entry per process — concurrent readers and retry loops hitting the
/// same entry would otherwise each emit the warning.
void quarantine_cache_entry(const std::filesystem::path& path) {
  std::filesystem::path corrupt = path;
  corrupt += ".corrupt";
  std::error_code ec;
  std::filesystem::rename(path, corrupt, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(path, rm);
    if (std::filesystem::exists(path, rm)) {
      // Neither rename nor remove cleared the entry: every future read
      // would re-detect the corruption and loop. Loud, not silent.
      SB_LOG_ERROR("cache", "cannot quarantine corrupt cache entry %s (%s)",
                   path.string().c_str(), ec.message().c_str());
      return;
    }
  }
  obs::count("cache.result.corrupt");
  static std::mutex warned_mu;
  static std::vector<std::string> warned;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(warned_mu);
    if (std::find(warned.begin(), warned.end(), path.string()) == warned.end()) {
      warned.push_back(path.string());
      first = true;
    }
  }
  if (first) {
    SB_LOG_WARN("cache", "corrupt result cache entry quarantined to %s — recomputing",
                corrupt.string().c_str());
  } else {
    SB_LOG_DEBUG("cache", "corrupt result cache entry %s already quarantined — recomputing",
                 path.string().c_str());
  }
}

bool read_cached_result(const std::filesystem::path& path, const ExperimentConfig& config,
                        ExperimentResult& r) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::string fingerprint, data, crc_line;
  const bool shaped = static_cast<bool>(std::getline(is, fingerprint)) &&
                      static_cast<bool>(std::getline(is, data)) &&
                      static_cast<bool>(std::getline(is, crc_line));
  // Entries from before the checksum era (or truncated past the crc
  // line) are a silent stale miss: recomputed and overwritten.
  if (!shaped || crc_line.rfind(kCacheCrcPrefix, 0) != 0) return false;
  const std::string body = fingerprint + '\n' + data + '\n';
  if (crc_line.substr(std::char_traits<char>::length(kCacheCrcPrefix)) !=
      obs::checksum_hex(body)) {
    quarantine_cache_entry(path);
    return false;
  }
  if (fingerprint != config_fingerprint(config)) return false;  // hash collision: plain miss
  r.config = config;
  std::istringstream fields(data);
  fields >> r.pre_top1 >> r.pre_top5 >> r.pre_loss >> r.post_top1 >> r.post_top5 >>
      r.post_loss >> r.compression >> r.speedup >> r.params_total >> r.params_nonzero >>
      r.flops_dense >> r.flops_effective >> r.finetune_epochs >> r.seconds >>
      r.phases.pretrain >> r.phases.prune >> r.phases.finetune >> r.phases.eval;
  if (!fields) {  // checksum ok but fields unparseable: treat as corrupt
    quarantine_cache_entry(path);
    return false;
  }
  return true;
}

}  // namespace

ExperimentResult ExperimentRunner::run(const ExperimentConfig& config) {
  const auto cache_path = result_cache_path(store_.cache_dir(), config);
  if (ExperimentResult cached; read_cached_result(cache_path, config, cached)) {
    obs::count("cache.result.hit");
    cached.from_cache = true;
    return cached;
  }
  obs::count("cache.result.miss");
  if (obs::fault_point("experiment.throw")) {
    throw std::runtime_error("injected experiment fault (SB_FAULT=experiment.throw)");
  }

  SB_PROFILE_SCOPE("experiment.run");
  const auto start = std::chrono::steady_clock::now();
  ExperimentResult result;
  result.config = config;

  const DatasetBundle* bundle_ptr = nullptr;
  ModelPtr model;
  {
    obs::ScopedTimer span("pretrain");
    PhaseClock phase(result.phases.pretrain);
    obs::status_set_stage("pretrain");
    bundle_ptr = &dataset(config.dataset, config.data_seed);
    model = pretrained(config);
  }
  const DatasetBundle& bundle = *bundle_ptr;
  const Shape sample = bundle.train.sample_shape();

  {
    obs::ScopedTimer span("eval");
    PhaseClock phase(result.phases.eval);
    obs::status_set_stage("eval");
    const EvalResult pre = evaluate(*model, bundle.test, config.finetune.batch_size);
    result.pre_top1 = pre.top1;
    result.pre_top5 = pre.top5;
    result.pre_loss = pre.loss;
  }

  const PruningStrategy strategy = strategy_from_name(config.strategy);
  const double final_fraction =
      fraction_for_compression(*model, config.target_compression, config.prune);
  const auto fractions =
      schedule_fractions(config.schedule, final_fraction, config.schedule_steps);

  Rng rng(config.run_seed);
  TrainOptions ft = config.finetune;
  ft.loader_seed = config.run_seed ^ 0xf17e57a9;
  // Per-experiment checkpoint root: one subdirectory per fine-tuning
  // round so every round resumes independently after a crash. Rooted
  // under $SB_CKPT_DIR when set, else <cache_dir>/ckpt, keyed by the
  // result-cache stem; removed once the result is safely cached.
  std::filesystem::path ckpt_root = config.finetune.checkpoint_dir;
  if (ckpt_root.empty()) {
    if (const char* env = std::getenv("SB_CKPT_DIR")) {
      ckpt_root = env;
    } else {
      ckpt_root = std::filesystem::path(store_.cache_dir()) / "ckpt";
    }
  }
  ckpt_root /= cache_path.stem();
  // Compression ratio 1 is the unpruned control: pruning keeps every
  // weight and fine-tuning a converged model is a no-op by design, so the
  // control point is free (post == pre, as the paper's §6 requires it to
  // be reported).
  const bool no_op_control = fractions.size() == 1 && final_fraction >= 1.0;
  int round = 0;
  for (const double fraction : fractions) {
    {
      obs::ScopedTimer span("prune");
      PhaseClock phase(result.phases.prune);
      obs::status_set_stage("prune");
      prune_model(*model, strategy, fraction, bundle.train, config.prune, rng);
    }
    if (no_op_control) break;
    obs::ScopedTimer span("finetune");
    PhaseClock phase(result.phases.finetune);
    obs::status_set_stage("finetune");
    ft.checkpoint_dir = (ckpt_root / ("r" + std::to_string(round))).string();
    const TrainHistory hist = train_model(*model, bundle, ft);
    result.finetune_epochs += static_cast<int>(hist.epochs.size());
    result.anomalies += hist.anomalies;
    result.skipped_batches += hist.skipped_batches;
    result.rollbacks += hist.rollbacks;
    if (hist.resumed_from_epoch >= 0) ++result.resumed_rounds;
    ft.loader_seed = rng.next_u64();  // fresh shuffling for later rounds
    ++round;
  }

  {
    obs::ScopedTimer span("eval");
    PhaseClock phase(result.phases.eval);
    obs::status_set_stage("eval");
    const EvalResult post = evaluate(*model, bundle.test, config.finetune.batch_size);
    result.post_top1 = post.top1;
    result.post_top5 = post.top5;
    result.post_loss = post.loss;
  }

  const ParamCounts counts = count_params(*model);
  result.params_total = counts.total;
  result.params_nonzero = counts.nonzero;
  result.compression = compression_ratio(*model);
  const FlopCounts flops = count_flops(*model, sample);
  result.flops_dense = flops.dense;
  result.flops_effective = flops.effective;
  result.speedup = theoretical_speedup(*model, sample);

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (write_cached_result(cache_path, config, result)) {
    // The cached row supersedes the resume state; a failed cache write
    // keeps the checkpoints so a rerun can still resume.
    std::error_code ec;
    if (std::filesystem::remove_all(ckpt_root, ec) > 0 && !ec) obs::count("ckpt.cleaned");
  }
  return result;
}

namespace {

// SIGINT drains the sweep cleanly: the handler only sets a flag that
// run_sweep checks between experiments. SA_RESETHAND restores the
// default disposition, so a second Ctrl-C kills the process immediately.
volatile std::sig_atomic_t g_sweep_interrupt = 0;

extern "C" void sweep_sigint_handler(int) { g_sweep_interrupt = 1; }

void install_sigint_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
#if !defined(_WIN32)
  struct sigaction sa{};
  sa.sa_handler = sweep_sigint_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
#else
  std::signal(SIGINT, sweep_sigint_handler);
#endif
}

/// An explicit option (>= 0) wins; otherwise the environment variable
/// when it parses to at least `min`; otherwise `fallback`.
long option_or_env(long option, const char* name, long min, long fallback) {
  if (option >= 0) return option;
  const char* env = std::getenv(name);
  const long parsed = env ? std::strtol(env, nullptr, 10) : min - 1;
  return parsed >= min ? parsed : fallback;
}

/// ETA for the log line: sub-zero means "no cache-miss timing yet" —
/// i.e. every row so far was served from the result cache — and must
/// read as unknown, not as an absurd 0.0s prediction for the cold work
/// that may remain.
std::string format_sweep_eta(double eta_seconds) {
  if (eta_seconds < 0.0) return "unknown";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fs", eta_seconds);
  return buf;
}

/// Runs one grid point with retries; a permanent failure comes back as a
/// failed row carrying the error string instead of an exception.
ExperimentResult run_one_config(ExperimentRunner& runner, const ExperimentConfig& config,
                                int retries) {
  for (int attempt = 0;; ++attempt) {
    try {
      return runner.run(config);
    } catch (const std::exception& e) {
      obs::count("sweep.attempt_failures");
      if (attempt < retries) {
        obs::count("sweep.retries");
        obs::status_add_retries(1);
        SB_LOG_WARN("sweep", "experiment %s x%.0f seed=%llu failed (attempt %d/%d): "
                    "%s — retrying",
                    config.strategy.c_str(), config.target_compression,
                    static_cast<unsigned long long>(config.run_seed), attempt + 1, retries + 1,
                    e.what());
        continue;
      }
      obs::count("sweep.failures");
      SB_LOG_ERROR("sweep", "experiment %s x%.0f seed=%llu failed permanently after "
                   "%d attempt(s): %s",
                   config.strategy.c_str(), config.target_compression,
                   static_cast<unsigned long long>(config.run_seed), attempt + 1, e.what());
      ExperimentResult result;
      result.config = config;
      result.failed = true;
      result.error = e.what();
      return result;
    }
  }
}

/// Appends finished rows to the sweep CSV as they complete, one flushed
/// line per row, so a crash or kill -9 loses nothing already computed.
class IncrementalCsv {
 public:
  IncrementalCsv(const std::string& path, bool append) {
    if (path.empty()) return;
    std::error_code ec;
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
    const bool resume = append && drop_torn_tail(p);
    os_.open(path, resume ? std::ios::app : std::ios::trunc);
    if (!os_) {
      SB_LOG_WARN("sweep", "cannot open incremental CSV %s — rows will not be streamed",
                  path.c_str());
      return;
    }
    if (!resume) write_line(experiment_csv_header());
  }

  void write_line(const std::string& line) {
    if (!os_.is_open() || failed_) return;
    os_ << line << '\n' << std::flush;
    if (!os_) {
      failed_ = true;  // warn once; the final atomic rewrite is authoritative
      obs::count("io.write_failed");
      SB_LOG_WARN("sweep", "incremental CSV append failed — disabling streaming output");
    }
  }

 private:
  /// A kill mid-append can leave a torn last line, and appending after
  /// it would glue the next row onto the fragment. Cuts the file back to
  /// just after its last newline; true when whole lines remain to resume.
  static bool drop_torn_tail(const std::filesystem::path& p) {
    std::ifstream is(p, std::ios::binary);
    if (!is) return false;
    const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    const size_t keep = text.rfind('\n') + 1;  // npos + 1 == 0: no whole line
    if (keep < text.size()) {
      std::error_code ec;
      std::filesystem::resize_file(p, keep, ec);
      if (ec) return false;  // still torn: start over rather than glue rows
      obs::count("sweep.csv_torn_tail");
      SB_LOG_WARN("sweep", "dropped a torn %zu-byte last line from incremental CSV %s",
                  text.size() - keep, p.string().c_str());
    }
    return keep > 0;
  }

  std::ofstream os_;
  bool failed_ = false;
};

/// This process's place in the grid: indices with i % count == id are
/// its own shard, everything else is surplus it may steal. A plain
/// sequential sweep is shard 0 of 1.
struct ShardSpec {
  int id = 0;
  int count = 1;
};

/// The one sweep scheduler. Every grid point goes through one protocol:
/// probe the shared result cache; on a miss, claim <entry>.claim via a
/// non-blocking flock and compute under it (the runner re-probes the
/// cache after the claim, so a raced claim costs one probe, never a
/// duplicate experiment); a claim a peer holds defers the point.
/// `threads` workers share one cursor over this process's claim order
/// (own shard first, then everyone else's work), each running its
/// experiments with the op-level pool serialized when threads > 1. A
/// single-threaded convergence pass then waits out the deferred points:
/// each either lands in the cache (a peer computed it) or its claim
/// frees (the peer died — the kernel releases a killed process's flocks)
/// and this process steals the compute.
///
/// Rows stream to `csv` as the grid-ordered contiguous prefix of the
/// finished rows. The return value is every finished row in grid order;
/// after a clean convergence that is the FULL grid, so any process's
/// final CSV is byte-identical to a sequential sweep over the same cache.
std::vector<ExperimentResult> claim_grid(ExperimentRunner& runner,
                                         const std::vector<ExperimentConfig>& grid,
                                         ShardSpec shard, int threads, int retries,
                                         IncrementalCsv& csv, SweepSummary& sum) {
  using clock = std::chrono::steady_clock;
  const auto sweep_start = clock::now();
  // Everything below mu is shared bookkeeping; experiments run outside it.
  std::mutex mu;
  std::vector<ExperimentResult> slots(grid.size());
  std::vector<char> done(grid.size(), 0);
  size_t streamed = 0;
  // ETA bookkeeping: only cache-miss (actually computed) experiments
  // count, otherwise a mostly-cached sweep predicts an absurdly
  // optimistic finish for the remaining cold runs.
  double miss_seconds = 0.0;
  size_t misses = 0;
  std::vector<size_t> deferred;
  bool stop = false;
  std::exception_ptr error;

  // Own shard first, then everyone else's work (ascending in both
  // halves): the first half is work no live peer should be holding, the
  // second half is pure catch-up/stealing.
  std::vector<size_t> order;
  order.reserve(grid.size());
  const auto count = static_cast<size_t>(shard.count);
  for (size_t i = static_cast<size_t>(shard.id); i < grid.size(); i += count) order.push_back(i);
  for (size_t i = 0; i < grid.size(); ++i) {
    if (i % count != static_cast<size_t>(shard.id)) order.push_back(i);
  }

  const auto finish_row = [&](size_t i, ExperimentResult&& r, double compute_s, bool steal_pass) {
    std::lock_guard<std::mutex> lock(mu);
    if (r.failed) {
      ++sum.failures;
    } else if (r.from_cache) {
      ++sum.cache_hits;
    } else {
      miss_seconds += compute_s;
      ++misses;
    }
    if (steal_pass && !r.from_cache) {
      ++sum.stolen;
      obs::count("fleet.steals");
    }
    ++sum.completed;
    slots[i] = std::move(r);
    done[i] = 1;
    while (streamed < grid.size() && done[streamed]) {
      csv.write_line(experiment_csv_row(slots[streamed++]));
    }

    const ExperimentResult& row = slots[i];
    const double elapsed = std::chrono::duration<double>(clock::now() - sweep_start).count();
    // ETA only exists once a cache-miss timing does; -1 = unknown
    // (formatted as "unknown", published as unknown to the heartbeat).
    const double eta = misses > 0 ? miss_seconds / static_cast<double>(misses) *
                                        static_cast<double>(sum.total - sum.completed) /
                                        static_cast<double>(shard.count * threads)
                                  : -1.0;
    char outcome[48];
    if (row.failed) {
      std::snprintf(outcome, sizeof(outcome), "FAILED");
    } else {
      std::snprintf(outcome, sizeof(outcome), "top1 %.4f", row.post_top1);
    }
    SB_LOG_INFO("sweep", "%zu/%zu %s %s x%.0f seed=%llu -> %s (c=%.2f, %s) "
                "[elapsed %.1fs, eta %s]",
                sum.completed, sum.total, row.config.arch.c_str(), row.config.strategy.c_str(),
                row.config.target_compression,
                static_cast<unsigned long long>(row.config.run_seed), outcome, row.compression,
                row.from_cache ? "cache" : "computed", elapsed, format_sweep_eta(eta).c_str());
    obs::status_set_progress(sum.completed, sum.total, eta);
    obs::status_set_failures(static_cast<int64_t>(sum.failures),
                             static_cast<int64_t>(sum.cache_hits));
  };

  // Attempts one grid point; true when its row is now done (loaded from
  // the shared cache or computed), false when a live peer holds the claim.
  const auto attempt = [&](size_t i, bool steal_pass) -> bool {
    const std::filesystem::path entry = result_cache_path(runner.cache_dir(), grid[i]);
    if (ExperimentResult cached; read_cached_result(entry, grid[i], cached)) {
      obs::count("cache.result.hit");
      cached.from_cache = true;
      finish_row(i, std::move(cached), 0.0, steal_pass);
      return true;
    }
    std::filesystem::path claim_path = entry;
    claim_path += ".claim";
    obs::FileLock claim;
    if (claim.try_acquire(claim_path)) {
      obs::count("fleet.claims");
    } else if (claim.open_failed()) {
      // No retry can open it: compute unclaimed, as a lone process would.
      SB_LOG_WARN("sweep", "computing %s x%.0f seed=%llu without a claim",
                  grid[i].strategy.c_str(), grid[i].target_compression,
                  static_cast<unsigned long long>(grid[i].run_seed));
    } else {
      obs::count("fleet.claim_conflicts");
      return false;
    }
    const auto exp_start = clock::now();
    ExperimentResult r = run_one_config(runner, grid[i], retries);
    const double compute_s = std::chrono::duration<double>(clock::now() - exp_start).count();
    claim.release(/*unlink_file=*/true);
    finish_row(i, std::move(r), compute_s, steal_pass);
    return true;
  };

  // Checked once per attempt: a pending interrupt (SIGINT or the injected
  // sweep.interrupt) drains the sweep, an injected sweep.abort throws.
  const auto interrupted = [&]() -> bool {
    std::lock_guard<std::mutex> lock(mu);
    if (stop) return true;
    if (obs::fault_point("sweep.interrupt")) request_sweep_interrupt();
    if (sweep_interrupt_requested()) {
      sum.interrupted = stop = true;
      return true;
    }
    if (obs::fault_point("sweep.abort")) {
      throw std::runtime_error("injected sweep abort (SB_FAULT=sweep.abort)");
    }
    return false;
  };

  std::atomic<size_t> cursor{0};
  const auto worker = [&] {
    try {
      while (!interrupted()) {
        const size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= order.size()) return;
        if (!attempt(order[k], /*steal_pass=*/false)) {
          std::lock_guard<std::mutex> lock(mu);
          deferred.push_back(order[k]);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      stop = true;
    }
  };
  if (threads == 1) {
    worker();  // inline: the experiments keep op-level parallelism
  } else {
    // Experiment-level parallelism replaces op-level: each thread's
    // parallel_for calls run serially, so N threads do not oversubscribe
    // N*pool threads, and every experiment stays bit-identical.
    std::vector<std::thread> claimers;
    claimers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      claimers.emplace_back([&worker] {
        ThreadPool::SerialGuard guard;
        worker();
      });
    }
    for (std::thread& th : claimers) th.join();
  }
  if (error) std::rethrow_exception(error);

  // Convergence: wait for deferred rows to land in the shared cache,
  // re-attempting each round with backoff. A claim whose holder was
  // killed is immediately claimable again, so any one surviving process
  // eventually finishes the whole grid.
  int backoff_ms = 50;
  while (!deferred.empty() && !stop) {
    std::vector<size_t> still;
    for (const size_t i : deferred) {
      if (interrupted()) break;
      if (!attempt(i, /*steal_pass=*/true)) still.push_back(i);
    }
    if (still.size() == deferred.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 1000);
    } else {
      backoff_ms = 50;
    }
    deferred.swap(still);
  }

  // Grid order; gaps (interrupt before convergence) are simply absent.
  std::vector<ExperimentResult> results;
  results.reserve(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    if (done[i]) results.push_back(std::move(slots[i]));
  }
  return results;
}

/// Shared sweep epilogue: interrupt-path artifact flushing (Chrome trace
/// + partial manifest next to the CSV) and the final heartbeat state.
void finish_sweep_artifacts(const SweepOptions& options, SweepSummary& sum,
                            const std::vector<ExperimentResult>& results) {
  if (sum.interrupted) {
    SB_LOG_WARN("sweep", "interrupted after %zu/%zu experiments — flushed state is "
                "complete; rerun to resume from the result cache",
                sum.completed, sum.total);
    // Drain-path flush: a Ctrl-C'ed sweep still leaves its observability
    // artifacts behind. The atexit trace writer would cover a clean exit,
    // but callers often keep running (or re-enter run_sweep), so flush
    // the Chrome trace and a partial manifest here, next to the CSV.
    if (obs::Profiler::constructed()) {
      const std::string trace = obs::trace_path();
      if (!trace.empty() && !obs::Profiler::instance().write_trace(trace)) {
        SB_LOG_WARN("sweep", "could not flush trace to %s on interrupt", trace.c_str());
      }
    }
    if (!options.csv_path.empty()) {
      std::string manifest_path = options.csv_path;
      if (manifest_path.size() > 4 && manifest_path.rfind(".csv") == manifest_path.size() - 4) {
        manifest_path.erase(manifest_path.size() - 4);
      }
      manifest_path += ".manifest.json";
      try {
        write_run_manifest(manifest_path, "sweep.interrupted", results);
      } catch (const std::exception& e) {
        SB_LOG_WARN("sweep", "could not flush manifest on interrupt: %s", e.what());
      }
    }
  }
  obs::status_set_phase(sum.interrupted ? "interrupted" : "done");
  obs::status_set_progress(sum.completed, sum.total, 0.0);
  obs::status_set_failures(static_cast<int64_t>(sum.failures),
                           static_cast<int64_t>(sum.cache_hits));
  obs::write_status_now();
}

}  // namespace

bool sweep_interrupt_requested() { return g_sweep_interrupt != 0; }
void request_sweep_interrupt() { g_sweep_interrupt = 1; }
void clear_sweep_interrupt() { g_sweep_interrupt = 0; }

std::vector<ExperimentResult> run_sweep(ExperimentRunner& runner, const ExperimentConfig& base,
                                        const std::vector<std::string>& strategies,
                                        const std::vector<double>& compressions,
                                        const std::vector<uint64_t>& run_seeds,
                                        const SweepOptions& options, SweepSummary* summary) {
  install_sigint_handler();
  SweepSummary local;
  SweepSummary& sum = summary ? *summary : local;
  sum = SweepSummary{};
  sum.total = strategies.size() * compressions.size() * run_seeds.size();
  const int retries = static_cast<int>(option_or_env(options.retries, "SB_RETRIES", 0, 1));
  ShardSpec shard;
  shard.count = static_cast<int>(
      std::max(1L, option_or_env(options.shard_count, "SB_FLEET_SHARDS", 1, 1)));
  const long id = option_or_env(options.shard_id, "SB_FLEET_SHARD", 0, 0);
  if (id >= shard.count) {
    SB_LOG_WARN("sweep", "shard id %ld out of range for %d shards — clamping", id, shard.count);
  }
  shard.id = static_cast<int>(std::min<long>(id, shard.count - 1));
  // Each fleet process streams to its own file, so two processes never
  // interleave writes in one stream; the canonical CSV is whatever the
  // caller writes from the returned (full-grid) results.
  std::string stream_path = options.csv_path;
  if (shard.count > 1 && !stream_path.empty()) {
    stream_path += ".shard" + std::to_string(shard.id);
  }
  IncrementalCsv csv(stream_path, options.append);

  // Heartbeat: publish the sweep shape immediately so a freshly started
  // run is visible to sb_top before the first experiment finishes. The
  // background sampler owns the rewrite cadence from here on.
  obs::status_set_phase("sweep");
  obs::status_set_progress(0, sum.total, -1.0);
  obs::write_status_now();
  if (obs::telemetry_enabled()) obs::Telemetry::instance().start_sampler();

  // Flatten the grid in (strategy, compression, seed) order — the row
  // order of every CSV the sweep writes.
  std::vector<ExperimentConfig> grid;
  grid.reserve(sum.total);
  for (const std::string& strategy : strategies) {
    for (const double ratio : compressions) {
      for (const uint64_t seed : run_seeds) {
        ExperimentConfig config = base;
        config.strategy = strategy;
        config.target_compression = ratio;
        config.run_seed = seed;
        grid.push_back(std::move(config));
      }
    }
  }

  const int threads = static_cast<int>(std::min<long>(
      std::clamp(option_or_env(options.parallel, "SB_SWEEP_PARALLEL", 1, 1), 1L, 64L),
      std::max<long>(1, static_cast<long>(grid.size()))));
  SB_LOG_INFO("sweep", "shard %d/%d: %zu grid points on %d thread(s) (cache %s)", shard.id,
              shard.count, grid.size(), threads, runner.cache_dir().c_str());
  SB_PROFILE_SCOPE("sweep");
  std::vector<ExperimentResult> results =
      claim_grid(runner, grid, shard, threads, retries, csv, sum);
  finish_sweep_artifacts(options, sum, results);
  return results;
}

std::string experiment_csv_header() {
  return "dataset,arch,width,strategy,schedule,target_compression,run_seed,init_seed,"
         "pretrain_tag,pre_top1,pre_top5,post_top1,post_top5,compression,speedup,"
         "params_total,params_nonzero,flops_dense,flops_effective,finetune_epochs,seconds,"
         "pretrain_s,prune_s,finetune_s,eval_s,status,error";
}

namespace {

/// RFC-4180 escaping for the error column (exception text can contain
/// anything); newlines become spaces so one row stays one line.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else if (c == '\n' || c == '\r') {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string experiment_csv_row(const ExperimentResult& r) {
  std::ostringstream ss;
  const ExperimentConfig& c = r.config;
  ss << c.dataset << ',' << c.arch << ',' << c.width << ',' << c.strategy << ','
     << to_string(c.schedule) << ',' << c.target_compression << ',' << c.run_seed << ','
     << c.init_seed << ',' << c.pretrain_tag << ',' << r.pre_top1 << ',' << r.pre_top5 << ','
     << r.post_top1 << ',' << r.post_top5 << ',' << r.compression << ',' << r.speedup << ','
     << r.params_total << ',' << r.params_nonzero << ',' << r.flops_dense << ','
     << r.flops_effective << ',' << r.finetune_epochs << ',' << r.seconds << ','
     << r.phases.pretrain << ',' << r.phases.prune << ',' << r.phases.finetune << ','
     << r.phases.eval << ',' << (r.failed ? "failed" : "ok") << ',' << csv_field(r.error);
  return ss.str();
}

void write_experiment_csv(const std::string& path, const std::vector<ExperimentResult>& results) {
  std::ostringstream os;
  os << experiment_csv_header() << '\n';
  for (const auto& r : results) os << experiment_csv_row(r) << '\n';
  if (!obs::atomic_write_file(path, os.str())) {
    throw std::runtime_error("write_experiment_csv: cannot write " + path);
  }
}

void write_run_manifest(const std::string& path, const std::string& bench_name,
                        const std::vector<ExperimentResult>& results) {
  std::ostringstream os;

  os << "{\n"
     << "  \"schema\": \"shrinkbench.run_manifest/v1\",\n"
     << "  \"bench\": " << obs::json_str(bench_name) << ",\n"
     << "  \"git\": " << obs::json_str(obs::git_describe()) << ",\n"
     // started = library load (process start), created = manifest write:
     // the pair brackets the run without threading a clock through callers.
     << "  \"started_utc\": " << obs::json_str(obs::process_start_utc()) << ",\n"
     << "  \"created_utc\": " << obs::json_str(obs::utc_timestamp()) << ",\n"
     // Machine + effective runtime knobs: the provenance the paper found
     // missing from most published results ("what actually ran?").
     << "  \"host\": {\"hostname\": " << obs::json_str(obs::hostname())
     << ", \"cpu_model\": " << obs::json_str(obs::cpu_model())
     << ", \"cpu_cores\": " << obs::cpu_cores()
     << ", \"threads\": " << ThreadPool::default_threads()
     << ", \"simd\": " << obs::json_str(simd::level_name(simd::active_level())) << "},\n"
     << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    const ExperimentConfig& c = r.config;
    os << "    {\"fingerprint\": " << obs::json_str(config_fingerprint(c))
       << ", \"dataset\": " << obs::json_str(c.dataset) << ", \"arch\": " << obs::json_str(c.arch)
       << ", \"strategy\": " << obs::json_str(c.strategy)
       << ", \"target_compression\": " << obs::json_num(c.target_compression)
       << ", \"run_seed\": " << c.run_seed
       << ", \"status\": " << obs::json_str(r.failed ? "failed" : "ok")
       << (r.failed ? ", \"error\": " + obs::json_str(r.error) : std::string())
       << (r.anomalies > 0 ? ", \"anomalies\": " + std::to_string(r.anomalies) +
                                 ", \"skipped_batches\": " + std::to_string(r.skipped_batches) +
                                 ", \"rollbacks\": " + std::to_string(r.rollbacks)
                           : std::string())
       << (r.resumed_rounds > 0
               ? ", \"resumed_rounds\": " + std::to_string(r.resumed_rounds)
               : std::string())
       << ", \"post_top1\": " << obs::json_num(r.post_top1)
       << ", \"compression\": " << obs::json_num(r.compression)
       << ", \"finetune_epochs\": " << r.finetune_epochs
       << ", \"phases\": {\"pretrain\": " << obs::json_num(r.phases.pretrain)
       << ", \"prune\": " << obs::json_num(r.phases.prune)
       << ", \"finetune\": " << obs::json_num(r.phases.finetune)
       << ", \"eval\": " << obs::json_num(r.phases.eval)
       << ", \"total\": " << obs::json_num(r.phases.total())
       << "}, \"seconds\": " << obs::json_num(r.seconds) << "}"
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ],\n"
     << "  \"metrics\": " << obs::metrics_json(obs::snapshot_if_enabled()) << "\n"
     << "}\n";
  if (!obs::atomic_write_file(path, os.str())) {
    throw std::runtime_error("write_run_manifest: write failed for " + path);
  }

  // When telemetry ran, drop its full time-series next to the manifest
  // (<run>.telemetry.jsonl) so the resource/utilization curves share the
  // manifest's lifetime and naming. Never constructs the singleton.
  if (obs::Telemetry::constructed()) {
    std::string jsonl = path;
    const std::string suffix = ".manifest.json";
    if (jsonl.size() > suffix.size() &&
        jsonl.compare(jsonl.size() - suffix.size(), suffix.size(), suffix) == 0) {
      jsonl.erase(jsonl.size() - suffix.size());
    }
    jsonl += ".telemetry.jsonl";
    if (!obs::Telemetry::instance().write_series_jsonl(jsonl)) {
      SB_LOG_WARN("obs", "could not write telemetry series to %s", jsonl.c_str());
    }
  }
}

}  // namespace shrinkbench
