// The standardized pruning experiment: Algorithm 1 of the paper, end to
// end, with every metric the paper's Section 6 checklist demands.
//
//   pretrained model -> [prune -> fine-tune]^N -> evaluate
//
// An ExperimentResult records raw pre/post Top-1 AND Top-5 accuracy, the
// achieved compression ratio AND theoretical speedup, parameter and FLOP
// counts, and the exact seeds — everything needed for the controls the
// paper finds missing in the literature.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pretrained.hpp"
#include "core/pruner.hpp"
#include "core/schedule.hpp"

namespace shrinkbench {

struct ExperimentConfig {
  std::string dataset = "synth-cifar10";
  uint64_t data_seed = 0;  // 0 = preset default
  std::string arch = "resnet-56";
  int64_t width = 0;  // 0 = architecture default
  uint64_t init_seed = 1;
  std::string pretrain_tag = "default";

  std::string strategy = "global-weight";
  double target_compression = 4.0;
  ScheduleKind schedule = ScheduleKind::OneShot;
  int schedule_steps = 1;
  PruneOptions prune;

  /// Controls fine-tune shuffling, gradient-score minibatch sampling, and
  /// random-pruning draws — the per-run randomness whose effect Figure 7's
  /// error bars quantify.
  uint64_t run_seed = 1;

  TrainOptions pretrain = default_pretrain_options();
  TrainOptions finetune = cifar_finetune_options();
};

/// Wall-clock cost of each phase of Algorithm 1 — the per-phase budget
/// breakdown the paper's §6 checklist asks experiments to report (and
/// that a single opaque `seconds` cannot provide).
struct PhaseTimings {
  double pretrain = 0.0;  // dataset synthesis + pretrained-model load/train
  double prune = 0.0;     // scoring + mask allocation, all schedule steps
  double finetune = 0.0;  // all fine-tuning rounds
  double eval = 0.0;      // pre- and post-pruning test evaluation
  double total() const { return pretrain + prune + finetune + eval; }
};

struct ExperimentResult {
  ExperimentConfig config;
  // Control metrics for the unpruned model (paper: "also report these
  // metrics for an appropriate control").
  double pre_top1 = 0.0, pre_top5 = 0.0, pre_loss = 0.0;
  // Pruned + fine-tuned model.
  double post_top1 = 0.0, post_top5 = 0.0, post_loss = 0.0;
  double compression = 1.0;  // achieved: total params / surviving params
  double speedup = 1.0;      // achieved: dense madds / effective madds
  int64_t params_total = 0, params_nonzero = 0;
  int64_t flops_dense = 0, flops_effective = 0;
  int finetune_epochs = 0;
  /// Per-phase wall-clock breakdown; phases.total() is the work time,
  /// `seconds` the end-to-end wall time (phases + metric accounting).
  PhaseTimings phases;
  double seconds = 0.0;
  /// Set when the experiment threw on every attempt: the row records the
  /// config and the exception text instead of metrics, so a sweep's CSV
  /// accounts for every grid point even under failures.
  bool failed = false;
  std::string error;
  /// Served from the on-disk result cache (in-memory only, not persisted).
  bool from_cache = false;
  /// Numeric-anomaly bookkeeping summed over all fine-tuning rounds (see
  /// TrainHistory). In-memory + run manifest only — deliberately kept out
  /// of the cache entry and CSV so both formats stay stable.
  int64_t anomalies = 0;
  int64_t skipped_batches = 0;
  int64_t rollbacks = 0;
  /// Fine-tuning rounds that resumed from a training checkpoint.
  int resumed_rounds = 0;
};

/// Stable fingerprint of everything that affects an experiment's outcome;
/// used as the result-cache key.
std::string config_fingerprint(const ExperimentConfig& config);

/// Runs experiments with shared dataset/pretrained-model caches. Completed
/// results are additionally cached on disk by config fingerprint, so
/// benches that share configurations (e.g. Figure 6 and Figures 17-18) pay
/// for each experiment once.
///
/// Thread safety: run() may be called concurrently from several sweep
/// workers. The dataset cache hands out stable addresses (entries are
/// heap-allocated and never moved) behind a mutex, and pretrained-model
/// fetches are serialized so a cold checkpoint is trained once — the
/// second worker finds it in the disk cache instead of retraining.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(std::string cache_dir = default_cache_dir());

  ExperimentResult run(const ExperimentConfig& config);

  /// The dataset bundle a config resolves to (cached).
  const DatasetBundle& dataset(const std::string& name, uint64_t data_seed = 0);

  /// Pretrained model for a config (cached on disk).
  ModelPtr pretrained(const ExperimentConfig& config);

  /// Root of the shared on-disk caches (results, pretrained models,
  /// checkpoints) — the directory fleet workers coordinate through.
  const std::string& cache_dir() const;

 private:
  PretrainedStore store_;
  // Keyed by "name/seed"; unique_ptr keeps bundle addresses stable across
  // cache growth, so references handed to one sweep worker survive
  // another worker's insert.
  std::vector<std::pair<std::string, std::unique_ptr<DatasetBundle>>> datasets_;
  std::mutex datasets_mu_;
  std::mutex pretrain_mu_;
};

/// Knobs for run_sweep's fault tolerance and incremental output.
struct SweepOptions {
  /// Non-empty: finished result rows are appended (and flushed) to this
  /// CSV in grid order, each as soon as every row before it is done,
  /// header first, so an interrupted bench keeps its finished prefix.
  /// Benches rewrite the same path atomically at the end, making the
  /// final file canonical.
  std::string csv_path;
  /// Append to an existing csv_path instead of truncating it — for
  /// benches that pour several sweeps into one CSV. A torn last line
  /// (a kill mid-append) is cut off before appending.
  bool append = false;
  /// Extra attempts for an experiment that throws; -1 reads SB_RETRIES
  /// from the environment (default 1).
  int retries = -1;
  /// Threads claiming this process's grid points; -1 reads
  /// SB_SWEEP_PARALLEL from the environment (default 1). The threads
  /// share one cursor over the claim order and, when there are several,
  /// run their experiments with the tensor thread pool disabled
  /// (experiment-level parallelism replaces op-level), so each
  /// experiment still computes bit-identical results. Composes with
  /// shards: a fleet of P processes x T threads has P*T claimers.
  int parallel = -1;
  /// Every sweep is shard shard_id of shard_count, and a plain
  /// sequential sweep is shard 0 of 1. The process claims grid points
  /// through flock'd claim files in the shared result cache: its own
  /// shard first (indices with i % shard_count == shard_id), then the
  /// rest; points a peer holds are deferred and waited out, so on return
  /// the results cover the FULL grid in grid order and any process's
  /// final CSV is byte-identical to a sequential sweep's. -1 reads
  /// SB_FLEET_SHARD / SB_FLEET_SHARDS from the environment (default 0
  /// of 1). With shard_count > 1 the incremental CSV streams to
  /// csv_path + ".shard<id>"; every stream holds the grid-ordered
  /// contiguous prefix of the finished rows.
  int shard_id = -1;
  int shard_count = -1;
};

/// What actually happened during a sweep — benches fold this into their
/// process exit code (failures -> 1, interrupted -> 130).
struct SweepSummary {
  size_t total = 0;       // grid points in the sweep
  size_t completed = 0;   // rows produced (including failed rows)
  size_t failures = 0;    // rows that failed after all retries
  size_t cache_hits = 0;  // rows served from the on-disk result cache
  /// Grid points this process computed after first deferring them to a
  /// peer holding the claim — the peer released the claim without
  /// producing a cache entry (it was preempted, or the row failed).
  size_t stolen = 0;
  bool interrupted = false;  // SIGINT (or injected interrupt) stopped the sweep
  int exit_code() const { return interrupted ? 130 : failures > 0 ? 1 : 0; }
};

/// Cartesian sweep over strategies x compression ratios x seeds, reporting
/// progress on stderr. This is the workhorse behind Figures 6-18.
///
/// Fault tolerance: an experiment that throws is retried (SB_RETRIES,
/// default 1) and then recorded as a failed row carrying the error string
/// — it never kills the sweep. SIGINT triggers a clean flush-and-exit
/// after the in-flight experiment; completed configs short-circuit
/// through the result cache on the next run, so a killed sweep resumes
/// with zero recomputation.
std::vector<ExperimentResult> run_sweep(ExperimentRunner& runner, const ExperimentConfig& base,
                                        const std::vector<std::string>& strategies,
                                        const std::vector<double>& compressions,
                                        const std::vector<uint64_t>& run_seeds,
                                        const SweepOptions& options = {},
                                        SweepSummary* summary = nullptr);

/// SIGINT sets a flag that run_sweep checks between experiments (first
/// Ctrl-C drains cleanly; the handler resets itself so a second one kills
/// the process). request/clear exist so tests and embedding code can
/// drive the same path without signals.
bool sweep_interrupt_requested();
void request_sweep_interrupt();
void clear_sweep_interrupt();

/// CSV serialization for downstream analysis/plotting.
std::string experiment_csv_header();
std::string experiment_csv_row(const ExperimentResult& result);
void write_experiment_csv(const std::string& path, const std::vector<ExperimentResult>& results);

/// Writes the per-run JSON manifest that accompanies each bench CSV:
/// git revision, per-result config fingerprints + phase timings, and a
/// snapshot of the profiler's counters/gauges/histograms/spans (empty
/// when profiling is off). Schema: "shrinkbench.run_manifest/v1".
void write_run_manifest(const std::string& path, const std::string& bench_name,
                        const std::vector<ExperimentResult>& results);

}  // namespace shrinkbench
