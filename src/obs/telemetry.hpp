// Runtime telemetry: time-series registry, background resource sampler,
// streaming quantile histograms, and the live status heartbeat.
//
// The profiler (profile.hpp) answers "what ran?" after the fact; this
// layer answers "what is running right now?" — the blind spot a
// multi-hour sweep or a kill-and-resume fleet worker otherwise leaves
// until it exits.
//
// Environment contract:
//
//   SB_TELEMETRY=1             enable telemetry (registry + sampler)
//   SB_TELEMETRY_HZ=H          sampler cadence in ticks/second (default 1,
//                              clamp [0.1, 100]; 0 = no background thread,
//                              ticks only via sample_once())
//   SB_STATUS_FILE=status.json atomically rewrite a live status heartbeat
//                              every tick (implies SB_TELEMETRY)
//   SB_TELEMETRY_JSONL=f.jsonl additionally stream every time-series
//                              sample to this file, one JSON object per
//                              line, flushed per tick — tail-able while
//                              the run is alive (implies SB_TELEMETRY)
//
// With all of them unset the subsystem is a no-op under the same
// zero-overhead contract as the profiler: every entry point is a single
// branch on a cached flag, the Telemetry singleton is never constructed,
// and no thread is ever spawned (tests assert this).
//
// When enabled, a background thread ticks at SB_TELEMETRY_HZ. Each tick:
//   * samples process resources (RSS / peak RSS / user+sys CPU from
//     resource.hpp) into the "proc.*" series;
//   * samples thread-pool utilization (jobs, queue depth, per-worker
//     busy fraction) via the hook tensor/threadpool registers;
//   * mirrors every live profiler counter/gauge into "counter.*" /
//     "gauge.*" series, turning end-of-run aggregates into curves;
//   * rewrites the status heartbeat (atomic temp-file + rename, so a
//     concurrent reader always sees complete JSON) and appends the tick's
//     samples to the JSONL stream.
//
// The status board (status_set_* below) is the write side of the
// heartbeat: run_sweep publishes phase/grid-progress/ETA, train_model
// publishes last-epoch metrics and anomaly counts, and sb_top renders
// the resulting status.json files live.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace shrinkbench::obs {

/// True when SB_TELEMETRY / SB_STATUS_FILE / SB_TELEMETRY_JSONL enables
/// telemetry (cached on first call) or set_telemetry_enabled(true) was
/// called. The fast path for every telemetry hook.
bool telemetry_enabled();
void set_telemetry_enabled(bool enabled);

/// Sampler cadence; SB_TELEMETRY_HZ on first call, until overridden.
/// <= 0 means no background thread (manual sample_once() only).
double telemetry_hz();
void set_telemetry_hz(double hz);

/// Heartbeat destination; empty = heartbeat off. SB_STATUS_FILE on first
/// telemetry_enabled() call, until overridden.
std::string status_path();
void set_status_path(const std::string& path);

// ---------------------------------------------------------------------
// Streaming quantile histogram
// ---------------------------------------------------------------------

/// Fixed log-bucket quantile estimator: values land in geometric buckets
/// [lo, lo*growth) and a quantile query answers with the bucket's
/// geometric midpoint, bounding the relative error by sqrt(growth) - 1
/// (< 4% at the default growth of 1.08). Values <= kMinValue (including
/// zero and negatives) collapse into an underflow bucket reported as
/// their running minimum. O(1) observe, O(buckets) query, ~5 KB at full
/// range — cheap enough for one per named histogram in the profiler.
class QuantileHistogram {
 public:
  static constexpr double kGrowth = 1.08;
  static constexpr double kMinValue = 1e-9;
  static constexpr double kMaxValue = 1e12;

  void observe(double value);
  /// Value at quantile q in [0, 1] (nearest-rank on bucket midpoints);
  /// 0 when empty.
  double quantile(double q) const;
  int64_t count() const { return count_; }

 private:
  std::vector<int64_t> buckets_;  // grown lazily to the highest seen index
  int64_t underflow_ = 0;         // values <= kMinValue
  double underflow_min_ = 0.0;
  int64_t count_ = 0;
};

// ---------------------------------------------------------------------
// Thread-pool sampling hook (registered by tensor/threadpool so sb_obs
// never links against sb_tensor)
// ---------------------------------------------------------------------

struct PoolSample {
  int threads = 0;         // pool size including the calling thread
  int64_t jobs = 0;        // parallel_for fan-outs submitted so far
  int64_t chunks = 0;      // chunks executed so far
  int in_flight = 0;       // 1 while a fan-out is executing
  int pending_chunks = 0;  // chunks of the current job not yet finished
  /// Cumulative busy seconds per pool slot (slot 0 = the submitting
  /// thread); only accumulated while telemetry is enabled.
  std::vector<double> slot_busy_seconds;
  double busy_seconds() const {
    double total = 0.0;
    for (const double s : slot_busy_seconds) total += s;
    return total;
  }
};

using PoolSampleFn = PoolSample (*)();
/// Installed once at static-init by tensor/threadpool; nullptr until then.
void set_pool_sampler(PoolSampleFn fn);

// ---------------------------------------------------------------------
// Telemetry singleton: time-series registry + sampler + heartbeat
// ---------------------------------------------------------------------

struct TimeSeriesPoint {
  double t = 0.0;  // seconds since telemetry start
  double value = 0.0;
};

class Telemetry {
 public:
  /// Lazily constructs the singleton. Callers must check
  /// telemetry_enabled() first; the no-op path never gets here.
  static Telemetry& instance();
  /// Whether instance() has ever been called — the zero-overhead
  /// guarantee tests assert this stays false with every switch off.
  static bool constructed();

  /// Appends a timestamped sample to the named series (bounded: the
  /// oldest half is dropped past kMaxPointsPerSeries).
  void record(const std::string& series, double value);
  void record_at(const std::string& series, double t, double value);

  /// Runs one sampler tick synchronously: resources, pool utilization,
  /// profiler counters/gauges, heartbeat rewrite, JSONL append. The
  /// background thread calls exactly this; tests call it directly.
  void sample_once();

  /// Spawns the background sampler at telemetry_hz() (idempotent; no-op
  /// when hz <= 0). stop_sampler() joins it — also registered atexit so
  /// the thread never outlives main.
  void start_sampler();
  void stop_sampler();

  std::map<std::string, std::vector<TimeSeriesPoint>> series() const;

  /// One JSON object per sample, ordered by time within each tick:
  ///   {"t":12.5,"series":"proc.rss_mb","value":143.2}
  std::string series_jsonl() const;
  bool write_series_jsonl(const std::filesystem::path& path) const;

  /// Serializes the status board + a fresh resource/pool sample as the
  /// heartbeat JSON (schema "shrinkbench.status/v1").
  std::string status_json();
  /// Atomically rewrites status_path() (no-op when unset). Returns false
  /// only on an I/O failure.
  bool write_status();

  /// Drops all series and resets the status board (tests).
  void reset();

  double now_seconds() const;

  static constexpr size_t kMaxPointsPerSeries = 65536;

  struct Impl;
  /// Internal: the status-board free functions below live in the same TU
  /// and mutate Impl directly; nothing else should touch this.
  Impl& impl_ref();

 private:
  Telemetry();

  Impl* impl_;
};

// ---------------------------------------------------------------------
// Status board — the write side of the heartbeat. Single-branch no-ops
// while telemetry is disabled.
// ---------------------------------------------------------------------

/// Top-level phase ("sweep", "done", "interrupted"; run_sweep owns it).
void status_set_phase(const std::string& phase);
/// Inner pipeline stage ("pretrain"/"prune"/"finetune"/"eval"; the
/// experiment runner owns it).
void status_set_stage(const std::string& stage);
/// Grid progress + ETA in seconds (<= 0 = unknown).
void status_set_progress(size_t done, size_t total, double eta_seconds);
/// Last finished epoch's metrics from train_model.
void status_set_epoch(int epoch, double train_loss, double val_top1);
/// Cumulative counts; the set_* flavors publish absolute sweep-level
/// numbers, the add_* flavors accumulate across nested calls.
void status_set_failures(int64_t failures, int64_t cache_hits);
void status_add_anomalies(int64_t n);
void status_add_retries(int64_t n);

/// Serving-side health block published by serve::InferenceServer; shows
/// up as a "serve" object in the heartbeat once set (sb_top renders it).
struct ServeStatus {
  int64_t queue_depth = 0;
  int64_t shed = 0;               // DropOldest victims so far
  int64_t deadline_exceeded = 0;  // in-queue expiries so far
  int64_t rejected_overload = 0;  // Reject-policy refusals so far
  int64_t degraded_batches = 0;   // batches served by the fallback
  int64_t stalls = 0;             // watchdog-detected stuck batches
  int breaker_state = 0;          // 0 closed, 1 open, 2 half-open
};
void status_set_serve(const ServeStatus& serve);

/// Degraded marker: a non-empty reason surfaces "degraded": true (+ the
/// reason) at the heartbeat's top level — the watchdog sets it while a
/// worker is stalled; an empty reason clears it on recovery.
void status_set_degraded(const std::string& reason);

/// Immediate heartbeat rewrite (sweep start/end, tests); the sampler
/// otherwise owns the cadence.
void write_status_now();

}  // namespace shrinkbench::obs
