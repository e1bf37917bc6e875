#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/io.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "tensor/simd.hpp"

namespace shrinkbench::obs {

namespace {

// -1 = not yet resolved from the environment, 0 = off, 1 = on.
std::atomic<int> g_enabled{-1};
std::atomic<bool> g_constructed{false};
std::atomic<PoolSampleFn> g_pool_sampler{nullptr};

std::mutex& paths_mutex() {
  static std::mutex mu;
  return mu;
}

std::string& status_path_storage() {
  static std::string path;
  return path;
}

std::string& jsonl_path_storage() {
  static std::string path;
  return path;
}

std::atomic<double> g_hz{-1.0};  // < 0 = not yet resolved

bool env_truthy(const char* value) {
  if (!value || !*value) return false;
  return std::string(value) != "0" && std::string(value) != "false";
}

double clamp_hz(double hz) {
  if (hz <= 0.0) return 0.0;
  return std::clamp(hz, 0.1, 100.0);
}

void resolve_from_env() {
  bool enabled = env_truthy(std::getenv("SB_TELEMETRY"));
  // A configured destination implies telemetry, mirroring SB_TRACE
  // implying SB_PROF.
  if (const char* status = std::getenv("SB_STATUS_FILE"); status && *status) {
    enabled = true;
    std::string path = status;
    // Fleet workers share one SB_STATUS_FILE from their coordinator's
    // environment; the per-worker SB_STATUS_SUFFIX (e.g. ".w3") keeps
    // their heartbeats from clobbering each other while staying globbable
    // for sb_top --fleet.
    if (const char* suffix = std::getenv("SB_STATUS_SUFFIX"); suffix && *suffix) path += suffix;
    std::lock_guard<std::mutex> lock(paths_mutex());
    if (status_path_storage().empty()) status_path_storage() = path;
  }
  if (const char* jsonl = std::getenv("SB_TELEMETRY_JSONL"); jsonl && *jsonl) {
    enabled = true;
    std::lock_guard<std::mutex> lock(paths_mutex());
    if (jsonl_path_storage().empty()) jsonl_path_storage() = jsonl;
  }
  if (g_hz.load(std::memory_order_relaxed) < 0.0) {
    double hz = 1.0;
    if (const char* env = std::getenv("SB_TELEMETRY_HZ"); env && *env) {
      hz = clamp_hz(std::strtod(env, nullptr));
    }
    g_hz.store(hz, std::memory_order_relaxed);
  }
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, enabled ? 1 : 0);
}

void stop_sampler_at_exit();

}  // namespace

bool telemetry_enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    resolve_from_env();
    state = g_enabled.load(std::memory_order_relaxed);
  }
  return state == 1;
}

void set_telemetry_enabled(bool enabled) { g_enabled.store(enabled ? 1 : 0); }

double telemetry_hz() {
  telemetry_enabled();  // make sure SB_TELEMETRY_HZ has been consulted
  return g_hz.load(std::memory_order_relaxed);
}

void set_telemetry_hz(double hz) { g_hz.store(clamp_hz(hz)); }

std::string status_path() {
  telemetry_enabled();  // make sure SB_STATUS_FILE has been consulted
  std::lock_guard<std::mutex> lock(paths_mutex());
  return status_path_storage();
}

void set_status_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(paths_mutex());
  status_path_storage() = path;
}

void set_pool_sampler(PoolSampleFn fn) { g_pool_sampler.store(fn); }

// ---------------------------------------------------------------------
// QuantileHistogram
// ---------------------------------------------------------------------

namespace {

// Bucket i covers [kMinValue * growth^i, kMinValue * growth^(i+1)).
int bucket_index(double value) {
  static const double inv_log_growth = 1.0 / std::log(QuantileHistogram::kGrowth);
  const double clamped = std::min(value, QuantileHistogram::kMaxValue);
  return static_cast<int>(std::log(clamped / QuantileHistogram::kMinValue) * inv_log_growth);
}

double bucket_midpoint(int index) {
  // Geometric midpoint: relative error bounded by sqrt(growth) - 1.
  return QuantileHistogram::kMinValue *
         std::pow(QuantileHistogram::kGrowth, static_cast<double>(index) + 0.5);
}

}  // namespace

void QuantileHistogram::observe(double value) {
  ++count_;
  if (!(value > kMinValue)) {  // zero, negative, NaN: underflow bucket
    if (underflow_ == 0 || value < underflow_min_) underflow_min_ = value == value ? value : 0.0;
    ++underflow_;
    return;
  }
  const int index = bucket_index(value);
  if (static_cast<size_t>(index) >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
}

double QuantileHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest value with cumulative count > rank.
  int64_t rank = static_cast<int64_t>(clamped_q * static_cast<double>(count_ - 1));
  if (rank < underflow_) return underflow_min_;
  rank -= underflow_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    rank -= buckets_[i];
    if (rank < 0) return bucket_midpoint(static_cast<int>(i));
  }
  return buckets_.empty() ? underflow_min_ : bucket_midpoint(static_cast<int>(buckets_.size()) - 1);
}

// ---------------------------------------------------------------------
// Telemetry singleton
// ---------------------------------------------------------------------

struct StatusBoard {
  std::string phase;
  std::string stage;
  size_t done = 0, total = 0;
  double eta_seconds = 0.0;
  int epoch = -1;
  double train_loss = 0.0, val_top1 = 0.0;
  int64_t anomalies = 0, retries = 0, failures = 0, cache_hits = 0;
  ServeStatus serve;
  bool serve_set = false;
  std::string degraded_reason;  // non-empty = heartbeat reports degraded
};

struct Telemetry::Impl {
  mutable std::mutex mu;
  std::chrono::steady_clock::time_point epoch_time;
  std::map<std::string, std::vector<TimeSeriesPoint>> series;
  StatusBoard board;

  // JSONL streaming sink (lazily opened from the configured path).
  std::ofstream jsonl;
  bool jsonl_opened = false;

  // Pool-utilization deltas between ticks -> busy fractions.
  PoolSample prev_pool;
  double prev_pool_t = 0.0;
  PoolSample last_pool;
  std::vector<double> last_busy_frac;

  // Background sampler.
  std::thread sampler;
  std::condition_variable sampler_cv;
  std::mutex sampler_mu;
  bool sampler_stop = false;
  std::atomic<bool> sampler_running{false};

  void append_locked(const std::string& name, double t, double value) {
    std::vector<TimeSeriesPoint>& points = series[name];
    if (points.size() >= kMaxPointsPerSeries) {
      points.erase(points.begin(), points.begin() + static_cast<ptrdiff_t>(points.size() / 2));
    }
    points.push_back({t, value});
    if (!jsonl_opened) {
      jsonl_opened = true;
      std::string path;
      {
        std::lock_guard<std::mutex> plock(paths_mutex());
        path = jsonl_path_storage();
      }
      if (!path.empty()) {
        const std::filesystem::path p(path);
        std::error_code ec;
        if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
        jsonl.open(path, std::ios::trunc);
      }
    }
    if (jsonl.is_open()) {
      jsonl << "{\"t\":" << json_num(t) << ",\"series\":" << json_str(name)
            << ",\"value\":" << json_num(value) << "}\n";
    }
  }
};

Telemetry::Telemetry() : impl_(new Impl) {
  impl_->epoch_time = std::chrono::steady_clock::now();
  // The sampler thread must never outlive main: stop it (and flush the
  // JSONL stream) before static destruction starts.
  std::atexit(stop_sampler_at_exit);
}

Telemetry& Telemetry::instance() {
  static Telemetry* t = [] {
    g_constructed.store(true);
    return new Telemetry();  // leaked deliberately: usable during atexit
  }();
  return *t;
}

bool Telemetry::constructed() { return g_constructed.load(); }

double Telemetry::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - impl_->epoch_time)
      .count();
}

void Telemetry::record(const std::string& series, double value) {
  record_at(series, now_seconds(), value);
}

void Telemetry::record_at(const std::string& series, double t, double value) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->append_locked(series, t, value);
}

void Telemetry::sample_once() {
  const double t = now_seconds();
  const ResourceSample res = sample_resources();
  PoolSample pool;
  if (PoolSampleFn fn = g_pool_sampler.load()) pool = fn();

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (res.valid) {
      impl_->append_locked("proc.rss_mb", t, res.rss_mb);
      impl_->append_locked("proc.peak_rss_mb", t, res.peak_rss_mb);
      impl_->append_locked("proc.cpu_user_s", t, res.user_cpu_seconds);
      impl_->append_locked("proc.cpu_sys_s", t, res.sys_cpu_seconds);
      impl_->append_locked("proc.os_threads", t, static_cast<double>(res.os_threads));
    }
    if (pool.threads > 0) {
      impl_->append_locked("pool.jobs", t, static_cast<double>(pool.jobs));
      impl_->append_locked("pool.pending_chunks", t, static_cast<double>(pool.pending_chunks));
      // Busy fraction over the last inter-tick window, per slot and
      // aggregated across the pool.
      const double dt = t - impl_->prev_pool_t;
      impl_->last_busy_frac.assign(pool.slot_busy_seconds.size(), 0.0);
      if (dt > 0.0 && !impl_->prev_pool.slot_busy_seconds.empty()) {
        for (size_t i = 0; i < pool.slot_busy_seconds.size(); ++i) {
          const double prev = i < impl_->prev_pool.slot_busy_seconds.size()
                                  ? impl_->prev_pool.slot_busy_seconds[i]
                                  : 0.0;
          impl_->last_busy_frac[i] =
              std::clamp((pool.slot_busy_seconds[i] - prev) / dt, 0.0, 1.0);
        }
      }
      double busy = 0.0;
      for (const double f : impl_->last_busy_frac) busy += f;
      impl_->append_locked("pool.busy_frac", t,
                           pool.threads > 0 ? busy / static_cast<double>(pool.threads) : 0.0);
      impl_->prev_pool = pool;
      impl_->prev_pool_t = t;
      impl_->last_pool = std::move(pool);
    }
    // Mirror the profiler registry into series so counters/gauges become
    // curves instead of end-of-run aggregates. snapshot_if_enabled never
    // constructs the profiler.
    const MetricsSnapshot snap = snapshot_if_enabled();
    for (const auto& [name, value] : snap.counters) {
      impl_->append_locked("counter." + name, t, static_cast<double>(value));
    }
    for (const auto& [name, value] : snap.gauges) {
      impl_->append_locked("gauge." + name, t, value);
    }
    if (impl_->jsonl.is_open()) impl_->jsonl.flush();
  }
  write_status();
}

std::map<std::string, std::vector<TimeSeriesPoint>> Telemetry::series() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->series;
}

std::string Telemetry::series_jsonl() const {
  // Interleave all series by time so the export reads as one monotonic
  // stream, matching what SB_TELEMETRY_JSONL tails live.
  struct Entry {
    double t;
    const std::string* name;
    double value;
    size_t seq;
  };
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    size_t seq = 0;
    for (const auto& [name, points] : impl_->series) {
      for (const TimeSeriesPoint& p : points) entries.push_back({p.t, &name, p.value, seq++});
    }
  }
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  });
  std::ostringstream os;
  for (const Entry& e : entries) {
    os << "{\"t\":" << json_num(e.t) << ",\"series\":" << json_str(*e.name)
       << ",\"value\":" << json_num(e.value) << "}\n";
  }
  return os.str();
}

bool Telemetry::write_series_jsonl(const std::filesystem::path& path) const {
  return atomic_write_file(path, series_jsonl());
}

std::string Telemetry::status_json() {
  const double t = now_seconds();
  const ResourceSample res = sample_resources();
  StatusBoard board;
  PoolSample pool;
  std::vector<double> busy_frac;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    board = impl_->board;
    pool = impl_->last_pool;
    busy_frac = impl_->last_busy_frac;
  }

  std::ostringstream os;
  os << "{\"schema\":\"shrinkbench.status/v1\""
     << ",\"updated_utc\":" << json_str(utc_timestamp()) << ",\"t\":" << json_num(t)
     << ",\"pid\":" << process_id() << ",\"host\":" << json_str(hostname());
  os << ",\"simd\":" << json_str(simd::level_name(simd::active_level()));
  os << ",\"phase\":" << json_str(board.phase) << ",\"stage\":" << json_str(board.stage);
  const double fraction =
      board.total > 0 ? static_cast<double>(board.done) / static_cast<double>(board.total) : 0.0;
  os << ",\"progress\":{\"done\":" << board.done << ",\"total\":" << board.total
     << ",\"fraction\":" << json_num(fraction)
     << ",\"eta_seconds\":" << json_num(board.eta_seconds) << "}";
  if (board.epoch >= 0) {
    os << ",\"train\":{\"epoch\":" << board.epoch
       << ",\"train_loss\":" << json_num(board.train_loss)
       << ",\"val_top1\":" << json_num(board.val_top1) << "}";
  }
  os << ",\"counts\":{\"anomalies\":" << board.anomalies << ",\"retries\":" << board.retries
     << ",\"failures\":" << board.failures << ",\"cache_hits\":" << board.cache_hits << "}";
  if (!board.degraded_reason.empty()) {
    os << ",\"degraded\":true,\"degraded_reason\":" << json_str(board.degraded_reason);
  }
  if (board.serve_set) {
    os << ",\"serve\":{\"queue_depth\":" << board.serve.queue_depth
       << ",\"shed\":" << board.serve.shed
       << ",\"deadline_exceeded\":" << board.serve.deadline_exceeded
       << ",\"rejected_overload\":" << board.serve.rejected_overload
       << ",\"degraded_batches\":" << board.serve.degraded_batches
       << ",\"stalls\":" << board.serve.stalls
       << ",\"breaker_state\":" << board.serve.breaker_state << "}";
  }
  os << ",\"resources\":{\"rss_mb\":" << json_num(res.rss_mb)
     << ",\"peak_rss_mb\":" << json_num(res.peak_rss_mb)
     << ",\"cpu_user_s\":" << json_num(res.user_cpu_seconds)
     << ",\"cpu_sys_s\":" << json_num(res.sys_cpu_seconds)
     << ",\"os_threads\":" << res.os_threads << "}";
  if (pool.threads > 0) {
    os << ",\"pool\":{\"threads\":" << pool.threads << ",\"jobs\":" << pool.jobs
       << ",\"pending_chunks\":" << pool.pending_chunks << ",\"busy_frac\":[";
    for (size_t i = 0; i < busy_frac.size(); ++i) {
      if (i) os << ',';
      os << json_num(busy_frac[i]);
    }
    os << "]}";
  }
  os << "}\n";
  return os.str();
}

bool Telemetry::write_status() {
  const std::string path = status_path();
  if (path.empty()) return true;
  return atomic_write_file(path, status_json());
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->series.clear();
  impl_->board = StatusBoard{};
  impl_->prev_pool = PoolSample{};
  impl_->prev_pool_t = 0.0;
  impl_->last_pool = PoolSample{};
  impl_->last_busy_frac.clear();
}

void Telemetry::start_sampler() {
  if (impl_->sampler_running.load(std::memory_order_acquire)) return;
  const double hz = telemetry_hz();
  if (hz <= 0.0) return;
  std::lock_guard<std::mutex> lock(impl_->sampler_mu);
  if (impl_->sampler_running.load(std::memory_order_relaxed)) return;
  impl_->sampler_stop = false;
  impl_->sampler_running.store(true, std::memory_order_release);
  impl_->sampler = std::thread([this, hz] {
    const auto period = std::chrono::duration<double>(1.0 / hz);
    std::unique_lock<std::mutex> lock(impl_->sampler_mu);
    while (!impl_->sampler_stop) {
      if (impl_->sampler_cv.wait_for(lock, period, [this] { return impl_->sampler_stop; })) {
        break;
      }
      lock.unlock();
      sample_once();
      lock.lock();
    }
  });
}

void Telemetry::stop_sampler() {
  {
    std::lock_guard<std::mutex> lock(impl_->sampler_mu);
    if (!impl_->sampler_running.load(std::memory_order_relaxed)) return;
    impl_->sampler_stop = true;
  }
  impl_->sampler_cv.notify_all();
  if (impl_->sampler.joinable()) impl_->sampler.join();
  impl_->sampler_running.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->jsonl.is_open()) impl_->jsonl.flush();
}

namespace {

void stop_sampler_at_exit() {
  if (Telemetry::constructed()) Telemetry::instance().stop_sampler();
}

/// Shared guard for every status mutation: resolves enablement, lazily
/// constructs the singleton, and makes sure the background sampler is up.
Telemetry* board() {
  if (!telemetry_enabled()) return nullptr;
  Telemetry& t = Telemetry::instance();
  t.start_sampler();
  return &t;
}

template <typename Fn>
void with_board(Fn&& fn) {
  if (Telemetry* t = board()) {
    std::lock_guard<std::mutex> lock(t->impl_ref().mu);
    fn(t->impl_ref().board);
  }
}

}  // namespace

// with_board needs the private Impl; expose it file-locally through a
// member defined after Impl is complete.
Telemetry::Impl& Telemetry::impl_ref() { return *impl_; }

void status_set_phase(const std::string& phase) {
  with_board([&](StatusBoard& b) { b.phase = phase; });
}

void status_set_stage(const std::string& stage) {
  with_board([&](StatusBoard& b) { b.stage = stage; });
}

void status_set_progress(size_t done, size_t total, double eta_seconds) {
  with_board([&](StatusBoard& b) {
    b.done = done;
    b.total = total;
    b.eta_seconds = eta_seconds;
  });
}

void status_set_epoch(int epoch, double train_loss, double val_top1) {
  with_board([&](StatusBoard& b) {
    b.epoch = epoch;
    b.train_loss = train_loss;
    b.val_top1 = val_top1;
  });
}

void status_set_failures(int64_t failures, int64_t cache_hits) {
  with_board([&](StatusBoard& b) {
    b.failures = failures;
    b.cache_hits = cache_hits;
  });
}

void status_add_anomalies(int64_t n) {
  with_board([&](StatusBoard& b) { b.anomalies += n; });
}

void status_add_retries(int64_t n) {
  with_board([&](StatusBoard& b) { b.retries += n; });
}

void status_set_serve(const ServeStatus& serve) {
  with_board([&](StatusBoard& b) {
    b.serve = serve;
    b.serve_set = true;
  });
}

void status_set_degraded(const std::string& reason) {
  with_board([&](StatusBoard& b) { b.degraded_reason = reason; });
}

void write_status_now() {
  if (Telemetry* t = board()) t->write_status();
}

}  // namespace shrinkbench::obs
