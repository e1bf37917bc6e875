#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/io.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "tensor/threadpool.hpp"

namespace shrinkbench::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - start).count();
}

}  // namespace

std::string to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::Block: return "block";
    case OverloadPolicy::Reject: return "reject";
    case OverloadPolicy::DropOldest: return "drop-oldest";
  }
  return "block";
}

OverloadPolicy overload_policy_from_name(const std::string& name) {
  if (name == "block") return OverloadPolicy::Block;
  if (name == "reject") return OverloadPolicy::Reject;
  if (name == "drop-oldest" || name == "drop_oldest" || name == "dropoldest") {
    return OverloadPolicy::DropOldest;
  }
  throw std::invalid_argument("unknown overload policy '" + name +
                              "' (expected block | reject | drop-oldest)");
}

InferenceServer::InferenceServer(const Executor& exec, ServerOptions opts)
    : exec_(exec), opts_(std::move(opts)) {
  if (opts_.workers < 1 || opts_.max_batch < 1 || opts_.queue_capacity < 1) {
    throw std::invalid_argument("InferenceServer: workers, max_batch and queue_capacity must be >= 1");
  }
  if (opts_.breaker_threshold < 0 || opts_.breaker_probe_every < 1 ||
      opts_.stall_timeout_ms < 0 || opts_.default_deadline_us.value_or(0) < 0) {
    throw std::invalid_argument(
        "InferenceServer: breaker_threshold/stall_timeout_ms/default_deadline_us must be >= 0 "
        "and breaker_probe_every >= 1");
  }
  if (opts_.fallback && opts_.fallback->sample_shape() != exec_.sample_shape()) {
    throw std::invalid_argument("InferenceServer: fallback executor sample shape " +
                                shrinkbench::to_string(opts_.fallback->sample_shape()) +
                                " != primary shape " +
                                shrinkbench::to_string(exec_.sample_shape()));
  }

  // Env fallbacks mirror the rest of the runtime knobs: an explicit
  // option wins, SB_SERVE_* fills the gap, then the safe default.
  if (opts_.overload_policy) {
    policy_ = *opts_.overload_policy;
  } else if (const char* env = std::getenv("SB_SERVE_OVERLOAD"); env && *env) {
    policy_ = overload_policy_from_name(env);
  }
  if (opts_.default_deadline_us) {
    default_deadline_us_ = *opts_.default_deadline_us;
  } else if (const char* env = std::getenv("SB_SERVE_DEADLINE_US"); env && *env) {
    char* end = nullptr;
    const long long us = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0') {
      throw std::invalid_argument("SB_SERVE_DEADLINE_US='" + std::string(env) +
                                  "' is not an integer number of microseconds");
    }
    default_deadline_us_ = std::max<int64_t>(0, us);
  }

  watch_.resize(static_cast<size_t>(opts_.workers));
  workers_.reserve(static_cast<size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (opts_.stall_timeout_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::publish_queue_depth(size_t depth) {
  if (obs::profiling_enabled()) obs::set_gauge("serve.queue_depth", static_cast<double>(depth));
  if (obs::telemetry_enabled()) {
    obs::Telemetry::instance().record("serve.queue_depth", static_cast<double>(depth));
  }
}

void InferenceServer::publish_serve_status() {
  if (!obs::telemetry_enabled()) return;
  obs::ServeStatus s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = static_cast<int64_t>(queue_.size());
    s.shed = stats_.shed;
    s.deadline_exceeded = stats_.deadline_exceeded;
    s.rejected_overload = stats_.rejected_overload;
    s.degraded_batches = stats_.degraded_batches;
    s.stalls = stats_.stalls;
    s.breaker_state = static_cast<int>(stats_.breaker_state);
  }
  obs::status_set_serve(s);
}

std::future<Tensor> InferenceServer::submit(Tensor sample, int64_t deadline_us) {
  if (sample.shape() != exec_.sample_shape()) {
    throw std::invalid_argument("submit: sample shape " + shrinkbench::to_string(sample.shape()) +
                                " != compiled shape " + shrinkbench::to_string(exec_.sample_shape()));
  }
  const int64_t effective_deadline = deadline_us < 0 ? default_deadline_us_ : deadline_us;
  Request req;
  req.sample = std::move(sample);
  req.enqueued = Clock::now();
  // A deadline past the last time point the clock can represent would
  // overflow the addition; it saturates to no deadline instead.
  const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::time_point::max() - req.enqueued);
  if (effective_deadline > 0 && effective_deadline < headroom.count()) {
    req.deadline = req.enqueued + std::chrono::microseconds(effective_deadline);
    req.has_deadline = true;
  }
  std::future<Tensor> fut = req.promise.get_future();

  std::optional<Request> shed_victim;
  size_t depth;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (policy_ == OverloadPolicy::Block) {
      queue_has_space_.wait(lk, [&] { return stopping_ || queue_.size() < opts_.queue_capacity; });
    }
    if (stopping_) {
      ++stats_.rejected;
      throw std::runtime_error("InferenceServer: shutting down, request rejected");
    }
    if (queue_.size() >= opts_.queue_capacity) {
      if (policy_ == OverloadPolicy::Reject) {
        ++stats_.rejected_overload;
        obs::count("serve.rejected_overload");
        throw Overloaded("InferenceServer: queue full (" + std::to_string(queue_.size()) +
                         "), request rejected");
      }
      // DropOldest: shed the stalest queued request to admit this one.
      // Only live submissions shed — the drain path never reaches here
      // because stopping_ rejected above.
      shed_victim.emplace(std::move(queue_.front()));
      queue_.pop_front();
      ++stats_.shed;
      ++stats_.failed;
    }
    queue_.push_back(std::move(req));
    ++stats_.submitted;
    depth = queue_.size();
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
  }
  queue_nonempty_.notify_one();
  publish_queue_depth(depth);
  if (shed_victim) {
    const bool prof = obs::profiling_enabled();
    if (prof) {
      obs::observe("serve.latency_us", us_since(shed_victim->enqueued, Clock::now()));
      obs::count("serve.requests");
      obs::count("serve.shed");
    }
    shed_victim->promise.set_exception(std::make_exception_ptr(
        Overloaded("InferenceServer: shed by drop-oldest to admit a newer request")));
    publish_serve_status();
  }
  return fut;
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  queue_nonempty_.notify_all();
  queue_has_space_.notify_all();
  // call_once also makes concurrent shutdown() calls block until the
  // drain + join has actually finished, not just been started.
  std::call_once(join_once_, [this] {
    for (std::thread& t : workers_) t.join();
    {
      std::lock_guard<std::mutex> lk(watch_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
  });
}

bool InferenceServer::accepting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !stopping_;
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void InferenceServer::worker_loop(int worker_index) {
  // With several workers, parallelism lives at the batch level and the
  // kernels inside run inline-serial (as in run_sweep's claiming threads);
  // a single worker instead lets each kernel fan out over the pool.
  std::optional<ThreadPool::SerialGuard> guard;
  if (opts_.workers > 1) guard.emplace();

  std::vector<Request> batch;
  std::vector<Request> expired;
  for (;;) {
    batch.clear();
    expired.clear();
    Clock::time_point dequeued;
    size_t depth_after = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_nonempty_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      dequeued = Clock::now();
      // Deadlines are per-request, so an expired entry can sit behind a
      // live one: one pass over the whole queue moves every expired
      // request out and compacts the survivors in FIFO order.
      auto keep = queue_.begin();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->has_deadline && it->deadline <= dequeued) {
          expired.push_back(std::move(*it));
        } else {
          if (keep != it) *keep = std::move(*it);
          ++keep;
        }
      }
      queue_.erase(keep, queue_.end());
      // Work-conserving batching: an idle worker runs whatever is queued
      // right now, never waiting for more arrivals. Batches therefore
      // form only from requests that queued while every worker was busy.
      const auto take = queue_.begin() + std::min<ptrdiff_t>(queue_.size(), opts_.max_batch);
      std::move(queue_.begin(), take, std::back_inserter(batch));
      queue_.erase(queue_.begin(), take);
      queue_has_space_.notify_all();  // the queue was non-empty: space freed
      depth_after = queue_.size();
      if (!expired.empty()) {
        stats_.deadline_exceeded += static_cast<int64_t>(expired.size());
        stats_.failed += static_cast<int64_t>(expired.size());
      }
    }

    publish_queue_depth(depth_after);
    if (!expired.empty()) {
      fail_batch(expired,
                 std::make_exception_ptr(DeadlineExceeded(
                     "InferenceServer: request expired in queue before batch assembly")),
                 "serve.deadline_exceeded");
      publish_serve_status();
    }
    if (batch.empty()) continue;
    const bool prof = obs::profiling_enabled();
    for (const Request& r : batch) {
      if (prof) obs::observe("serve.queue_wait_us", us_since(r.enqueued, dequeued));
    }
    const auto start = Clock::now();
    run_batch(batch, worker_index);
    if (prof) obs::observe("serve.exec_us", us_since(start, Clock::now()));
  }
}

void InferenceServer::fail_batch(std::vector<Request>& batch, std::exception_ptr err,
                                 const char* counter) {
  const bool prof = obs::profiling_enabled();
  const auto now = Clock::now();
  for (Request& r : batch) {
    if (prof) obs::observe("serve.latency_us", us_since(r.enqueued, now));
    r.promise.set_exception(err);
  }
  if (prof) {
    obs::count("serve.requests", static_cast<int64_t>(batch.size()));
    if (counter) obs::count(counter, static_cast<int64_t>(batch.size()));
  }
}

Tensor InferenceServer::run_primary(const Tensor& x, int worker_index, bool* stalled) {
  if (obs::fault_point("serve.exec_throw")) {
    throw std::runtime_error("injected executor fault (SB_FAULT=serve.exec_throw)");
  }
  // Watchdog window: the monitor thread reads busy_since/in_exec and may
  // flag this call while forward() runs. The destructor captures the
  // verdict into *stalled and clears the slot — on the exception path
  // too, so a call that both stalls and throws is still accounted.
  struct WatchScope {
    InferenceServer* s;
    int idx;
    bool* out;
    WatchScope(InferenceServer* server, int i, bool* stalled_out)
        : s(server), idx(i), out(stalled_out) {
      std::lock_guard<std::mutex> lk(s->watch_mu_);
      WorkerWatch& w = s->watch_[static_cast<size_t>(idx)];
      w.busy_since = Clock::now();
      w.in_exec = true;
      w.stalled = false;
    }
    ~WatchScope() {
      bool was_stalled = false;
      bool any_stalled = false;
      {
        std::lock_guard<std::mutex> lk(s->watch_mu_);
        WorkerWatch& w = s->watch_[static_cast<size_t>(idx)];
        was_stalled = w.stalled;
        w.in_exec = false;
        w.stalled = false;
        for (const WorkerWatch& other : s->watch_) any_stalled |= other.stalled;
      }
      *out = was_stalled;
      // Recovery: once no worker is flagged anymore, lift the degraded
      // mark the watchdog set on the heartbeat.
      if (was_stalled && !any_stalled) obs::status_set_degraded("");
    }
  } watch(this, worker_index, stalled);

  if (obs::fault_point("serve.worker_stall")) {
    const int64_t ms = opts_.stall_timeout_ms > 0 ? opts_.stall_timeout_ms * 3 : 25;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  Tensor y = exec_.forward(x);
  if (obs::fault_point("serve.exec_nan") && y.numel() > 0) {
    y.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  if (opts_.check_finite) {
    for (const float v : y.flat()) {
      if (!std::isfinite(v)) {
        throw std::runtime_error("InferenceServer: non-finite executor output");
      }
    }
  }
  return y;
}

void InferenceServer::trip_breaker_locked() {
  breaker_ = BreakerState::Open;
  stats_.breaker_state = BreakerState::Open;
  open_batches_ = 0;
  ++stats_.breaker_trips;
  SB_LOG_WARN("serve", "circuit breaker OPEN after %d consecutive executor failures%s",
              consecutive_failures_,
              opts_.fallback ? "; routing batches to the fallback executor"
                             : "; failing batches fast (no fallback)");
}

void InferenceServer::close_breaker_locked() {
  breaker_ = BreakerState::Closed;
  stats_.breaker_state = BreakerState::Closed;
  consecutive_failures_ = 0;
  SB_LOG_INFO("serve", "circuit breaker CLOSED: half-open probe succeeded, primary restored");
}

void InferenceServer::run_batch(std::vector<Request>& batch, int worker_index) {
  const int64_t b = static_cast<int64_t>(batch.size());
  Shape in_shape{b};
  in_shape.insert(in_shape.end(), exec_.sample_shape().begin(), exec_.sample_shape().end());
  Tensor x(in_shape);
  const int64_t sample_numel = x.numel() / b;
  for (int64_t i = 0; i < b; ++i) {
    const Tensor& s = batch[static_cast<size_t>(i)].sample;
    std::copy(s.data(), s.data() + sample_numel, x.data() + i * sample_numel);
  }

  // Route per breaker state. While open, every breaker_probe_every-th
  // batch half-opens the breaker and probes the primary.
  bool probe = false;
  BreakerState state;
  {
    std::lock_guard<std::mutex> lk(mu_);
    state = breaker_;
    if (state == BreakerState::Open) {
      ++open_batches_;
      if (open_batches_ % opts_.breaker_probe_every == 0) {
        probe = true;
        breaker_ = BreakerState::HalfOpen;
        stats_.breaker_state = BreakerState::HalfOpen;
        SB_LOG_INFO("serve", "circuit breaker HALF-OPEN: probing the primary executor");
      }
    }
  }
  if (probe && obs::profiling_enabled()) {
    obs::set_gauge("serve.breaker_state", static_cast<double>(BreakerState::HalfOpen));
  }

  Tensor y;
  bool have_primary = false;
  bool stalled = false;
  std::exception_ptr primary_err;
  if (state != BreakerState::Open || probe) {
    try {
      y = run_primary(x, worker_index, &stalled);
      have_primary = true;
    } catch (...) {
      primary_err = std::current_exception();
    }
  }

  if (have_primary && !stalled) {
    bool transitioned = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      consecutive_failures_ = 0;
      if (breaker_ != BreakerState::Closed) {
        close_breaker_locked();
        transitioned = true;
      }
    }
    if (obs::profiling_enabled() && (transitioned || probe)) {
      obs::set_gauge("serve.breaker_state", static_cast<double>(BreakerState::Closed));
    }
    fulfill_batch(batch, y, /*degraded=*/false);
    return;
  }

  if (stalled) {
    // The watchdog flagged this call while it was inside the executor;
    // its latency budget is long blown, so the batch fails on recovery
    // even if forward() eventually produced a result.
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (breaker_ == BreakerState::HalfOpen) {
        breaker_ = BreakerState::Open;
        stats_.breaker_state = BreakerState::Open;
      }
      stats_.failed += b;
      ++stats_.batches;
    }
    if (probe && obs::profiling_enabled()) {
      obs::set_gauge("serve.breaker_state", static_cast<double>(BreakerState::Open));
    }
    fail_batch(batch,
               std::make_exception_ptr(std::runtime_error(
                   "InferenceServer: batch failed after worker stall (watchdog recovery)")),
               nullptr);
    publish_serve_status();
    return;
  }

  if (primary_err) {
    bool tripped = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++consecutive_failures_;
      ++stats_.exec_failures;
      if (opts_.breaker_threshold > 0 && consecutive_failures_ >= opts_.breaker_threshold &&
          breaker_ != BreakerState::Open) {
        trip_breaker_locked();
        tripped = true;
      } else if (breaker_ == BreakerState::HalfOpen) {
        breaker_ = BreakerState::Open;
        stats_.breaker_state = BreakerState::Open;
        SB_LOG_WARN("serve", "circuit breaker stays OPEN: half-open probe failed");
      }
    }
    if (obs::profiling_enabled()) {
      obs::count("serve.exec_failures");
      if (tripped || probe) {
        obs::set_gauge("serve.breaker_state", static_cast<double>(BreakerState::Open));
      }
    }
  }

  // Degraded path: the primary failed (or the breaker is open) — serve
  // this batch from the fallback executor when one is configured.
  if (opts_.fallback) {
    try {
      Tensor fy = opts_.fallback->forward(x);
      fulfill_batch(batch, fy, /*degraded=*/true);
      return;
    } catch (...) {
      primary_err = std::current_exception();
    }
  }

  if (!primary_err) {
    primary_err = std::make_exception_ptr(std::runtime_error(
        "InferenceServer: circuit breaker open and no fallback executor configured"));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.failed += b;
    ++stats_.batches;
  }
  fail_batch(batch, primary_err, nullptr);
  publish_serve_status();
}

void InferenceServer::fulfill_batch(std::vector<Request>& batch, const Tensor& y, bool degraded) {
  const int64_t b = static_cast<int64_t>(batch.size());
  Shape row_shape(y.shape().begin() + 1, y.shape().end());
  const int64_t row_numel = y.numel() / b;
  const auto now = Clock::now();
  const bool prof = obs::profiling_enabled();
  for (int64_t i = 0; i < b; ++i) {
    Request& r = batch[static_cast<size_t>(i)];
    Tensor row(row_shape);
    std::copy(y.data() + i * row_numel, y.data() + (i + 1) * row_numel, row.data());
    r.promise.set_value(std::move(row));
    if (prof) obs::observe("serve.latency_us", us_since(r.enqueued, now));
  }
  if (prof) {
    obs::observe("serve.batch_size", static_cast<double>(b));
    obs::count("serve.requests", b);
    obs::count("serve.batches");
    if (degraded) obs::count("serve.degraded_batches", 1);
  }
  if (obs::telemetry_enabled()) {
    obs::Telemetry::instance().record("serve.batch_size", static_cast<double>(b));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.completed += b;
    ++stats_.batches;
    if (degraded) ++stats_.degraded_batches;
  }
  publish_serve_status();
}

void InferenceServer::watchdog_loop() {
  const auto timeout = std::chrono::milliseconds(opts_.stall_timeout_ms);
  const auto period = std::chrono::milliseconds(
      std::clamp<int64_t>(opts_.stall_timeout_ms / 4, 5, 250));
  for (;;) {
    struct StallEvent {
      int worker;
      double age_ms;
    };
    std::vector<StallEvent> events;
    {
      std::unique_lock<std::mutex> lk(watch_mu_);
      if (watchdog_cv_.wait_for(lk, period, [this] { return watchdog_stop_; })) return;
      const auto now = Clock::now();
      for (size_t i = 0; i < watch_.size(); ++i) {
        WorkerWatch& w = watch_[i];
        if (w.in_exec && !w.stalled && now - w.busy_since > timeout) {
          w.stalled = true;
          events.push_back({static_cast<int>(i),
                            std::chrono::duration<double, std::milli>(now - w.busy_since).count()});
        }
      }
    }
    if (events.empty()) continue;
    for (const StallEvent& e : events) {
      SB_LOG_WARN("serve",
                  "watchdog: worker %d stuck in exec.forward() for %.0f ms "
                  "(stall_timeout %lld ms); batch will fail on recovery",
                  e.worker, e.age_ms, static_cast<long long>(opts_.stall_timeout_ms));
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.stalls += static_cast<int64_t>(events.size());
    }
    obs::count("serve.stalls", static_cast<int64_t>(events.size()));
    obs::status_set_degraded("serve: worker stalled in executor");
    publish_serve_status();
  }
}

}  // namespace shrinkbench::serve
