// Async inference server over a compiled Executor.
//
// Architecture: callers submit() single samples into a bounded queue;
// N worker threads pull, run the executor, and fulfill one future per
// request. Batching is work-conserving: a worker that wakes on a
// non-empty queue takes up to max_batch of the queued requests in FIFO
// order and runs them at once, never waiting for more arrivals. A lone
// caller therefore pays only its own forward(), and batches form only
// from requests that queued while every worker was busy.
//
// Overload & failure discipline (the serving-side analogue of the
// offline pipeline's crash safety):
//
//   * Deadlines — each request carries an optional deadline
//     (ServerOptions::default_deadline_us, or per-submit override).
//     Workers sweep expired requests out of the queue before batch
//     assembly and fulfill them with DeadlineExceeded, so a stale
//     request never wastes executor time and p99 of successes stays
//     bounded by the deadline. A deadline too large for the clock to
//     represent means no deadline.
//   * Admission control — a full queue is handled per
//     ServerOptions::overload_policy (env SB_SERVE_OVERLOAD):
//     Block (closed-loop backpressure, the original behavior), Reject
//     (submit fails fast with Overloaded), or DropOldest (the stalest
//     queued request is shed with Overloaded to admit the new one).
//   * Circuit breaker — breaker_threshold consecutive executor failures
//     (exceptions, or non-finite outputs when check_finite is on) trip
//     the breaker open; batches then route to the optional fallback
//     executor (e.g. the dense baseline when a sparse path faults) and
//     are counted as degraded. Every breaker_probe_every-th open-state
//     batch is a half-open probe on the primary; one success closes the
//     breaker. With no fallback, open-state batches fail fast.
//   * Watchdog — a monitor thread (stall_timeout_ms > 0) detects a
//     worker stuck inside exec.forward(), logs the thread + batch age,
//     marks the status.json heartbeat degraded, and fails the stalled
//     batch's futures when the call finally returns.
//
// Shutdown mirrors run_sweep's SIGINT drain semantics: shutdown() stops
// admissions (late submit() throws), wakes everything, lets workers
// drain the queue to empty, then joins. Every accepted request's future
// is fulfilled exactly once — drain loses zero requests, and the drain
// never sheds (DropOldest only acts on live submissions) — and shutdown
// is idempotent, so signal handlers and destructors can race it safely.
//
// Observability (zero-overhead when off, like the rest of src/obs):
//   SB_PROF      histograms serve.latency_us / serve.batch_size (every
//                fulfilled request, including exception fulfillments, so
//                p99 under faults is honest), counters serve.requests /
//                serve.batches / serve.shed / serve.rejected_overload /
//                serve.deadline_exceeded / serve.degraded_batches /
//                serve.exec_failures / serve.stalls, gauges
//                serve.queue_depth (updated on every enqueue, dequeue,
//                and shed) and serve.breaker_state (0 closed, 1 open,
//                2 half-open); histograms serve.queue_wait_us (per
//                dispatched request, enqueue to dequeue) and serve.exec_us
//                (per batch, staging + executor calls + fulfilment) split
//                serve.latency_us into waiting and computing
//   SB_TELEMETRY time series serve.queue_depth / serve.batch_size and a
//                "serve" heartbeat block (+ top-level degraded flag)
//
// Fault sites (deterministic, SB_FAULT): serve.exec_throw throws out of
// the primary executor call, serve.exec_nan poisons its output with a
// NaN (caught when check_finite is on), serve.worker_stall parks the
// executor call long enough for the watchdog to fire.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/executor.hpp"

namespace shrinkbench::serve {

/// What submit() does when the queue is at capacity.
enum class OverloadPolicy {
  Block,      // wait for space (closed-loop backpressure)
  Reject,     // throw Overloaded immediately (fail fast)
  DropOldest, // shed the stalest queued request to admit the new one
};

std::string to_string(OverloadPolicy policy);
OverloadPolicy overload_policy_from_name(const std::string& name);

/// Request refused or shed because the queue was full.
struct Overloaded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Request expired in-queue before a worker could batch it.
struct DeadlineExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ServerOptions {
  int workers = 1;            // batch-executing threads
  size_t queue_capacity = 256;
  int64_t max_batch = 8;      // most requests one executor call takes

  /// Admission policy for a full queue. Unset falls back to
  /// SB_SERVE_OVERLOAD (block|reject|drop-oldest), then Block.
  std::optional<OverloadPolicy> overload_policy;

  /// Deadline applied to requests submitted without an explicit one.
  /// 0 = no deadline. Unset falls back to SB_SERVE_DEADLINE_US (an
  /// integer; anything else throws std::invalid_argument), then 0.
  std::optional<int64_t> default_deadline_us;

  /// Consecutive primary-executor failures that trip the breaker open.
  /// 0 disables the breaker (failures just fail their batch).
  int breaker_threshold = 3;
  /// While open, every Nth batch is a half-open probe on the primary.
  int64_t breaker_probe_every = 8;
  /// Optional degraded-mode executor (must outlive the server and share
  /// the primary's sample shape). Routed to while the breaker is open,
  /// and retried immediately when a primary batch fails.
  const Executor* fallback = nullptr;
  /// Treat non-finite primary outputs as executor failures.
  bool check_finite = false;

  /// Watchdog threshold for a single exec.forward() call; 0 disables
  /// the watchdog thread entirely.
  int64_t stall_timeout_ms = 0;
};

/// serve.breaker_state gauge values.
enum class BreakerState { Closed = 0, Open = 1, HalfOpen = 2 };

struct ServerStats {
  int64_t submitted = 0;  // accepted into the queue
  int64_t completed = 0;  // futures fulfilled with a result
  int64_t failed = 0;     // futures fulfilled with an exception (any kind)
  int64_t rejected = 0;   // submit() calls refused after shutdown began
  int64_t rejected_overload = 0;  // submit() calls refused by Reject
  int64_t shed = 0;               // queued requests dropped by DropOldest
  int64_t deadline_exceeded = 0;  // requests expired in-queue
  int64_t exec_failures = 0;      // primary executor batch failures
  int64_t degraded_batches = 0;   // batches served by the fallback
  int64_t breaker_trips = 0;      // closed -> open transitions
  int64_t stalls = 0;             // watchdog-detected stuck batches
  int64_t batches = 0;            // batches fulfilled (primary or fallback)
  size_t max_queue_depth = 0;
  BreakerState breaker_state = BreakerState::Closed;
};

class InferenceServer {
 public:
  /// The executor (and any opts.fallback) must outlive the server.
  /// Workers start immediately.
  InferenceServer(const Executor& exec, ServerOptions opts);
  ~InferenceServer();  // implies shutdown()

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// sample: one input of exactly sample_shape (no batch dimension).
  /// deadline_us: < 0 uses the server default, 0 means no deadline.
  /// Full-queue behavior follows the overload policy: Block waits,
  /// Reject throws Overloaded, DropOldest sheds the oldest queued
  /// request. Throws std::runtime_error once shutdown has begun.
  std::future<Tensor> submit(Tensor sample, int64_t deadline_us = -1);

  /// Stop admissions, drain, join workers + watchdog. Idempotent and
  /// safe to call from multiple threads; returns once all workers have
  /// exited.
  void shutdown();

  bool accepting() const;
  ServerStats stats() const;
  const Executor& executor() const { return exec_; }
  OverloadPolicy overload_policy() const { return policy_; }
  int64_t default_deadline_us() const { return default_deadline_us_; }

 private:
  struct Request {
    Tensor sample;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // epoch = none
    bool has_deadline = false;
  };

  /// Per-worker slot the watchdog inspects: when did the worker enter
  /// the executor, and has the watchdog already flagged that call.
  struct WorkerWatch {
    std::chrono::steady_clock::time_point busy_since;
    bool in_exec = false;
    bool stalled = false;
  };

  void worker_loop(int worker_index);
  void watchdog_loop();
  void run_batch(std::vector<Request>& batch, int worker_index);
  /// Fulfills every request in `batch` with one row of `y`, recording
  /// latency/batch metrics (+ degraded accounting for fallback batches).
  void fulfill_batch(std::vector<Request>& batch, const Tensor& y, bool degraded);
  /// Fulfills every request in `batch` with `err`, recording latency +
  /// request counters (failures are observed too — p99 stays honest).
  void fail_batch(std::vector<Request>& batch, std::exception_ptr err,
                  const char* counter = nullptr);
  /// Primary executor call wrapped with the serve fault sites, watchdog
  /// bookkeeping (*stalled reports the watchdog's verdict for this call,
  /// set even on the exception path), and the optional non-finite output
  /// check. Throws on (injected) failure.
  Tensor run_primary(const Tensor& x, int worker_index, bool* stalled);
  void publish_queue_depth(size_t depth);
  void publish_serve_status();
  /// Locked helpers for breaker bookkeeping.
  void trip_breaker_locked();
  void close_breaker_locked();

  const Executor& exec_;
  const ServerOptions opts_;
  OverloadPolicy policy_ = OverloadPolicy::Block;
  int64_t default_deadline_us_ = 0;

  mutable std::mutex mu_;
  std::condition_variable queue_nonempty_;
  std::condition_variable queue_has_space_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  ServerStats stats_;

  // Circuit breaker (guarded by mu_).
  BreakerState breaker_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  int64_t open_batches_ = 0;  // batches handled since the breaker opened

  // Watchdog (guarded by watch_mu_ so the monitor never contends with
  // the queue lock while a worker holds it across an executor call).
  mutable std::mutex watch_mu_;
  std::vector<WorkerWatch> watch_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::once_flag join_once_;
};

}  // namespace shrinkbench::serve
