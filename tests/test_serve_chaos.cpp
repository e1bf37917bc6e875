// Serving chaos suite: the overload/failure robustness layer under
// deterministic fault injection.
//
// The anchor invariant is exactly-once fulfillment: every future submit()
// hands out is fulfilled exactly once — with a value or an exception —
// under every fault site (serve.exec_throw / serve.exec_nan /
// serve.worker_stall) crossed with every overload policy (Block / Reject
// / DropOldest), including a shutdown drain racing an active fault.
// std::promise makes double-fulfillment throw, so a clean run *is* the
// at-most-once proof; the submitted == completed + failed accounting
// closes the at-least-once side.
//
// Also covered here: in-queue deadline expiry (and a deadline past the
// clock's range meaning none), SB_SERVE_* env parsing, circuit breaker
// trip -> fallback -> half-open probe -> close, the watchdog stall path
// (including the degraded heartbeat mark and its recovery), the
// serve.queue_depth gauge regression (must return to 0 after a drain),
// failed-request latency/requests accounting, and submit() racing
// shutdown() while blocked on a full queue.
//
// Registered in CMake under SB_THREADS={1,4} as well as the default so
// the queue/batcher/breaker locking is exercised with both an inline
// pool and real kernel fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "obs/io.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace shrinkbench {
namespace {

using serve::BreakerState;
using serve::DeadlineExceeded;
using serve::ExecMode;
using serve::InferenceServer;
using serve::Overloaded;
using serve::OverloadPolicy;
using serve::ServerOptions;
using serve::ServerStats;

ModelPtr tiny_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("tiny");
  m->emplace<Linear>("fc", 8, 4);
  init_model(*m, rng);
  return m;
}

Tensor random_sample(Rng& rng) {
  Tensor s({8});
  rng.fill_normal(s, 0, 1);
  return s;
}

// Every test runs with profiling on (counters/gauges are part of the
// contract under test) and leaves no fault spec or profiler state behind.
class ServeChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_fault_spec("");
    obs::set_profiling_enabled(true);
    obs::Profiler::instance().reset();
  }
  void TearDown() override {
    obs::set_fault_spec("");
    obs::Profiler::instance().reset();
    obs::set_profiling_enabled(false);
  }
};

struct FulfillmentTally {
  int64_t values = 0;
  int64_t exceptions = 0;
  int64_t total() const { return values + exceptions; }
};

// After shutdown(), every accepted future must already be ready; classify
// each outcome. A pending future here means a lost request.
FulfillmentTally tally(std::vector<std::future<Tensor>>& futs) {
  FulfillmentTally t;
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "future not fulfilled after drain (lost request)";
    try {
      f.get();
      ++t.values;
    } catch (const std::exception&) {
      ++t.exceptions;
    }
  }
  return t;
}

// ---- exactly-once under every fault site x overload policy ----

TEST_F(ServeChaos, ExactlyOnceUnderEveryFaultAndPolicy) {
  Rng rng(3);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  const struct {
    const char* spec;
    bool check_finite;
  } faults[] = {
      {"serve.exec_throw:*", false},
      {"serve.exec_nan:*", true},  // poisoned output, caught by check_finite
      {"serve.worker_stall:*", false},  // 25 ms sleep per batch: slow, not fatal
  };
  for (const auto& fault : faults) {
    for (const OverloadPolicy policy :
         {OverloadPolicy::Block, OverloadPolicy::Reject, OverloadPolicy::DropOldest}) {
      obs::set_fault_spec(fault.spec);
      ServerOptions opts;
      opts.workers = 1;
      opts.queue_capacity = 4;  // small: Reject/DropOldest actually engage
      opts.max_batch = 4;
      opts.overload_policy = policy;
      opts.breaker_threshold = 0;  // isolate the policy from breaker routing
      opts.check_finite = fault.check_finite;
      InferenceServer server(exec, opts);

      std::vector<std::future<Tensor>> futs;
      int64_t rejected_at_submit = 0;
      for (int i = 0; i < 24; ++i) {
        try {
          futs.push_back(server.submit(random_sample(rng)));
        } catch (const Overloaded&) {
          ++rejected_at_submit;  // Reject policy refuses at the door
        }
      }
      server.shutdown();

      const FulfillmentTally t = tally(futs);
      const ServerStats st = server.stats();
      const std::string label =
          std::string(fault.spec) + " x " + serve::to_string(policy);
      EXPECT_EQ(st.submitted, static_cast<int64_t>(futs.size())) << label;
      EXPECT_EQ(t.total(), st.submitted) << label;
      EXPECT_EQ(st.completed + st.failed, st.submitted)
          << label << ": drain lost a request";
      EXPECT_EQ(t.values, st.completed) << label;
      EXPECT_EQ(t.exceptions, st.failed) << label;
      EXPECT_EQ(st.rejected_overload, rejected_at_submit) << label;
      if (policy != OverloadPolicy::Reject) EXPECT_EQ(rejected_at_submit, 0) << label;
    }
  }
}

TEST_F(ServeChaos, DrainLosesZeroMidFault) {
  // A fault striking in the middle of the stream while shutdown() races
  // the workers: everything must still be fulfilled.
  Rng rng(5);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.exec_throw:2");
  ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.breaker_threshold = 0;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 30; ++i) futs.push_back(server.submit(random_sample(rng)));
  server.shutdown();
  const FulfillmentTally t = tally(futs);
  const ServerStats st = server.stats();
  EXPECT_EQ(t.total(), 30);
  EXPECT_EQ(st.submitted, 30);
  EXPECT_EQ(st.completed + st.failed, 30);
  EXPECT_GE(st.failed, 1) << "the injected batch failure should be visible";
  EXPECT_EQ(st.exec_failures, 1);
}

// ---- deadlines ----

TEST_F(ServeChaos, DeadlineExpiresInQueueBeforeBatchAssembly) {
  Rng rng(7);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");  // 25 ms per batch keeps a backlog
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // one request per batch: the backlog really queues
  InferenceServer server(exec, opts);

  // First request occupies the worker; the rest wait in-queue longer than
  // their 1 ms deadline and must be swept out as DeadlineExceeded.
  std::future<Tensor> head = server.submit(random_sample(rng), /*deadline_us=*/0);
  std::vector<std::future<Tensor>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(server.submit(random_sample(rng), /*deadline_us=*/1000));
  }
  server.shutdown();

  EXPECT_NO_THROW(head.get());
  for (auto& f : doomed) EXPECT_THROW(f.get(), DeadlineExceeded);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.deadline_exceeded, 3);
  EXPECT_EQ(st.failed, 3);
  EXPECT_EQ(st.completed, 1);
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("serve.deadline_exceeded"), 3);
}

TEST_F(ServeChaos, DefaultDeadlineAppliesAndPerSubmitZeroOverrides) {
  Rng rng(9);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.default_deadline_us = 1000;  // every request inherits 1 ms...
  InferenceServer server(exec, opts);
  EXPECT_EQ(server.default_deadline_us(), 1000);

  std::future<Tensor> head = server.submit(random_sample(rng), /*deadline_us=*/0);
  std::future<Tensor> inherited = server.submit(random_sample(rng));  // -1: default
  std::future<Tensor> exempt = server.submit(random_sample(rng), /*deadline_us=*/0);
  server.shutdown();

  EXPECT_NO_THROW(head.get());
  EXPECT_THROW(inherited.get(), DeadlineExceeded);
  EXPECT_NO_THROW(exempt.get());  // ...but an explicit 0 opts out
}

TEST_F(ServeChaos, DeadlineBeyondTheClockMeansNoDeadline) {
  Rng rng(33);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  InferenceServer server(exec, opts);
  // enqueued + INT64_MAX us overflows the clock; it must saturate to "no
  // deadline" rather than wrap into the past and expire on arrival.
  EXPECT_NO_THROW(server.submit(random_sample(rng), INT64_MAX).get());
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.deadline_exceeded, 0);
}

// ---- admission policies ----

TEST_F(ServeChaos, RejectPolicyFailsFastWithOverloaded) {
  Rng rng(11);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.max_batch = 1;
  opts.overload_policy = OverloadPolicy::Reject;
  InferenceServer server(exec, opts);

  std::vector<std::future<Tensor>> futs;
  int64_t rejected = 0;
  for (int i = 0; i < 12; ++i) {
    try {
      futs.push_back(server.submit(random_sample(rng)));
    } catch (const Overloaded&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1) << "a stalled 2-deep queue must refuse a 12-burst";
  server.shutdown();
  tally(futs);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected_overload, rejected);
  EXPECT_EQ(st.shed, 0);
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("serve.rejected_overload"), rejected);
}

TEST_F(ServeChaos, DropOldestShedsStalestAndDrainNeverSheds) {
  Rng rng(13);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.max_batch = 1;
  opts.overload_policy = OverloadPolicy::DropOldest;
  InferenceServer server(exec, opts);

  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 10; ++i) futs.push_back(server.submit(random_sample(rng)));
  const int64_t shed_before_drain = server.stats().shed;
  EXPECT_GE(shed_before_drain, 1) << "a 10-burst into a stalled 2-deep queue must shed";
  server.shutdown();

  int64_t shed_seen = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      f.get();
    } catch (const Overloaded&) {
      ++shed_seen;
    }
  }
  const ServerStats st = server.stats();
  // Shed victims fail with Overloaded; everything still queued at
  // shutdown completes — the drain itself sheds nothing.
  EXPECT_EQ(st.shed, shed_before_drain);
  EXPECT_EQ(shed_seen, st.shed);
  EXPECT_EQ(st.completed, st.submitted - st.shed);
  EXPECT_EQ(st.failed, st.shed);
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("serve.shed"), st.shed);
}

TEST_F(ServeChaos, PolicyNamesRoundTripAndEnvIsHonored) {
  for (const OverloadPolicy p :
       {OverloadPolicy::Block, OverloadPolicy::Reject, OverloadPolicy::DropOldest}) {
    EXPECT_EQ(serve::overload_policy_from_name(serve::to_string(p)), p);
  }
  EXPECT_THROW(serve::overload_policy_from_name("bogus"), std::invalid_argument);

  Rng rng(15);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ::setenv("SB_SERVE_OVERLOAD", "reject", 1);
  ::setenv("SB_SERVE_DEADLINE_US", "2500", 1);
  {
    InferenceServer server(exec, ServerOptions{});
    EXPECT_EQ(server.overload_policy(), OverloadPolicy::Reject);
    EXPECT_EQ(server.default_deadline_us(), 2500);
  }
  {
    ServerOptions opts;
    opts.overload_policy = OverloadPolicy::DropOldest;  // explicit beats env
    opts.default_deadline_us = 0;
    InferenceServer server(exec, opts);
    EXPECT_EQ(server.overload_policy(), OverloadPolicy::DropOldest);
    EXPECT_EQ(server.default_deadline_us(), 0);
  }
  ::unsetenv("SB_SERVE_OVERLOAD");
  ::unsetenv("SB_SERVE_DEADLINE_US");
}

TEST_F(ServeChaos, MalformedDeadlineEnvIsRejected) {
  Rng rng(35);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  for (const char* bad : {"abc", "100us", "1.5"}) {
    ::setenv("SB_SERVE_DEADLINE_US", bad, 1);
    EXPECT_THROW({ InferenceServer server(exec, ServerOptions{}); }, std::invalid_argument)
        << bad;
  }
  ::unsetenv("SB_SERVE_DEADLINE_US");
}

// ---- circuit breaker ----

TEST_F(ServeChaos, BreakerTripsRoutesToFallbackAndProbesClosed) {
  Rng rng(17);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  const serve::Executor fallback = serve::compile(*m, {8}, ExecMode::Dense);
  // Primary calls 1 and 2 throw; call 3 (the half-open probe) succeeds.
  obs::set_fault_spec("serve.exec_throw:1,serve.exec_throw:2");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.breaker_threshold = 2;
  opts.breaker_probe_every = 2;
  opts.fallback = &fallback;
  InferenceServer server(exec, opts);

  // Sequential submits, one batch each:
  //   1: primary throws (1 failure)  -> fallback, degraded
  //   2: primary throws (2 failures) -> breaker trips OPEN -> fallback
  //   3: open, batch 1 of 2          -> fallback, no probe
  //   4: open, batch 2 of 2          -> half-open probe succeeds -> CLOSED
  //   5: closed                      -> primary
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(server.submit(random_sample(rng)).get()) << "request " << i + 1;
  }
  server.shutdown();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 5);
  EXPECT_EQ(st.failed, 0) << "fallback must absorb every primary failure";
  EXPECT_EQ(st.breaker_trips, 1);
  EXPECT_EQ(st.exec_failures, 2);
  EXPECT_EQ(st.degraded_batches, 3);
  EXPECT_EQ(st.breaker_state, BreakerState::Closed);
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("serve.degraded_batches"), 3);
  EXPECT_EQ(snap.gauges.at("serve.breaker_state"), 0.0);
}

TEST_F(ServeChaos, BreakerOpenWithoutFallbackFailsFast) {
  Rng rng(19);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.exec_throw:1");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.breaker_threshold = 1;
  opts.breaker_probe_every = 1000;  // no probe within this test
  InferenceServer server(exec, opts);

  EXPECT_THROW(server.submit(random_sample(rng)).get(), std::runtime_error);
  EXPECT_THROW(server.submit(random_sample(rng)).get(), std::runtime_error);
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.breaker_trips, 1);
  EXPECT_EQ(st.failed, 2);
  // Request 2 never touched the primary: the breaker failed it fast.
  EXPECT_EQ(st.exec_failures, 1);
  EXPECT_EQ(st.breaker_state, BreakerState::Open);
}

TEST_F(ServeChaos, CheckFiniteTurnsNanIntoBreakerFailure) {
  Rng rng(21);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  const serve::Executor fallback = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.exec_nan:1");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.breaker_threshold = 1;
  opts.check_finite = true;
  opts.fallback = &fallback;
  InferenceServer server(exec, opts);

  // The poisoned batch is caught by the finite check and retried on the
  // fallback — the caller still sees a (finite) value.
  Tensor y = server.submit(random_sample(rng)).get();
  for (const float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.exec_failures, 1);
  EXPECT_EQ(st.degraded_batches, 1);
  EXPECT_EQ(st.breaker_trips, 1);
}

// ---- watchdog ----

TEST_F(ServeChaos, WatchdogFlagsStallFailsBatchAndRecovers) {
  obs::set_telemetry_hz(0);  // manual ticks only; no background thread
  obs::set_telemetry_enabled(true);
  obs::Telemetry::instance().reset();
  Rng rng(23);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:1");  // one 15 ms stall (3x timeout)
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.stall_timeout_ms = 5;
  InferenceServer server(exec, opts);

  // The stalled call outlives its latency budget, so the batch fails on
  // recovery even though forward() eventually returned.
  EXPECT_THROW(server.submit(random_sample(rng)).get(), std::runtime_error);
  // After recovery the worker is healthy again.
  EXPECT_NO_THROW(server.submit(random_sample(rng)).get());
  server.shutdown();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.stalls, 1);
  EXPECT_EQ(st.failed, 1);
  EXPECT_EQ(st.completed, 1);
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("serve.stalls"), 1);
  // The degraded mark was lifted on recovery; the serve block persists.
  const std::string status = obs::Telemetry::instance().status_json();
  EXPECT_EQ(status.find("\"degraded\":true"), std::string::npos) << status;
  EXPECT_NE(status.find("\"serve\":"), std::string::npos) << status;
  EXPECT_NE(status.find("\"stalls\":1"), std::string::npos) << status;
  obs::Telemetry::instance().reset();
  obs::set_telemetry_enabled(false);
}

TEST_F(ServeChaos, DegradedHeartbeatSetWhileStalled) {
  obs::set_telemetry_hz(0);
  obs::set_telemetry_enabled(true);
  obs::Telemetry::instance().reset();
  obs::status_set_degraded("serve: worker stalled in executor");
  std::string status = obs::Telemetry::instance().status_json();
  EXPECT_NE(status.find("\"degraded\":true"), std::string::npos) << status;
  EXPECT_NE(status.find("worker stalled"), std::string::npos) << status;
  obs::status_set_degraded("");
  status = obs::Telemetry::instance().status_json();
  EXPECT_EQ(status.find("\"degraded\":true"), std::string::npos) << status;
  obs::Telemetry::instance().reset();
  obs::set_telemetry_enabled(false);
}

// ---- observability regressions ----

TEST_F(ServeChaos, QueueDepthGaugeReturnsToZeroAfterDrain) {
  Rng rng(25);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");  // backlog builds while stalled
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 2;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(random_sample(rng)));
  {
    // The last submit published the post-enqueue depth; with the worker
    // parked in a 25 ms stall, a backlog must be visible.
    const auto snap = obs::Profiler::instance().snapshot();
    EXPECT_GT(snap.gauges.at("serve.queue_depth"), 0.0);
  }
  server.shutdown();
  tally(futs);
  // Regression: the gauge used to be written only in submit(), so it
  // froze at the last enqueue depth forever. Dequeue paths publish too
  // now, and a drained server must read 0.
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.gauges.at("serve.queue_depth"), 0.0);
}

TEST_F(ServeChaos, FailedRequestsLandInRequestsCounterAndLatencyHistogram) {
  Rng rng(27);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.exec_throw:*");
  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.breaker_threshold = 0;
  InferenceServer server(exec, opts);
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(server.submit(random_sample(rng)));
  server.shutdown();
  const FulfillmentTally t = tally(futs);
  EXPECT_EQ(t.exceptions, 4);
  const auto snap = obs::Profiler::instance().snapshot();
  // Exception fulfillments count as requests and contribute latency
  // samples — p99 under faults stays honest.
  EXPECT_EQ(snap.counters.at("serve.requests"), 4);
  EXPECT_EQ(snap.histograms.at("serve.latency_us").count, 4);
}

// ---- submit() racing shutdown() ----

TEST_F(ServeChaos, BlockedSubmitWakesAndRejectsOnShutdown) {
  Rng rng(29);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  obs::set_fault_spec("serve.worker_stall:*");  // park the worker: queue stays full
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.max_batch = 1;
  opts.overload_policy = OverloadPolicy::Block;
  InferenceServer server(exec, opts);

  std::vector<std::future<Tensor>> futs;
  futs.push_back(server.submit(random_sample(rng)));  // occupies the worker
  futs.push_back(server.submit(random_sample(rng)));  // fills the queue
  std::atomic<bool> woke{false}, overload_typed{false};
  std::thread blocked([&] {
    try {
      // Queue full + Block: this parks on queue_has_space_ until
      // shutdown() wakes it, which must reject rather than hang or shed.
      futs.push_back(server.submit(random_sample(rng)));
    } catch (const Overloaded&) {
      overload_typed.store(true);
      woke.store(true);
    } catch (const std::runtime_error&) {
      woke.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let it block
  server.shutdown();
  blocked.join();
  EXPECT_TRUE(woke.load()) << "blocked submit never returned after shutdown";
  EXPECT_FALSE(overload_typed.load()) << "shutdown rejection must not read as overload";

  tally(futs);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected, 1);
  EXPECT_EQ(st.completed + st.failed, st.submitted) << "drain lost a request";
  EXPECT_EQ(st.shed, 0);
}

TEST_F(ServeChaos, ShutdownRejectsLateSubmitsWithoutShedding) {
  Rng rng(31);
  ModelPtr m = tiny_model(rng);
  const serve::Executor exec = serve::compile(*m, {8}, ExecMode::Dense);
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.overload_policy = OverloadPolicy::DropOldest;
  InferenceServer server(exec, opts);
  server.shutdown();
  EXPECT_THROW(server.submit(random_sample(rng)), std::runtime_error);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected, 1);
  EXPECT_EQ(st.shed, 0) << "a draining server must reject, never shed";
}

}  // namespace
}  // namespace shrinkbench
