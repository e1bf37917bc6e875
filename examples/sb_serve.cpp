// sb_serve: command-line driver for the sparse inference serving engine.
//
//   ./sb_serve --arch cifar-vgg --mode csr --keep 0.25 --seconds 5
//
// Builds a pruned model (synthetic weights, global magnitude masks —
// channel-structured for --mode shrunk, unstructured otherwise), compiles
// it with the serving compiler, starts the async batching server, and
// drives it with a built-in closed-loop load generator. Prints live
// throughput while running and a latency summary at the end, and writes
// sb_serve.manifest.json (with the serve.* histogram quantiles) to --out.
//
// The overload/degradation surface is exposed too: --policy picks the
// full-queue admission policy, --deadline-us arms per-request deadlines,
// --fallback compiles a second executor the circuit breaker routes to
// when the primary faults (pair with SB_FAULT=serve.exec_throw:N for a
// chaos smoke), and --stall-timeout-ms arms the watchdog. The load
// generator survives per-request failures — Overloaded / DeadlineExceeded
// / executor errors are counted and the client retries — and the exit
// status enforces the exactly-once invariant: submitted must equal
// completed + failed, else "lost futures" and exit 1.
//
// Ctrl-C mirrors run_sweep's SIGINT semantics: admissions stop, in-flight
// requests drain to completion, stats and the manifest are still written,
// and the process exits 130.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"

using namespace shrinkbench;
using serve::ExecMode;
using serve::InferenceServer;
using serve::ServerOptions;
using serve::ServerStats;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
void handle_sigint(int) { g_interrupted = 1; }

void usage(const char* argv0) {
  std::printf("usage: %s [options]\n", argv0);
  std::printf(
      "  --arch NAME      model zoo architecture (default cifar-vgg)\n"
      "  --width N        base width override (default 8)\n"
      "  --mode NAME      dense | csr | shrunk (default csr)\n"
      "  --keep F         fraction of prunable weights kept (default 0.25)\n"
      "  --workers N      server worker threads (default 1)\n"
      "  --max-batch N    most queued requests one executor call takes\n"
      "                   (default 8); an idle worker never waits for\n"
      "                   more, so batches form only while workers are busy\n"
      "  --queue-capacity N  bounded request queue size (default 256)\n"
      "  --policy NAME    full-queue policy: block | reject | drop-oldest\n"
      "                   (default: SB_SERVE_OVERLOAD, then block)\n"
      "  --deadline-us N  default per-request deadline, 0 = none\n"
      "                   (default: SB_SERVE_DEADLINE_US, then 0)\n"
      "  --fallback MODE  compile a degraded-mode executor (dense | csr |\n"
      "                   shrunk) the circuit breaker routes to on faults\n"
      "  --breaker-threshold N  consecutive failures that trip the breaker\n"
      "                   (default 3, 0 disables)\n"
      "  --stall-timeout-ms N  watchdog threshold for one forward() call\n"
      "                   (default 0 = watchdog off)\n"
      "  --check-finite   treat non-finite outputs as executor failures\n"
      "  --clients N      closed-loop load-gen clients (default 4)\n"
      "  --seconds S      run duration (default 5)\n"
      "  --out DIR        manifest output dir (default bench_out)\n"
      "\nCtrl-C drains in-flight requests and exits 130.\n");
}

ModelPtr build_pruned(const std::string& arch, int64_t width, const Shape& sample,
                      Structure structure, double keep) {
  Rng rng(17);
  ModelPtr model = make_model(arch, sample, /*num_classes=*/10, width);
  init_model(*model, rng);
  for (int i = 0; i < 2; ++i) {
    Shape in{4};
    in.insert(in.end(), sample.begin(), sample.end());
    Tensor x(in);
    rng.fill_normal(x, 0, 1);
    model->forward(x, /*train=*/true);
  }
  PruneOptions opts;
  std::vector<ScoredParam> scored;
  for (Parameter* p : prunable_params(*model, opts)) {
    scored.push_back({p, score_parameter(ScoreKind::Magnitude, *p, {}, rng)});
  }
  allocate_masks(scored, AllocationScope::Global, structure, keep);
  apply_masks(*model);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  std::string arch = "cifar-vgg", out_dir = "bench_out", fallback_mode;
  int64_t width = 8;
  ExecMode mode = ExecMode::Csr;
  double keep = 0.25, seconds = 5.0;
  int clients = 4;
  ServerOptions sopts;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--arch") {
      arch = next();
    } else if (a == "--width") {
      width = std::atoll(next().c_str());
    } else if (a == "--mode") {
      mode = serve::exec_mode_from_name(next());
    } else if (a == "--keep") {
      keep = std::atof(next().c_str());
    } else if (a == "--workers") {
      sopts.workers = std::atoi(next().c_str());
    } else if (a == "--max-batch") {
      sopts.max_batch = std::atoll(next().c_str());
    } else if (a == "--queue-capacity") {
      sopts.queue_capacity = static_cast<size_t>(std::atoll(next().c_str()));
    } else if (a == "--policy") {
      sopts.overload_policy = serve::overload_policy_from_name(next());
    } else if (a == "--deadline-us") {
      sopts.default_deadline_us = std::atoll(next().c_str());
    } else if (a == "--fallback") {
      fallback_mode = next();
    } else if (a == "--breaker-threshold") {
      sopts.breaker_threshold = std::atoi(next().c_str());
    } else if (a == "--stall-timeout-ms") {
      sopts.stall_timeout_ms = std::atoll(next().c_str());
    } else if (a == "--check-finite") {
      sopts.check_finite = true;
    } else if (a == "--clients") {
      clients = std::atoi(next().c_str());
    } else if (a == "--seconds") {
      seconds = std::atof(next().c_str());
    } else if (a == "--out") {
      out_dir = next();
    } else {
      usage(argv[0]);
      return a == "--help" ? 0 : 1;
    }
  }
  std::filesystem::create_directories(out_dir);

  // Profiling on so serve.latency_us / serve.batch_size quantiles land in
  // the manifest; heartbeat bookends mirror run_sweep.
  obs::set_profiling_enabled(true);
  obs::status_set_phase("serve");
  obs::write_status_now();
  std::signal(SIGINT, handle_sigint);

  // Shrunk mode needs whole-channel sparsity to have rows to drop;
  // dense/csr are benchmarked on unstructured masks.
  const Structure structure =
      mode == ExecMode::Shrunk ? Structure::Channel : Structure::Unstructured;
  const Shape sample{3, 32, 32};
  std::printf("compiling %s (width %lld, keep %.3g, %s masks) for %s execution...\n",
              arch.c_str(), static_cast<long long>(width), keep, to_string(structure).c_str(),
              serve::to_string(mode).c_str());
  ModelPtr model = build_pruned(arch, width, sample, structure, keep);
  const serve::Executor exec = serve::compile(*model, sample, mode);
  std::printf("compiled %zu ops; theoretical speedup %.2fx (%lld -> %lld flops/sample)\n",
              exec.op_count(), exec.theoretical_speedup(),
              static_cast<long long>(exec.flops_dense()),
              static_cast<long long>(exec.flops_effective()));

  // The fallback executor (if any) must outlive the server.
  std::optional<serve::Executor> fallback;
  if (!fallback_mode.empty()) {
    fallback.emplace(serve::compile(*model, sample, serve::exec_mode_from_name(fallback_mode)));
    sopts.fallback = &*fallback;
    std::printf("fallback: %s executor armed (breaker threshold %d)\n", fallback_mode.c_str(),
                sopts.breaker_threshold);
  }

  InferenceServer server(exec, sopts);
  std::printf("policy %s, deadline %lldus, watchdog %lldms\n",
              serve::to_string(server.overload_policy()).c_str(),
              static_cast<long long>(server.default_deadline_us()),
              static_cast<long long>(sopts.stall_timeout_ms));
  Rng rng(23);
  Tensor proto(sample);
  rng.fill_normal(proto, 0, 1);

  obs::QuantileHistogram hist;
  std::mutex hist_mu;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> overloaded{0}, expired{0}, errored{0};
  std::vector<std::thread> load;
  load.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    load.emplace_back([&] {
      // Per-request failures are part of overload operation, not a reason
      // to stop offering load: count them and retry. Only a shutdown
      // rejection (accepting() went false) ends the client.
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s0 = std::chrono::steady_clock::now();
        try {
          server.submit(proto.clone()).get();
        } catch (const serve::Overloaded&) {
          overloaded.fetch_add(1, std::memory_order_relaxed);
          continue;
        } catch (const serve::DeadlineExceeded&) {
          expired.fetch_add(1, std::memory_order_relaxed);
          continue;
        } catch (const std::exception&) {
          if (!server.accepting()) break;  // server began shutdown under us
          errored.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - s0)
                .count();
        {
          std::lock_guard<std::mutex> lk(hist_mu);
          hist.observe(us);
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  double last_report = 0;
  int64_t last_done = 0;
  while (!g_interrupted && elapsed_s() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double now = elapsed_s();
    if (now - last_report >= 1.0) {
      const int64_t n = done.load();
      std::printf("  t=%4.1fs  %6lld done  %7.1f req/s\n", now, static_cast<long long>(n),
                  static_cast<double>(n - last_done) / (now - last_report));
      last_report = now;
      last_done = n;
      obs::status_set_progress(static_cast<size_t>(now * 10), static_cast<size_t>(seconds * 10),
                               seconds - now);
    }
  }
  const bool interrupted = g_interrupted != 0;
  if (interrupted) std::printf("interrupt: draining in-flight requests...\n");
  stop.store(true);
  for (std::thread& t : load) t.join();
  server.shutdown();

  const double wall = elapsed_s();
  const ServerStats st = server.stats();
  std::printf("\n%s over %.2fs: %lld completed (%.1f req/s), %lld batches "
              "(mean batch %.2f), %lld failed, max queue depth %zu\n",
              interrupted ? "drained" : "finished", wall, static_cast<long long>(st.completed),
              static_cast<double>(st.completed) / wall, static_cast<long long>(st.batches),
              st.batches > 0 ? static_cast<double>(st.completed) / static_cast<double>(st.batches)
                             : 0.0,
              static_cast<long long>(st.failed), st.max_queue_depth);
  std::printf("latency p50 %.0fus  p90 %.0fus  p99 %.0fus (%lld samples)\n", hist.quantile(0.5),
              hist.quantile(0.9), hist.quantile(0.99), static_cast<long long>(hist.count()));
  std::printf("overload: shed %lld  rejected_overload %lld  deadline_exceeded %lld  "
              "(client-side: overloaded %lld expired %lld errored %lld)\n",
              static_cast<long long>(st.shed), static_cast<long long>(st.rejected_overload),
              static_cast<long long>(st.deadline_exceeded),
              static_cast<long long>(overloaded.load()), static_cast<long long>(expired.load()),
              static_cast<long long>(errored.load()));
  std::printf("breaker: state %s  trips %lld  exec_failures %lld  degraded_batches %lld  "
              "stalls %lld\n",
              st.breaker_state == serve::BreakerState::Open       ? "OPEN"
              : st.breaker_state == serve::BreakerState::HalfOpen ? "half-open"
                                                                  : "closed",
              static_cast<long long>(st.breaker_trips), static_cast<long long>(st.exec_failures),
              static_cast<long long>(st.degraded_batches), static_cast<long long>(st.stalls));
  // Exactly-once invariant: every accepted request's future was fulfilled
  // with a value or an exception. A nonzero delta means a lost future.
  const int64_t lost = st.submitted - st.completed - st.failed;
  std::printf("lost_futures %lld (submitted %lld = completed %lld + failed %lld)\n",
              static_cast<long long>(lost), static_cast<long long>(st.submitted),
              static_cast<long long>(st.completed), static_cast<long long>(st.failed));

  const std::string manifest = out_dir + "/sb_serve.manifest.json";
  write_run_manifest(manifest, interrupted ? "sb_serve.interrupted" : "sb_serve", {});
  std::printf("manifest: %s\n", manifest.c_str());
  // Flush the Chrome trace (serve.exec spans) like run_sweep does.
  const std::string trace = obs::trace_path();
  if (!trace.empty() && !obs::Profiler::instance().write_trace(trace)) {
    std::fprintf(stderr, "could not write trace %s\n", trace.c_str());
  }
  obs::status_set_phase(interrupted ? "interrupted" : "done");
  obs::write_status_now();
  if (lost != 0) {
    std::fprintf(stderr, "sb_serve: %lld futures lost (exactly-once violated)\n",
                 static_cast<long long>(lost));
    return 1;
  }
  return interrupted ? 130 : 0;
}
