// Closed-loop load generator for the sparse inference serving engine.
//
// The paper's central complaint (§2.3, §6) is that pruning results report
// *theoretical* speedup — parameter/FLOP ratios — and leave wall-clock
// unmeasured. This bench closes that gap for the serving path: for each
// sparsity level it compiles the same pruned model as a dense executor
// (the honest baseline: dense kernels over masked weights) and as a
// sparse executor (CSR for unstructured masks, channel-shrunk for
// structured masks), drives both with closed-loop clients through the
// InferenceServer, and reports measured throughput speedup next to the
// theoretical FLOP ratio in one CSV row.
//
// A second, open-loop section measures overload behavior: after the
// closed-loop grid establishes service capacity, an open-loop arrival
// process drives the server at 2x that capacity under each admission
// policy. Latency is measured from each request's *scheduled* arrival
// time (the coordinated-omission-honest convention), so Block — whose
// only defense is stalling the generator — shows queueing delay growing
// without bound, while Reject and DropOldest (armed with a deadline)
// keep the p99 of successes bounded near the deadline and convert the
// excess load into counted shed/rejected/expired requests.
//
// Outputs (under --out, default bench_out):
//   serve_load.csv            one row per (structure, keep, mode, clients)
//   serve_load_overload.csv   one row per overload policy at 2x capacity
//   serve_load.manifest.json  run manifest with the serve.latency_us /
//                             serve.batch_size histogram quantiles and
//                             serve_load.overload.* gauges per policy
//
// Usage: serve_load [--full] [--out DIR] [--arch NAME] [--width N]
//   --full lengthens each measurement cell (2 s vs 0.5 s).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
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

// A trained-looking pruned model: Kaiming weights, BN running stats
// populated by train-mode forwards, global magnitude masks. Accuracy is
// irrelevant here — only the sparsity pattern and tensor shapes matter
// for throughput.
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

struct CellResult {
  int64_t completed = 0;
  double seconds = 0;
  double throughput = 0;  // requests/s
  double p50_us = 0, p90_us = 0, p99_us = 0;
  double mean_batch = 0;
};

// Closed-loop measurement: `clients` threads each submit one request,
// wait for its future, record the end-to-end latency, repeat. Offered
// load therefore tracks service capacity (no coordinated-omission bias
// from an open-loop arrival process the 1-core host couldn't absorb).
CellResult run_cell(const serve::Executor& exec, int clients, double seconds) {
  ServerOptions sopts;
  sopts.workers = 1;  // single worker: kernels fan out over the pool
  sopts.max_batch = 8;
  InferenceServer server(exec, sopts);

  Rng rng(23);
  Tensor proto(exec.sample_shape());
  rng.fill_normal(proto, 0, 1);

  obs::QuantileHistogram hist;
  std::mutex hist_mu;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> done{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s0 = std::chrono::steady_clock::now();
        try {
          server.submit(proto.clone()).get();
        } catch (...) {
          break;  // server began shutdown under us
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
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  server.shutdown();

  CellResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.completed = done.load();
  r.throughput = r.seconds > 0 ? static_cast<double>(r.completed) / r.seconds : 0;
  r.p50_us = hist.quantile(0.5);
  r.p90_us = hist.quantile(0.9);
  r.p99_us = hist.quantile(0.99);
  const ServerStats st = server.stats();
  r.mean_batch =
      st.batches > 0 ? static_cast<double>(st.completed) / static_cast<double>(st.batches) : 0;
  return r;
}

struct OverloadResult {
  double offered_rps = 0;  // actual submit-attempt rate (Block throttles it)
  double goodput_rps = 0;  // successful completions per wall second
  int64_t ok = 0, shed = 0, expired = 0, rejected = 0, errored = 0;
  int64_t lost = 0;  // submitted - completed - failed (must be 0)
  double p50_us = 0, p99_us = 0;
};

// Open-loop overload cell: arrivals are scheduled at a fixed target rate
// and latency is measured from the *scheduled* arrival, not the submit
// call — so when Block stalls the generator, the stall honestly lands in
// the latency distribution instead of silently thinning the offered load.
// A collector thread drains futures in FIFO order (fulfillment order for
// a single-worker server), classifying each outcome.
OverloadResult run_overload_cell(const serve::Executor& exec, serve::OverloadPolicy policy,
                                 int64_t deadline_us, double target_rps, double seconds) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_batch = 8;
  sopts.queue_capacity = 64;
  sopts.overload_policy = policy;
  sopts.default_deadline_us = deadline_us;
  InferenceServer server(exec, sopts);

  Rng rng(23);
  Tensor proto(exec.sample_shape());
  rng.fill_normal(proto, 0, 1);

  struct Pending {
    std::future<Tensor> fut;
    std::chrono::steady_clock::time_point scheduled;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool gen_done = false;

  OverloadResult r;
  obs::QuantileHistogram hist;  // collector-thread-only until join
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !pending.empty() || gen_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      try {
        p.fut.get();
        hist.observe(std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                               p.scheduled)
                         .count());
        ++r.ok;
      } catch (const serve::DeadlineExceeded&) {
        ++r.expired;
      } catch (const serve::Overloaded&) {
        ++r.shed;
      } catch (const std::exception&) {
        ++r.errored;
      }
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const auto interval = std::chrono::duration<double>(1.0 / target_rps);
  int64_t arrivals = 0;
  for (;; ++arrivals) {
    const auto scheduled =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(interval * arrivals);
    if (std::chrono::duration<double>(scheduled - t0).count() >= seconds) break;
    std::this_thread::sleep_until(scheduled);  // no-op once the generator is behind
    try {
      Pending p{server.submit(proto.clone()), scheduled};
      {
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
    } catch (const serve::Overloaded&) {
      ++r.rejected;  // Reject policy refuses at the door; no future to track
    }
  }
  server.shutdown();  // drain: every accepted future becomes ready
  {
    std::lock_guard<std::mutex> lk(mu);
    gen_done = true;
  }
  cv.notify_one();
  collector.join();

  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.offered_rps = wall > 0 ? static_cast<double>(arrivals) / wall : 0;
  r.goodput_rps = wall > 0 ? static_cast<double>(r.ok) / wall : 0;
  r.p50_us = hist.quantile(0.5);
  r.p99_us = hist.quantile(0.99);
  const ServerStats st = server.stats();
  r.lost = st.submitted - st.completed - st.failed;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  std::string arch = "cifar-vgg";
  int64_t width = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--arch" && i + 1 < argc) arch = argv[++i];
    if (a == "--width" && i + 1 < argc) width = std::atoll(argv[++i]);
  }

  // Profiling on so the server's latency/batch histograms land in the
  // manifest; heartbeat bookends mirror run_sweep.
  obs::set_profiling_enabled(true);
  obs::status_set_phase("serve-load");
  obs::write_status_now();

  const Shape sample{3, 32, 32};
  const std::vector<double> keeps = {0.5, 0.25, 0.1};  // 50/75/90% sparsity
  const std::vector<int> client_counts = {1, 8};
  const double cell_s = args.full ? 2.0 : 0.5;

  const std::string csv_path = args.out_dir + "/serve_load.csv";
  std::ofstream csv(csv_path);
  csv << "arch,structure,mode,keep_fraction,clients,seconds,completed,throughput_rps,"
         "p50_us,p90_us,p99_us,mean_batch,theoretical_speedup,measured_speedup\n";

  const size_t total_cells = keeps.size() * 2 * client_counts.size();
  size_t cells_done = 0;

  std::printf("%-12s %-6s %7s %7s %9s %9s %9s %9s\n", "structure/mode", "keep", "clients",
              "req/s", "p50us", "p99us", "theor", "measured");
  for (const double keep : keeps) {
    for (const Structure structure : {Structure::Unstructured, Structure::Channel}) {
      const ExecMode sparse_mode =
          structure == Structure::Unstructured ? ExecMode::Csr : ExecMode::Shrunk;
      ModelPtr model = build_pruned(arch, width, sample, structure, keep);
      const serve::Executor dense = serve::compile(*model, sample, ExecMode::Dense);
      const serve::Executor sparse = serve::compile(*model, sample, sparse_mode);
      for (const int clients : client_counts) {
        const CellResult d = run_cell(dense, clients, cell_s);
        const CellResult s = run_cell(sparse, clients, cell_s);
        const double measured = d.throughput > 0 ? s.throughput / d.throughput : 0;
        const auto emit = [&](const char* mode, const CellResult& r, double theoretical,
                              double speedup) {
          csv << arch << ',' << to_string(structure) << ',' << mode << ',' << keep << ','
              << clients << ',' << r.seconds << ',' << r.completed << ',' << r.throughput << ','
              << r.p50_us << ',' << r.p90_us << ',' << r.p99_us << ',' << r.mean_batch << ','
              << theoretical << ',' << speedup << '\n';
          std::printf("%-12s %-6.3g %7d %7.1f %9.0f %9.0f %9.2f %9.2f\n", mode, keep, clients,
                      r.throughput, r.p50_us, r.p99_us, theoretical, speedup);
        };
        emit("dense", d, 1.0, 1.0);
        emit(serve::to_string(sparse_mode).c_str(), s, sparse.theoretical_speedup(), measured);
        ++cells_done;
        obs::status_set_progress(cells_done, total_cells, -1);
      }
    }
  }
  csv.close();

  // Open-loop overload section: establish capacity closed-loop, then
  // offer 2x that under each admission policy. Block runs without a
  // deadline (the unbounded baseline); Reject and DropOldest get one.
  obs::status_set_phase("serve-overload");
  ModelPtr ov_model = build_pruned(arch, width, sample, Structure::Unstructured, 0.25);
  const serve::Executor ov_exec = serve::compile(*ov_model, sample, ExecMode::Csr);
  const CellResult cap = run_cell(ov_exec, 8, cell_s);
  const double target_rps = 2.0 * std::max(cap.throughput, 1.0);
  const int64_t deadline_us =
      std::max<int64_t>(2000, static_cast<int64_t>(std::lround(4.0 * cap.p50_us)));
  std::printf("\noverload: capacity %.1f req/s (closed-loop p50 %.0fus) -> offering %.1f req/s, "
              "deadline %lldus\n",
              cap.throughput, cap.p50_us, target_rps, static_cast<long long>(deadline_us));

  const std::string ov_csv_path = args.out_dir + "/serve_load_overload.csv";
  std::ofstream ov_csv(ov_csv_path);
  ov_csv << "arch,mode,policy,deadline_us,target_rps,offered_rps,goodput_rps,ok,shed,expired,"
            "rejected,errored,lost,p50_us,p99_us\n";
  std::printf("%-12s %9s %9s %7s %7s %7s %9s %9s\n", "policy", "offered", "goodput", "shed",
              "expired", "reject", "p50us", "p99us");
  struct PolicyCell {
    serve::OverloadPolicy policy;
    int64_t deadline_us;
  };
  const std::vector<PolicyCell> policy_cells = {
      {serve::OverloadPolicy::Block, 0},  // baseline: backpressure only
      {serve::OverloadPolicy::Reject, deadline_us},
      {serve::OverloadPolicy::DropOldest, deadline_us},
  };
  for (const PolicyCell& cell : policy_cells) {
    const std::string policy = serve::to_string(cell.policy);
    const OverloadResult r =
        run_overload_cell(ov_exec, cell.policy, cell.deadline_us, target_rps, cell_s);
    ov_csv << arch << ",csr," << policy << ',' << cell.deadline_us << ',' << target_rps << ','
           << r.offered_rps << ',' << r.goodput_rps << ',' << r.ok << ',' << r.shed << ','
           << r.expired << ',' << r.rejected << ',' << r.errored << ',' << r.lost << ','
           << r.p50_us << ',' << r.p99_us << '\n';
    std::printf("%-12s %9.1f %9.1f %7lld %7lld %7lld %9.0f %9.0f%s\n", policy.c_str(),
                r.offered_rps, r.goodput_rps, static_cast<long long>(r.shed),
                static_cast<long long>(r.expired), static_cast<long long>(r.rejected), r.p50_us,
                r.p99_us, r.lost != 0 ? "  LOST FUTURES" : "");
    // Gauges land in the manifest's metrics snapshot — the acceptance
    // numbers travel with the run.
    const std::string prefix = "serve_load.overload." + policy;
    obs::set_gauge((prefix + ".p99_us").c_str(), r.p99_us);
    obs::set_gauge((prefix + ".goodput_rps").c_str(), r.goodput_rps);
    obs::set_gauge((prefix + ".shed_total").c_str(),
                   static_cast<double>(r.shed + r.expired + r.rejected));
    obs::set_gauge((prefix + ".lost").c_str(), static_cast<double>(r.lost));
  }
  obs::set_gauge("serve_load.overload.deadline_us", static_cast<double>(deadline_us));
  obs::set_gauge("serve_load.overload.target_rps", target_rps);
  ov_csv.close();

  write_run_manifest(args.out_dir + "/serve_load.manifest.json", "serve_load", {});
  obs::status_set_phase("done");
  obs::write_status_now();
  std::printf("wrote %s, serve_load_overload.csv, and serve_load.manifest.json\n",
              csv_path.c_str());
  return 0;
}
