// The serving workloads, on the model bench/serve_load uses: cifar-vgg
// width 8 on 3x32x32 inputs, Kaiming weights with batch-norm statistics
// from two train-mode passes, global magnitude pruning to keep 0.1. The
// unstructured model is compiled to csr; the channel-pruned model to dense
// and to shrunk. The models come from serve_load's fixed seed, like a
// deployed model: which channels survive sets the executors' cost, so a
// seed-drawn mask would vary the work from run to run. The run seed draws
// the requests.
//
//   serve_c1        one closed-loop client through InferenceServer with
//                   default ServerOptions, a third of the window per mode:
//                   a lone caller's latency, which the server's batching
//                   timer rather than the model sets.
//   exec_b32_<mode> one caller running Executor::forward on a fixed batch
//                   of 32: offline throughput, where the executor and the
//                   tensor kernels do all the work and the server none.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace sbbench {

using namespace shrinkbench;
using serve::ExecMode;
using serve::Executor;

namespace {

const Shape kSample{3, 32, 32};
constexpr double kKeep = 0.1;
constexpr uint64_t kModelSeed = 17;
constexpr int kSetupReps = 7;
// Calls made before anything is timed, so the thread pool has spawned and
// the workspace arena has grown: in set-up for the executors, before each
// mode's window for the server.
constexpr int kWarmupB32 = 20;
constexpr int kWarmupB1 = 50;
constexpr int kWarmupRequests = 100;
constexpr int kProbeBatch = 8;
constexpr int kInputPool = 16;
constexpr int kProbeCalls = 200;
// test_serve's parity tolerance for the BN-folded modes on cifar-vgg.
constexpr float kFoldedTol = 1e-3f;
const std::vector<std::string> kModes = {"dense", "csr", "shrunk"};

Tensor random_tensor(Shape shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  rng.fill_normal(t, 0.0f, 1.0f);
  return t;
}

ModelPtr build_pruned(Structure structure) {
  Rng rng(kModelSeed);
  ModelPtr model = make_model("cifar-vgg", kSample, /*num_classes=*/10, /*base_width=*/8);
  init_model(*model, rng);
  for (int i = 0; i < 2; ++i) {
    Tensor x({4, 3, 32, 32});
    rng.fill_normal(x, 0.0f, 1.0f);
    model->forward(x, /*train=*/true);
  }
  PruneOptions opts;
  std::vector<ScoredParam> scored;
  for (Parameter* p : prunable_params(*model, opts)) {
    scored.push_back({p, score_parameter(ScoreKind::Magnitude, *p, {}, rng)});
  }
  allocate_masks(scored, AllocationScope::Global, structure, kKeep);
  apply_masks(*model);
  return model;
}

/// The pruned model each mode is compiled from.
Structure structure_for(const std::string& mode) {
  return mode == "csr" ? Structure::Unstructured : Structure::Channel;
}

/// Same element count and the same bits, whatever the shapes.
bool same_values(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// The executor's output on a probe batch must match the eager eval-mode
/// forward: bit for bit in dense mode, within test_serve's tolerance in the
/// modes that fold batch norm.
void check_parity(Report& report, Sequential& model, const Executor& exec, uint64_t seed) {
  const Tensor x = random_tensor({kProbeBatch, 3, 32, 32}, seed);
  const Tensor ref = model.forward(x, /*train=*/false);
  const Tensor got = exec.forward(x);
  const std::string mode = serve::to_string(exec.mode());
  if (exec.mode() == ExecMode::Dense) {
    report.check(got.shape() == ref.shape() && same_values(got, ref),
                 "dense executor bit-matches the eager forward");
  } else {
    report.check(got.shape() == ref.shape() && ops::allclose(got, ref, kFoldedTol, kFoldedTol),
                 mode + " executor matches the eager forward within tolerance");
  }
}

void repeat(int calls, const std::function<void()>& call) {
  for (int i = 0; i < calls; ++i) call();
}

/// Seconds of one call made inside a span `name`.
double timed_call(const char* name, const std::function<void()>& call) {
  const Clock::time_point t0 = Clock::now();
  spans::Span span(name);
  call();
  return seconds_since(t0);
}

}  // namespace

Report run_serve_c1(const Args& args) {
  Report report;
  ModelPtr unstructured, channel;
  std::vector<Executor> execs;
  const Tensor x1 = random_tensor({1, 3, 32, 32}, derive_seed(args.seed, 3));
  const std::vector<double> setup_s = time_setup(kSetupReps, [&] {
    unstructured = build_pruned(Structure::Unstructured);
    channel = build_pruned(Structure::Channel);
    execs.clear();
    for (const std::string& mode : kModes) {
      Sequential& model = structure_for(mode) == Structure::Channel ? *channel : *unstructured;
      execs.push_back(serve::compile(model, kSample, serve::exec_mode_from_name(mode)));
      repeat(kWarmupB1, [&] { execs.back().forward(x1); });
    }
  });
  for (size_t m = 0; m < kModes.size(); ++m) {
    check_parity(report, structure_for(kModes[m]) == Structure::Channel ? *channel : *unstructured,
                 execs[m], derive_seed(args.seed, 2));
  }

  std::vector<Tensor> inputs, batch1;
  for (int j = 0; j < kInputPool; ++j) {
    inputs.push_back(random_tensor(kSample, derive_seed(args.seed, 100 + j)));
    batch1.push_back(inputs.back().reshaped({1, 3, 32, 32}));
  }

  std::vector<Window> windows;
  std::vector<double> mean_batch;
  for (size_t m = 0; m < kModes.size(); ++m) {
    const Executor& exec = execs[m];
    std::vector<Tensor> expected;
    for (const Tensor& b : batch1) expected.push_back(exec.forward(b));
    int64_t wrong = 0, futures = 0;
    serve::InferenceServer server(exec, serve::ServerOptions{});
    const auto request = [&](int64_t i) {
      const size_t j = static_cast<size_t>(i) % inputs.size();
      try {
        std::future<Tensor> fut;
        {
          spans::Span span("serve.submit", i);
          fut = server.submit(inputs[j].clone());
        }
        ++futures;
        spans::Span span("serve.wait", i);
        const Tensor y = fut.get();
        // A lone client's request is always a batch of one, so it must
        // reproduce the executor's own batch-1 output exactly.
        if (!same_values(y, expected[j])) ++wrong;
        return true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_c1: %s request failed: %s\n", kModes[m].c_str(), e.what());
        return false;
      }
    };
    for (int i = 0; i < kWarmupRequests; ++i) request(i);
    windows.push_back(
        run_window(args.seconds / static_cast<double>(kModes.size()), args.trace, "op.request",
                   [&](int64_t i) { return request(kWarmupRequests + i); }));
    server.shutdown();
    const serve::ServerStats st = server.stats();
    report.check(st.submitted == st.completed + st.failed && st.submitted == futures,
                 "every " + kModes[m] + " future fulfilled exactly once");
    report.check(wrong == 0, kModes[m] + " served outputs equal the executor's");
    mean_batch.push_back(st.batches > 0 ? static_cast<double>(st.completed) / st.batches : 0.0);
  }
  report_end_to_end(report, setup_s, windows);
  for (size_t m = 0; m < kModes.size(); ++m) {
    report.note("p25_us." + kModes[m], lower_quartile(windows[m].seconds()) * 1e6);
    report.note("p50_us." + kModes[m], median(windows[m].seconds()) * 1e6);
    report.note("p99_us." + kModes[m], quantile(windows[m].seconds(), 0.99) * 1e6);
    report.note("requests." + kModes[m], static_cast<double>(windows[m].ops.size()));
  }

  if (args.trace) {
    double gmacs = 0.0;
    for (const Executor& e : execs) gmacs += static_cast<double>(e.flops_effective()) / 1e9;
    report_common_layers(report, windows, gmacs / static_cast<double>(execs.size()));
    spans::set_recording(true);
    for (size_t m = 0; m < kModes.size(); ++m) {
      const std::string& mode = kModes[m];
      const std::string span = "serve.exec.b1." + mode;
      std::vector<double> calls;
      for (int i = 0; i < kProbeCalls; ++i) {
        calls.push_back(timed_call(span.c_str(), [&] { execs[m].forward(x1); }));
      }
      const double exec_s = lower_quartile(calls);
      const double request_s = lower_quartile(windows[m].seconds(false));
      std::vector<double> allocs;
      for (const Window::Op& op : windows[m].ops) {
        if (!op.traced) allocs.push_back(static_cast<double>(op.allocs));
      }
      report.metric("serve.exec." + mode, exec_s / request_s, "fraction");
      report.metric("serve.wait." + mode, (request_s - exec_s) / request_s, "fraction");
      report.metric("serve.mean_batch." + mode, mean_batch[m], "count");
      report.metric("serve.allocs_per_request." + mode, median(allocs), "count");
      report.note("exec_us.b1." + mode, exec_s * 1e6);
    }
    spans::set_recording(false);
  }
  return report;
}

Report run_exec_b32(const Args& args, const std::string& mode) {
  Report report;
  const ExecMode exec_mode = serve::exec_mode_from_name(mode);
  ModelPtr model;
  Executor exec;
  const Tensor x = random_tensor({32, 3, 32, 32}, derive_seed(args.seed, 3));
  const std::vector<double> setup_s = time_setup(kSetupReps, [&] {
    model = build_pruned(structure_for(mode));
    exec = serve::compile(*model, kSample, exec_mode);
    repeat(kWarmupB32, [&] { exec.forward(x); });
  });
  check_parity(report, *model, exec, derive_seed(args.seed, 2));

  const Tensor expected = exec.forward(x);
  int64_t wrong = 0;
  const auto call = [&] {
    if (!same_values(exec.forward(x), expected)) ++wrong;
  };
  Window w = run_window(args.seconds, args.trace, "op.exec_b32", [&](int64_t) {
    try {
      call();
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "exec_b32_%s: forward failed: %s\n", mode.c_str(), e.what());
      return false;
    }
  });
  report.check(wrong == 0, mode + " executor output is identical on every call");
  report_end_to_end(report, setup_s, {w});
  report.note("samples_per_s", 32.0 / plain_op_s({w}));

  if (args.trace) {
    report_common_layers(report, {w}, 32.0 * static_cast<double>(exec.flops_effective()) / 1e9);
    // Measured speedup against the dense executor of the same pruned model,
    // the two called alternately so a slow phase of the host hits both.
    double speedup = 1.0;
    if (exec_mode != ExecMode::Dense) {
      const Executor dense = serve::compile(*model, kSample, ExecMode::Dense);
      repeat(kWarmupB32, [&] { dense.forward(x); });
      std::vector<double> dense_s, mode_s;
      spans::set_recording(true);
      for (int i = 0; i < kProbeCalls; ++i) {
        dense_s.push_back(timed_call("serve.exec.b32.dense_ref", [&] { dense.forward(x); }));
        mode_s.push_back(timed_call("serve.exec.b32", [&] { exec.forward(x); }));
      }
      spans::set_recording(false);
      speedup = lower_quartile(dense_s) / lower_quartile(mode_s);
      report.note("dense_ref_us", lower_quartile(dense_s) * 1e6);
    }
    report.metric("serve.speedup_measured", speedup, "x");
    report.metric("serve.speedup_theoretical", exec.theoretical_speedup(), "x");
  }
  return report;
}

}  // namespace sbbench
