#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "spans.hpp"
#include "tensor/simd.hpp"
#include "tensor/threadpool.hpp"

namespace sbbench {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::note(const std::string& name, double value) { detail.emplace_back(name, value); }

std::vector<double> Window::seconds() const {
  std::vector<double> out;
  for (const Op& op : ops) out.push_back(op.seconds);
  return out;
}

std::vector<double> Window::seconds(bool traced) const {
  std::vector<double> out;
  for (const Op& op : ops) {
    if (op.traced == traced) out.push_back(op.seconds);
  }
  return out;
}

Window run_window(double seconds, bool trace, const char* span_name,
                  const std::function<bool(int64_t)>& op) {
  Window w;
  const Clock::time_point t0 = Clock::now();
  for (int64_t i = 0; seconds_since(t0) < seconds; ++i) {
    const bool traced = trace && i % 2 == 1;
    spans::set_recording(traced);
    const AllocCount a0 = alloc_count();
    const Clock::time_point s0 = Clock::now();
    bool ok = false;
    {
      spans::Span span(span_name);
      ok = op(i);
    }
    const double s = seconds_since(s0);
    const AllocCount a1 = alloc_count();
    spans::set_recording(false);
    ++w.attempted;
    if (!ok) {
      ++w.failed;
      continue;
    }
    w.ops.push_back({s, a1.calls - a0.calls, a1.bytes - a0.bytes, traced});
  }
  w.wall_s = seconds_since(t0);
  return w;
}

std::vector<double> time_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> out;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup();
    out.push_back(seconds_since(t0));
  }
  return out;
}

double plain_op_s(const std::vector<Window>& windows) {
  std::vector<double> s;
  for (const Window& w : windows) {
    const std::vector<double> plain = w.seconds(false);
    s.insert(s.end(), plain.begin(), plain.end());
  }
  return lower_quartile(s);
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<Window>& windows) {
  std::vector<double> all;
  double wall = 0.0;
  for (const Window& w : windows) {
    report.attempted += w.attempted;
    report.failed += w.failed;
    wall += w.wall_s;
    const std::vector<double> s = w.seconds();
    all.insert(all.end(), s.begin(), s.end());
  }
  const double n = static_cast<double>(all.size());
  report.check(!all.empty(), "the measured window completed at least one operation");

  report.metric("setup_s", median(setup_s), "s");
  report.metric("op_p25_ms", plain_op_s(windows) * 1e3, "ms");

  // The rest is detail, not gated. The median, the tails and the mean rate
  // follow the host's slow phases (see lower_quartile), and only some
  // workloads complete enough operations for a percentile above the median
  // to have ten samples beyond it. Peak RSS varies by several percent
  // between identical runs.
  report.note("ops", n);
  report.note("ops_per_s", wall > 0 ? n / wall : 0.0);
  report.note("peak_rss_mib", peak_rss_mib());
  report.note("window_s", wall);
  report.note("setup_reps", static_cast<double>(setup_s.size()));
  report.note("setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()));
  report.note("setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()));
  report.note("op_p50_ms", median(all) * 1e3);
  report.note("op_p90_ms", quantile(all, 0.90) * 1e3);
  report.note("op_p99_ms", quantile(all, 0.99) * 1e3);
  report.note("op_beyond_p90", std::floor(n * 0.10));
  report.note("op_beyond_p99", std::floor(n * 0.01));
  report.note("op_max_ms", all.empty() ? 0.0 : *std::max_element(all.begin(), all.end()) * 1e3);
}

void report_common_layers(Report& report, const std::vector<Window>& windows,
                          double gmacs_per_op) {
  std::vector<double> traced, allocs, bytes;
  for (const Window& w : windows) {
    for (const Window::Op& op : w.ops) {
      if (op.traced) {
        traced.push_back(op.seconds);
      } else {
        allocs.push_back(static_cast<double>(op.allocs));
        bytes.push_back(static_cast<double>(op.alloc_bytes));
      }
    }
  }
  const double plain_s = plain_op_s(windows);
  report.metric("trace_overhead",
                !traced.empty() && plain_s > 0 ? lower_quartile(traced) / plain_s - 1.0 : 0.0,
                "fraction");
  report.metric("allocs_per_op", median(allocs), "count");
  report.metric("alloc_mib_per_op", median(bytes) / (1024.0 * 1024.0), "MiB");
  report.metric("gmacs_per_op", gmacs_per_op, "GMAC");
  report.metric("gmac_per_s", plain_s > 0 ? gmacs_per_op / plain_s : 0.0, "GMAC/s");
  report.note("traced_ops", static_cast<double>(traced.size()));
  report.note("plain_ops", static_cast<double>(allocs.size()));
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string report_json(const Args& args, const Report& report) {
  std::string j = "{\"workload\":" + json_string(args.workload) +
                  ",\"seed\":" + std::to_string(args.seed) +
                  ",\"seconds\":" + json_number(args.seconds) +
                  ",\"trace\":" + (args.trace ? "1" : "0") +
                  ",\"correct\":" + (report.correct ? "true" : "false") + ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i) j += ',';
    j += json_string(report.errors[i]);
  }
  j += "],\"attempted\":" + std::to_string(report.attempted) +
       ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    if (i) j += ',';
    j += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
         ",\"unit\":" + json_string(m.unit) + "}";
  }
  j += "},\"detail\":{";
  for (size_t i = 0; i < report.detail.size(); ++i) {
    if (i) j += ',';
    j += json_string(report.detail[i].first) + ":" + json_number(report.detail[i].second);
  }
  // The settings the library chose for itself: SB_THREADS (or the core
  // count) and the GEMM tier cpuid picked.
  j += "},\"host\":{\"sb_threads\":" + std::to_string(shrinkbench::ThreadPool::default_threads()) +
       ",\"simd\":" +
       json_string(shrinkbench::simd::level_name(shrinkbench::simd::active_level())) + "}}";
  return j;
}

}  // namespace sbbench
