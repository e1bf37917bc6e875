// Shared machinery for the end-to-end benchmark's workloads: argument
// parsing, seed derivation, the timed window every workload measures in,
// quantiles, allocation and memory readings, and the JSON report the
// driver script (run.py) consumes.
//
// The benchmark times the library only from outside, through its public
// functions; it never turns on the library's own profiler (SB_PROF) or
// tracing, so the numbers are those of the code users run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sbbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

/// Parses --workload W --seed S --seconds T --trace 0|1 --out DIR; throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// A value derived from the run seed and a stream number (splitmix64), so
/// each input the workload generates has its own reproducible seed. Never 0,
/// which the library reads as "use the preset default".
uint64_t derive_seed(uint64_t seed, uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

/// The statistic every operation time in this benchmark reports. Cores
/// shared with other tenants run up to 40% slower for seconds at a time
/// while those tenants load them; a window's median moves with how much of
/// it those phases cover, while its lower quartile stays with the code's
/// own speed.
inline double lower_quartile(const std::vector<double>& samples) {
  return quantile(samples, 0.25);
}

/// Heap allocations made through global operator new by every thread since
/// process start (the benchmark binary replaces operator new to count them).
struct AllocCount {
  int64_t calls = 0;
  int64_t bytes = 0;
};
AllocCount alloc_count();

/// getrusage peak resident set of this process, in MiB.
double peak_rss_mib();

/// What one workload run found: its correctness checks, operation counts,
/// metrics, and free-form detail for the results file.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> detail;

  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  /// A metric must be finite; a non-finite one fails the run.
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value);
};

/// Operations timed inside one measurement window. Each operation's
/// allocation count is the global count's change across it, so work other
/// threads do for it (a server worker) is included.
struct Window {
  struct Op {
    double seconds;
    int64_t allocs;
    int64_t alloc_bytes;
    bool traced;  // ran with spans recorded
  };
  std::vector<Op> ops;  // successful operations, in order
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Seconds of every operation, or of those whose `traced` flag matches.
  std::vector<double> seconds() const;
  std::vector<double> seconds(bool traced) const;
};

/// Runs `op(i)` back to back until `seconds` have passed since the first
/// began. `op` returns false for a failed operation (counted, not timed).
/// With `trace` on, every second operation runs with span recording on and
/// inside a span named `span_name`, so trace overhead is measured within
/// one run; with it off no span is ever recorded.
Window run_window(double seconds, bool trace, const char* span_name,
                  const std::function<bool(int64_t)>& op);

/// Runs `setup` `reps` times and returns each repetition's seconds.
std::vector<double> time_setup(int reps, const std::function<void()>& setup);

/// Lower-quartile seconds of the windows' operations that ran without spans.
double plain_op_s(const std::vector<Window>& windows);

/// The end-to-end metrics every workload reports, from its set-up times and
/// its measured window(s), plus their tails and counts as detail.
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<Window>& windows);

/// The per-layer metrics every workload reports in a traced run.
/// `gmacs_per_op` is the theoretical effective multiply-adds of one
/// operation (only unmasked weights count; a backward pass counts twice
/// its forward).
void report_common_layers(Report& report, const std::vector<Window>& windows,
                          double gmacs_per_op);

/// Serializes the run (arguments, host settings the library chose, report)
/// as one JSON object on a single line.
std::string report_json(const Args& args, const Report& report);

}  // namespace sbbench
