// Perf-baseline tooling for the BENCH_perf.json workflow.
//
//   check_regression emit <gbench.json> <out.json>
//       Post-processes google-benchmark --benchmark_format=json output
//       into the compact committed-baseline schema:
//       {schema, simd, benchmarks: [{name, ns, items_per_sec}]}.
//       Benchmarks that called SkipWithError are recorded as
//       {name, skipped: true} instead of fake timings.
//
//   check_regression check <baseline.json> <current.json> [--tolerance F]
//       Compares a fresh run (same compact schema) against the committed
//       baseline. A benchmark regresses when its time grows by more than
//       the tolerance band (default 0.35 = 35%); a benchmark missing
//       from the current run also fails, so silently compiled-out
//       kernels surface. Entries skipped on either side are reported as
//       a notice, never a failure — an AVX2-only host checking a
//       baseline emitted on an AVX-512 box must still pass. Also
//       enforces the multithread scaling gate: the fused conv grid must
//       give BM_ConvForwardMT/64 a >= 1.6x threads-4 speedup over
//       threads-1, skipped with a logged reason on hosts with fewer
//       than 4 cores (the ratio is noise there).
//       Exit code 0 = within band, 1 = regression.
//
// Typical flow (also run by CI in quick mode):
//   ./micro_primitives --benchmark_format=json > /tmp/raw.json
//   ./check_regression emit /tmp/raw.json /tmp/current.json
//   ./check_regression check BENCH_perf.json /tmp/current.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace obs = shrinkbench::obs;

obs::JsonValue parse_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  return obs::json_parse(buf.str());
}

struct Entry {
  std::string name;
  double ns = 0.0;
  double items_per_sec = 0.0;  // 0 when the bench reports no items
  bool skipped = false;        // bench ran SkipWithError (no timings)
};

double to_ns(double t, const std::string& unit) {
  if (unit == "ns" || unit.empty()) return t;
  if (unit == "us") return t * 1e3;
  if (unit == "ms") return t * 1e6;
  if (unit == "s") return t * 1e9;
  throw std::runtime_error("unknown time_unit '" + unit + "'");
}

int emit(const std::string& in_path, const std::string& out_path) {
  const obs::JsonValue root = parse_file(in_path);
  std::string simd = "unknown";
  if (root.has("context") && root.at("context").has("simd")) {
    simd = root.at("context").at("simd").string;
  }
  std::vector<Entry> entries;
  for (const obs::JsonValue& b : root.at("benchmarks").array) {
    // Skip aggregate rows (mean/median/stddev of repetition runs).
    if (b.has("run_type") && b.at("run_type").string != "iteration") continue;
    Entry e;
    e.name = b.at("name").string;
    if (b.has("error_occurred") && b.at("error_occurred").boolean) {
      e.skipped = true;  // SkipWithError: record the skip, not fake timings
    } else {
      e.ns = to_ns(b.at("real_time").number, b.has("time_unit") ? b.at("time_unit").string : "ns");
      if (b.has("items_per_second")) e.items_per_sec = b.at("items_per_second").number;
    }
    entries.push_back(std::move(e));
  }
  std::ofstream os(out_path);
  if (!os) throw std::runtime_error("cannot write " + out_path);
  os << "{\n  \"schema\": \"shrinkbench.bench_perf/v1\",\n";
  os << "  \"simd\": \"" << simd << "\",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.skipped) {
      os << "    {\"name\": \"" << e.name << "\", \"skipped\": true}";
    } else {
      os << "    {\"name\": \"" << e.name << "\", \"ns\": " << obs::json_num(e.ns)
         << ", \"items_per_sec\": " << obs::json_num(e.items_per_sec) << "}";
    }
    os << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::printf("wrote %s (%zu benchmarks, simd=%s)\n", out_path.c_str(), entries.size(),
              simd.c_str());
  return 0;
}

std::map<std::string, Entry> load_perf(const std::string& path) {
  const obs::JsonValue root = parse_file(path);
  if (!root.has("benchmarks")) throw std::runtime_error(path + ": no 'benchmarks' array");
  std::map<std::string, Entry> out;
  for (const obs::JsonValue& b : root.at("benchmarks").array) {
    Entry e;
    e.name = b.at("name").string;
    if (b.has("skipped") && b.at("skipped").boolean) e.skipped = true;
    if (b.has("ns")) e.ns = b.at("ns").number;
    if (b.has("items_per_sec")) e.items_per_sec = b.at("items_per_sec").number;
    out[e.name] = std::move(e);
  }
  return out;
}

// Multithread scaling gate on the current run: the fused (sample ×
// out-channel-tile) conv grid must turn pool threads into wall-clock
// speedup, not just pool overhead. Compares BM_ConvForwardMT/64 at
// threads 4 vs threads 1 and requires >= kMinConvSpeedup. On hosts with
// fewer than 4 hardware cores the threads-4 run just time-slices one
// core, so the gate logs why it is skipped instead of failing.
constexpr double kMinConvSpeedup = 1.6;

int mt_scaling_gate(const std::map<std::string, Entry>& current) {
  const std::string t1 = "BM_ConvForwardMT/64/1/real_time";
  const std::string t4 = "BM_ConvForwardMT/64/4/real_time";
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    std::printf("mt-gate  skipped: host has %u hardware core(s) (< 4); threads-4 scaling is "
                "unmeasurable here\n",
                cores);
    return 0;
  }
  const auto i1 = current.find(t1);
  const auto i4 = current.find(t4);
  if (i1 == current.end() || i4 == current.end() || i1->second.skipped || i4->second.skipped) {
    std::printf("mt-gate  skipped: %s / %s not present in the current run\n", t1.c_str(),
                t4.c_str());
    return 0;
  }
  const double speedup = i4->second.ns > 0.0 ? i1->second.ns / i4->second.ns : 0.0;
  if (speedup < kMinConvSpeedup) {
    std::printf("REGRESS  mt-gate: conv forward threads-4 speedup %.2fx < required %.2fx\n",
                speedup, kMinConvSpeedup);
    return 1;
  }
  std::printf("ok       mt-gate: conv forward threads-4 speedup %.2fx (>= %.2fx)\n", speedup,
              kMinConvSpeedup);
  return 0;
}

int check(const std::string& base_path, const std::string& cur_path, double tolerance) {
  const auto baseline = load_perf(base_path);
  const auto current = load_perf(cur_path);
  int regressions = 0;
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      if (base.skipped) {
        std::printf("skipped  %-32s (skipped in baseline, absent from current run)\n",
                    name.c_str());
        continue;
      }
      std::printf("MISSING  %-32s (in baseline, absent from current run)\n", name.c_str());
      ++regressions;
      continue;
    }
    if (base.skipped || it->second.skipped) {
      // A tier unavailable on this host (or on the baseline host) is a
      // notice, not a regression: hosts of different ISA levels share
      // one committed baseline.
      std::printf("skipped  %-32s (%s)\n", name.c_str(),
                  it->second.skipped ? "skipped in current run" : "skipped in baseline");
      continue;
    }
    const double ratio = base.ns > 0.0 ? it->second.ns / base.ns : 1.0;
    const bool bad = ratio > 1.0 + tolerance;
    std::printf("%s %-32s %12.0f ns -> %12.0f ns  (%+6.1f%%)\n", bad ? "REGRESS " : "ok      ",
                name.c_str(), base.ns, it->second.ns, (ratio - 1.0) * 100.0);
    if (bad) ++regressions;
  }
  for (const auto& [name, cur] : current) {
    if (baseline.find(name) == baseline.end()) {
      std::printf("new      %-32s %12.0f ns (not in baseline)\n", name.c_str(), cur.ns);
    }
  }
  regressions += mt_scaling_gate(current);
  if (regressions > 0) {
    std::printf("FAIL: %d benchmark(s) regressed beyond the %.0f%% tolerance band\n", regressions,
                tolerance * 100.0);
    return 1;
  }
  std::printf("OK: all %zu baseline benchmarks within the %.0f%% tolerance band\n",
              baseline.size(), tolerance * 100.0);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  check_regression emit <gbench.json> <out.json>\n"
               "  check_regression check <baseline.json> <current.json> [--tolerance F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 4 && std::strcmp(argv[1], "emit") == 0) {
      return emit(argv[2], argv[3]);
    }
    if (argc >= 4 && std::strcmp(argv[1], "check") == 0) {
      double tolerance = 0.35;
      for (int i = 4; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0) tolerance = std::atof(argv[i + 1]);
      }
      return check(argv[2], argv[3], tolerance);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_regression: %s\n", e.what());
    return 2;
  }
}
