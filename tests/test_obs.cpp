// Observability subsystem tests: log-level filtering through the file
// sink, scoped-timer nesting and parent attribution, counter / gauge /
// histogram accumulation, Chrome-trace well-formedness (the emitted JSON
// is actually parsed), and the run-manifest round trip.
//
// Ordering matters: the first test asserts the zero-overhead contract —
// with every SB_* switch off, the Profiler singleton is never
// constructed. It must run before any test that enables profiling, so it
// lives in the first-registered suite of this binary (gtest runs suites
// in registration order).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {
namespace {

// ---------------------------------------------------------------------
// Minimal strict JSON parser — enough to verify that the files we emit
// are genuinely well-formed, not just grep-matchable.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json parse error at " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'b': v.string += '\b'; break;
          case 'f': v.string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            v.string += '?';  // presence is all these tests care about
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        v.string += c;
      }
    }
  }

  JsonValue number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

JsonValue parse_json_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::stringstream buf;
  buf << is.rdbuf();
  return JsonParser(buf.str()).parse();
}

void spin_for_at_least(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
         seconds) {
  }
}

// ---------------------------------------------------------------------
// A_ZeroOverhead — must stay the first-registered suite (see header).
// ---------------------------------------------------------------------

TEST(A_ZeroOverhead, ProfilerNeverConstructedWhenDisabled) {
  if (std::getenv("SB_PROF") || std::getenv("SB_TRACE")) {
    GTEST_SKIP() << "SB_PROF/SB_TRACE set in the environment";
  }
  // Exercise every no-op entry point the hot paths use.
  EXPECT_FALSE(obs::profiling_enabled());
  obs::count("nop.counter", 42);
  obs::set_gauge("nop.gauge", 1.0);
  obs::observe("nop.histogram", 1.0);
  {
    obs::ScopedTimer t("nop.span");
    EXPECT_EQ(t.seconds(), 0.0);
  }
  const obs::MetricsSnapshot snap = obs::snapshot_if_enabled();
  EXPECT_TRUE(snap.counters.empty());
  // The actual zero-overhead guarantee: nothing above touched the
  // singleton.
  EXPECT_FALSE(obs::Profiler::constructed());
}

TEST(A_ZeroOverhead, TelemetryNeverConstructedWhenDisabled) {
  if (std::getenv("SB_TELEMETRY") || std::getenv("SB_STATUS_FILE") ||
      std::getenv("SB_TELEMETRY_JSONL")) {
    GTEST_SKIP() << "SB_TELEMETRY/SB_STATUS_FILE/SB_TELEMETRY_JSONL set in the environment";
  }
  // Same contract as the profiler, extended to the telemetry subsystem:
  // every status-board hook sprinkled through train/sweep must stay a
  // single branch while the switches are off.
  EXPECT_FALSE(obs::telemetry_enabled());
  obs::status_set_phase("nop");
  obs::status_set_stage("nop");
  obs::status_set_progress(1, 2, 3.0);
  obs::status_set_epoch(1, 0.5, 0.9);
  obs::status_set_failures(0, 0);
  obs::status_add_anomalies(1);
  obs::status_add_retries(1);
  obs::write_status_now();
  EXPECT_FALSE(obs::Telemetry::constructed());
}

TEST(A_ZeroOverhead, HotPathsNeverConstructProfilerWhenDisabled) {
  if (std::getenv("SB_PROF") || std::getenv("SB_TRACE")) {
    GTEST_SKIP() << "SB_PROF/SB_TRACE set in the environment";
  }
  // Drive the instrumented hot paths for real — gemm (counters), conv
  // forward/backward (spans + counters + im2col/col2im counters), the
  // workspace arena (grow counter + gauges) — and assert none of their
  // instrumentation touched the singleton. This is the regression guard
  // for "profiling off must be truly zero-overhead on the hot loop".
  Rng rng(3);
  Tensor a({9, 17}), b({17, 5});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  (void)matmul(a, b);

  Conv2d conv("zc", 2, 3, 3, 1, 1, true);
  kaiming_normal(conv.weight().data, rng);
  Tensor x({2, 2, 6, 6}), dy({2, 3, 6, 6});
  rng.fill_normal(x, 0, 1);
  rng.fill_normal(dy, 0, 1);
  (void)conv.forward(x, true);
  (void)conv.backward(dy);

  {
    Workspace::Scope scope;
    (void)Workspace::tls().floats(1024);
  }

  EXPECT_FALSE(obs::Profiler::constructed());
  // The matmul above went through the thread pool's telemetry-gated
  // accounting branch; with switches off it must not have constructed
  // the telemetry singleton either.
  EXPECT_FALSE(obs::Telemetry::constructed());
}

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

struct LogFixture : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "/sb_obs_log.txt";
    std::filesystem::remove(path);
    obs::set_log_file(path);
  }
  void TearDown() override {
    obs::set_log_file("");
    obs::set_log_level(obs::LogLevel::Info);
    std::filesystem::remove(path);
  }
  std::string slurp() {
    obs::set_log_file("");  // flush + close
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }
};

TEST_F(LogFixture, LevelFilteringDropsBelowThreshold) {
  obs::set_log_level(obs::LogLevel::Warn);
  SB_LOG_TRACE("t", "trace line %d", 1);
  SB_LOG_DEBUG("t", "debug line");
  SB_LOG_INFO("t", "info line");
  SB_LOG_WARN("t", "warn line");
  SB_LOG_ERROR("t", "error line %s", "with arg");

  const std::string text = slurp();
  EXPECT_EQ(text.find("trace line"), std::string::npos);
  EXPECT_EQ(text.find("debug line"), std::string::npos);
  EXPECT_EQ(text.find("info line"), std::string::npos);
  EXPECT_NE(text.find("WARN  t: warn line"), std::string::npos);
  EXPECT_NE(text.find("ERROR t: error line with arg"), std::string::npos);
}

TEST_F(LogFixture, OffSilencesEverything) {
  obs::set_log_level(obs::LogLevel::Off);
  SB_LOG_ERROR("t", "should not appear");
  EXPECT_EQ(slurp(), "");
}

TEST(LogLevelParsing, RecognizesNamesCaseInsensitively) {
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::Trace);
  EXPECT_EQ(obs::parse_log_level("DEBUG"), obs::LogLevel::Debug);
  EXPECT_EQ(obs::parse_log_level("Info"), obs::LogLevel::Info);
  EXPECT_EQ(obs::parse_log_level("warning"), obs::LogLevel::Warn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::Error);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::Off);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::Warn), obs::LogLevel::Warn);
}

// ---------------------------------------------------------------------
// Profiler: spans, counters, histograms, trace. Everything below runs
// after A_ZeroOverhead and may construct the singleton.
// ---------------------------------------------------------------------

struct ProfilerFixture : ::testing::Test {
  void SetUp() override {
    obs::set_profiling_enabled(true);
    obs::Profiler::instance().reset();
  }
  void TearDown() override {
    obs::set_trace_path("");
    obs::Profiler::instance().reset();
    obs::set_profiling_enabled(false);
  }
};

TEST_F(ProfilerFixture, TimerNestingAttributesChildTimeToParent) {
  {
    obs::ScopedTimer outer("outer");
    spin_for_at_least(0.002);
    {
      obs::ScopedTimer inner("inner");
      spin_for_at_least(0.002);
    }
    {
      obs::ScopedTimer inner("inner");
      spin_for_at_least(0.002);
    }
  }
  const auto snap = obs::Profiler::instance().snapshot();
  ASSERT_TRUE(snap.spans.count("outer")) << "missing root span";
  ASSERT_TRUE(snap.spans.count("outer/inner")) << "child not keyed by parent path";

  const obs::SpanStats& outer = snap.spans.at("outer");
  const obs::SpanStats& inner = snap.spans.at("outer/inner");
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(inner.count, 2);
  // Parent attribution: outer's child time is exactly the inner spans'
  // total, its self time covers the rest.
  EXPECT_NEAR(outer.child_seconds, inner.total_seconds, 1e-9);
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_GT(outer.self_seconds(), 0.0);
}

TEST_F(ProfilerFixture, SiblingSpansGetDistinctPaths) {
  {
    obs::ScopedTimer a("phase_a");
    spin_for_at_least(0.001);
  }
  {
    obs::ScopedTimer b("phase_b");
    obs::ScopedTimer leaf("leaf");
    spin_for_at_least(0.001);
  }
  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_TRUE(snap.spans.count("phase_a"));
  EXPECT_TRUE(snap.spans.count("phase_b"));
  EXPECT_TRUE(snap.spans.count("phase_b/leaf"));
  EXPECT_FALSE(snap.spans.count("phase_a/leaf"));
}

TEST_F(ProfilerFixture, CountersGaugesHistogramsAccumulate) {
  obs::count("c.calls");
  obs::count("c.calls");
  obs::count("c.calls", 3);
  obs::set_gauge("g.last", 1.5);
  obs::set_gauge("g.last", 2.5);  // gauges overwrite
  obs::observe("h.ms", 1.0);
  obs::observe("h.ms", 3.0);
  obs::observe("h.ms", 2.0);

  const auto snap = obs::Profiler::instance().snapshot();
  EXPECT_EQ(snap.counters.at("c.calls"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.last"), 2.5);
  const obs::HistogramStats& h = snap.histograms.at("h.ms");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 6.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST_F(ProfilerFixture, TraceJsonIsWellFormedAndContainsSpans) {
  const std::string path = ::testing::TempDir() + "/sb_obs_trace.json";
  obs::set_trace_path(path);
  {
    obs::ScopedTimer outer("trace_outer");
    obs::ScopedTimer inner("trace_inner \"quoted\"");
    spin_for_at_least(0.001);
  }
  ASSERT_TRUE(obs::Profiler::instance().write_trace(path));

  const JsonValue root = parse_json_file(path);  // throws if malformed
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::Array);
  ASSERT_GE(events.array.size(), 2u);

  bool saw_outer = false, saw_inner = false;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(e.has("name") && e.has("ph") && e.has("ts") && e.has("dur"));
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_GE(e.at("dur").number, 0.0);
    saw_outer |= e.at("name").string == "trace_outer";
    saw_inner |= e.at("name").string.find("trace_inner") == 0;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  std::filesystem::remove(path);
}

TEST_F(ProfilerFixture, MetricsJsonIsWellFormed) {
  obs::count("mj.counter", 7);
  obs::observe("mj.hist", 4.0);
  {
    obs::ScopedTimer t("mj_span");
  }
  const std::string json = obs::metrics_json(obs::Profiler::instance().snapshot());
  const JsonValue root = JsonParser(json).parse();
  EXPECT_DOUBLE_EQ(root.at("counters").at("mj.counter").number, 7.0);
  EXPECT_DOUBLE_EQ(root.at("histograms").at("mj.hist").at("count").number, 1.0);
  EXPECT_TRUE(root.at("spans").has("mj_span"));
}

// ---------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------

TEST_F(ProfilerFixture, ManifestRoundTrip) {
  obs::count("manifest.counter", 11);

  ExperimentResult r;
  r.config.dataset = "synth-mnist";
  r.config.arch = "lenet-300-100";
  r.config.strategy = "global-weight";
  r.config.target_compression = 4.0;
  r.config.run_seed = 7;
  r.post_top1 = 0.91;
  r.compression = 3.98;
  r.finetune_epochs = 3;
  r.phases.pretrain = 1.25;
  r.phases.prune = 0.03125;
  r.phases.finetune = 2.5;
  r.phases.eval = 0.5;
  r.seconds = 4.5;

  const std::string path = ::testing::TempDir() + "/sb_obs_manifest.json";
  write_run_manifest(path, "unit_test_bench", {r});

  const JsonValue root = parse_json_file(path);
  EXPECT_EQ(root.at("schema").string, "shrinkbench.run_manifest/v1");
  EXPECT_EQ(root.at("bench").string, "unit_test_bench");
  EXPECT_FALSE(root.at("git").string.empty());

  ASSERT_EQ(root.at("results").array.size(), 1u);
  const JsonValue& entry = root.at("results").array[0];
  EXPECT_EQ(entry.at("fingerprint").string, config_fingerprint(r.config));
  EXPECT_EQ(entry.at("arch").string, "lenet-300-100");
  EXPECT_DOUBLE_EQ(entry.at("run_seed").number, 7.0);
  // Powers of two round-trip exactly through %.17g.
  EXPECT_DOUBLE_EQ(entry.at("phases").at("pretrain").number, 1.25);
  EXPECT_DOUBLE_EQ(entry.at("phases").at("prune").number, 0.03125);
  EXPECT_DOUBLE_EQ(entry.at("phases").at("finetune").number, 2.5);
  EXPECT_DOUBLE_EQ(entry.at("phases").at("eval").number, 0.5);
  EXPECT_DOUBLE_EQ(entry.at("phases").at("total").number, r.phases.total());

  // The counter snapshot taken while profiling was on rides along.
  EXPECT_DOUBLE_EQ(root.at("metrics").at("counters").at("manifest.counter").number, 11.0);
  std::filesystem::remove(path);
}

TEST(ManifestWithoutProfiling, EmitsEmptyMetrics) {
  obs::set_profiling_enabled(false);
  ExperimentResult r;
  const std::string path = ::testing::TempDir() + "/sb_obs_manifest_off.json";
  write_run_manifest(path, "off_bench", {r});
  const JsonValue root = parse_json_file(path);
  EXPECT_EQ(root.at("schema").string, "shrinkbench.run_manifest/v1");
  EXPECT_EQ(root.at("results").array.size(), 1u);
  std::filesystem::remove(path);
}

TEST(ManifestHost, RecordsMachineAndEffectiveKnobs) {
  ExperimentResult r;
  const std::string path = ::testing::TempDir() + "/sb_obs_manifest_host.json";
  write_run_manifest(path, "host_bench", {r});
  const JsonValue root = parse_json_file(path);
  ASSERT_TRUE(root.has("host"));
  const JsonValue& host = root.at("host");
  EXPECT_FALSE(host.at("hostname").string.empty());
  EXPECT_GE(host.at("cpu_cores").number, 1.0);
  EXPECT_GE(host.at("threads").number, 1.0);
  EXPECT_FALSE(host.at("simd").string.empty());
  // started (library load) <= created (manifest write), both ISO-8601 Z.
  const std::string& started = root.at("started_utc").string;
  const std::string& created = root.at("created_utc").string;
  ASSERT_EQ(started.size(), 20u);
  ASSERT_EQ(created.size(), 20u);
  EXPECT_EQ(started.back(), 'Z');
  EXPECT_LE(started, created);  // lexicographic == chronological for ISO-8601
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Streaming quantile histogram: the <5% relative-error contract, checked
// against exact (sorted) quantiles on three distribution shapes.
// ---------------------------------------------------------------------

double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

void expect_quantiles_close(const std::vector<double>& values, const char* label) {
  obs::QuantileHistogram hist;
  for (const double v : values) hist.observe(v);
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double approx = hist.quantile(q);
    ASSERT_GT(exact, 0.0);
    EXPECT_NEAR(approx / exact, 1.0, 0.05)
        << label << " q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(QuantileHistogram, UniformWithinFivePercent) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(1.0, 100.0);
  std::vector<double> values(20000);
  for (double& v : values) v = dist(rng);
  expect_quantiles_close(values, "uniform");
}

TEST(QuantileHistogram, LognormalWithinFivePercent) {
  // Heavy right tail — the shape epoch/batch latencies actually have.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(0.0, 1.0);
  std::vector<double> values(20000);
  for (double& v : values) v = dist(rng);
  expect_quantiles_close(values, "lognormal");
}

TEST(QuantileHistogram, PointMassWithinFivePercent) {
  std::vector<double> values(5000, 0.0375);  // all mass in one bucket
  expect_quantiles_close(values, "point-mass");
}

TEST(QuantileHistogram, UnderflowValuesReportTheirMinimum) {
  obs::QuantileHistogram hist;
  hist.observe(0.0);
  hist.observe(-3.0);
  hist.observe(0.0);
  EXPECT_EQ(hist.count(), 3);
  // Everything sits in the underflow bucket; quantiles answer with the
  // running minimum instead of inventing a positive value.
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), -3.0);
}

TEST(QuantileHistogram, EmptyQueriesReturnZero) {
  const obs::QuantileHistogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
}

TEST_F(ProfilerFixture, SnapshotFillsHistogramQuantiles) {
  for (int i = 1; i <= 100; ++i) obs::observe("q.ms", static_cast<double>(i));
  const auto snap = obs::Profiler::instance().snapshot();
  const obs::HistogramStats& h = snap.histograms.at("q.ms");
  EXPECT_NEAR(h.p50 / 50.0, 1.0, 0.06);
  EXPECT_NEAR(h.p90 / 90.0, 1.0, 0.06);
  EXPECT_NEAR(h.p99 / 99.0, 1.0, 0.06);
  // And they ride into metrics_json.
  const JsonValue root = JsonParser(obs::metrics_json(snap)).parse();
  EXPECT_GT(root.at("histograms").at("q.ms").at("p50").number, 0.0);
}

// ---------------------------------------------------------------------
// Resource sampling
// ---------------------------------------------------------------------

TEST(ResourceSample, ReportsLiveProcessNumbers) {
  const obs::ResourceSample s = obs::sample_resources();
#if defined(_WIN32)
  GTEST_SKIP() << "resource sampling is POSIX-only";
#endif
  ASSERT_TRUE(s.valid);
  EXPECT_GT(s.rss_mb, 0.0);
  EXPECT_GE(s.peak_rss_mb, s.rss_mb * 0.5);  // HWM can lag RSS slightly
  EXPECT_GE(s.user_cpu_seconds + s.sys_cpu_seconds, 0.0);
  EXPECT_GE(s.os_threads, 1);
  EXPECT_FALSE(obs::hostname().empty());
  EXPECT_GE(obs::cpu_cores(), 1);
  EXPECT_GT(obs::process_id(), 0);
}

// ---------------------------------------------------------------------
// Telemetry registry, heartbeat, and JSONL stream. These construct the
// singleton, so they run after the A_ZeroOverhead suite.
// ---------------------------------------------------------------------

struct TelemetryFixture : ::testing::Test {
  void SetUp() override {
    obs::set_telemetry_hz(0);  // no background thread: ticks are manual
    obs::set_telemetry_enabled(true);
    obs::Telemetry::instance().reset();
  }
  void TearDown() override {
    obs::set_status_path("");
    obs::Telemetry::instance().reset();
    obs::set_telemetry_enabled(false);
  }
};

TEST_F(TelemetryFixture, RecordAccumulatesSeriesInOrder) {
  obs::Telemetry& t = obs::Telemetry::instance();
  t.record("test.loss", 1.0);
  t.record("test.loss", 0.5);
  t.record("test.acc", 0.9);
  const auto series = t.series();
  ASSERT_TRUE(series.count("test.loss"));
  ASSERT_EQ(series.at("test.loss").size(), 2u);
  EXPECT_DOUBLE_EQ(series.at("test.loss")[0].value, 1.0);
  EXPECT_DOUBLE_EQ(series.at("test.loss")[1].value, 0.5);
  EXPECT_LE(series.at("test.loss")[0].t, series.at("test.loss")[1].t);
  ASSERT_EQ(series.at("test.acc").size(), 1u);
}

TEST_F(TelemetryFixture, SampleOnceCollectsResourceSeries) {
  obs::Telemetry& t = obs::Telemetry::instance();
  t.sample_once();
  t.sample_once();
  const auto series = t.series();
  ASSERT_TRUE(series.count("proc.rss_mb"));
  ASSERT_EQ(series.at("proc.rss_mb").size(), 2u);
  EXPECT_GT(series.at("proc.rss_mb")[0].value, 0.0);
  // Monotonic timestamps within the series.
  EXPECT_LE(series.at("proc.rss_mb")[0].t, series.at("proc.rss_mb")[1].t);
  ASSERT_TRUE(series.count("proc.cpu_user_s"));
}

TEST_F(TelemetryFixture, HeartbeatRoundTripsThroughStatusJson) {
  const std::string path = ::testing::TempDir() + "/sb_obs_status.json";
  obs::set_status_path(path);

  obs::status_set_phase("sweep");
  obs::status_set_stage("finetune");
  obs::status_set_progress(3, 12, 42.0);
  obs::status_set_epoch(5, 0.25, 0.875);
  obs::status_set_failures(1, 2);
  obs::status_add_anomalies(2);
  obs::status_add_anomalies(1);
  obs::status_add_retries(1);
  obs::write_status_now();

  const JsonValue root = parse_json_file(path);
  EXPECT_EQ(root.at("schema").string, "shrinkbench.status/v1");
  EXPECT_EQ(root.at("phase").string, "sweep");
  EXPECT_EQ(root.at("stage").string, "finetune");
  EXPECT_FALSE(root.at("host").string.empty());
  EXPECT_GT(root.at("pid").number, 0.0);

  const JsonValue& progress = root.at("progress");
  EXPECT_DOUBLE_EQ(progress.at("done").number, 3.0);
  EXPECT_DOUBLE_EQ(progress.at("total").number, 12.0);
  EXPECT_DOUBLE_EQ(progress.at("fraction").number, 0.25);
  EXPECT_DOUBLE_EQ(progress.at("eta_seconds").number, 42.0);

  const JsonValue& train = root.at("train");
  EXPECT_DOUBLE_EQ(train.at("epoch").number, 5.0);
  EXPECT_DOUBLE_EQ(train.at("train_loss").number, 0.25);
  EXPECT_DOUBLE_EQ(train.at("val_top1").number, 0.875);

  const JsonValue& counts = root.at("counts");
  EXPECT_DOUBLE_EQ(counts.at("anomalies").number, 3.0);
  EXPECT_DOUBLE_EQ(counts.at("retries").number, 1.0);
  EXPECT_DOUBLE_EQ(counts.at("failures").number, 1.0);
  EXPECT_DOUBLE_EQ(counts.at("cache_hits").number, 2.0);

#if !defined(_WIN32)
  EXPECT_GT(root.at("resources").at("rss_mb").number, 0.0);
#endif
  std::filesystem::remove(path);
}

TEST_F(TelemetryFixture, StatusFileIsRewrittenAtomicallyEachTick) {
  const std::string path = ::testing::TempDir() + "/sb_obs_status_tick.json";
  obs::set_status_path(path);
  for (int tick = 0; tick < 5; ++tick) {
    obs::status_set_progress(static_cast<size_t>(tick), 5, -1.0);
    obs::Telemetry::instance().sample_once();
    // Every read between ticks must see complete, parseable JSON.
    const JsonValue root = parse_json_file(path);
    EXPECT_DOUBLE_EQ(root.at("progress").at("done").number, static_cast<double>(tick));
  }
  std::filesystem::remove(path);
}

TEST_F(TelemetryFixture, SeriesJsonlParsesAndIsMonotonic) {
  obs::Telemetry& t = obs::Telemetry::instance();
  t.record("jl.metric", 1.5);
  t.sample_once();
  t.record("jl.metric", 2.5);
  t.sample_once();

  std::istringstream lines(t.series_jsonl());
  std::string line;
  size_t n = 0;
  std::map<std::string, double> last_t;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const JsonValue v = JsonParser(line).parse();
    ASSERT_TRUE(v.has("t") && v.has("series") && v.has("value"));
    const std::string& name = v.at("series").string;
    if (last_t.count(name)) {
      EXPECT_GE(v.at("t").number, last_t[name]) << name;
    }
    last_t[name] = v.at("t").number;
    ++n;
  }
  EXPECT_GE(n, 4u);  // 2 manual points + >= 1 sampled series x 2 ticks
  ASSERT_TRUE(last_t.count("jl.metric"));

  const std::string path = ::testing::TempDir() + "/sb_obs_series.jsonl";
  ASSERT_TRUE(t.write_series_jsonl(path));
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST_F(TelemetryFixture, BackgroundSamplerProducesTicks) {
  obs::set_telemetry_hz(50.0);
  obs::Telemetry& t = obs::Telemetry::instance();
  t.start_sampler();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t points = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto series = t.series();
    const auto it = series.find("proc.rss_mb");
    points = it != series.end() ? it->second.size() : 0;
    if (points >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  t.stop_sampler();
  EXPECT_GE(points, 2u);
  obs::set_telemetry_hz(0);
}

TEST_F(TelemetryFixture, PoolSamplerReportsUtilization) {
  // The threadpool TU registered its sampler at static init; drive a
  // parallel job while telemetry is on, then tick once.
  Rng rng(5);
  Tensor a({64, 64}), b({64, 64});
  rng.fill_normal(a, 0, 1);
  rng.fill_normal(b, 0, 1);
  (void)matmul(a, b);
  obs::Telemetry& t = obs::Telemetry::instance();
  t.sample_once();
  const auto series = t.series();
  ASSERT_TRUE(series.count("pool.jobs")) << "pool sampler not registered";
  EXPECT_GE(series.at("pool.jobs").back().value, 0.0);
  ASSERT_TRUE(series.count("pool.busy_frac"));
}

TEST_F(TelemetryFixture, SampleOnceMirrorsProfilerCounters) {
  obs::set_profiling_enabled(true);
  obs::Profiler::instance().reset();
  obs::count("mirror.me", 3);
  obs::Telemetry::instance().sample_once();
  const auto series = obs::Telemetry::instance().series();
  ASSERT_TRUE(series.count("counter.mirror.me"));
  EXPECT_DOUBLE_EQ(series.at("counter.mirror.me").back().value, 3.0);
  obs::Profiler::instance().reset();
  obs::set_profiling_enabled(false);
}

// ---------------------------------------------------------------------
// JSON-lines log mode
// ---------------------------------------------------------------------

TEST(LogJson, EmitsOneParseableObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/sb_obs_log_json.txt";
  std::filesystem::remove(path);
  obs::set_log_file(path);
  obs::set_log_json(true);
  SB_LOG_WARN("jsontag", "quoted \"message\" with\nnewline");
  SB_LOG_ERROR("jsontag", "count=%d", 7);
  obs::set_log_json(false);
  obs::set_log_file("");

  std::ifstream is(path);
  std::string line;
  size_t n = 0;
  while (std::getline(is, line)) {
    const JsonValue v = JsonParser(line).parse();  // throws if not one object per line
    ASSERT_TRUE(v.has("t") && v.has("level") && v.has("tag") && v.has("msg"));
    EXPECT_EQ(v.at("tag").string, "jsontag");
    ++n;
  }
  ASSERT_EQ(n, 2u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// The shared obs JSON parser (used by sb_top) — spot checks
// ---------------------------------------------------------------------

TEST(ObsJsonParse, RoundTripsEmittedJson) {
  const obs::JsonValue v =
      obs::json_parse("{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"x\\\"y\"}}");
  EXPECT_DOUBLE_EQ(v.at("a").array[1].number, 2.5);
  EXPECT_EQ(v.at("b").at("c").string, "x\"y");
  EXPECT_DOUBLE_EQ(v.num_or("missing", -1.0), -1.0);
  EXPECT_THROW(obs::json_parse("{\"torn\": "), std::runtime_error);
  EXPECT_THROW(obs::json_parse("{} trailing"), std::runtime_error);
}

}  // namespace
}  // namespace shrinkbench
