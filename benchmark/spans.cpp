#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <vector>

namespace sbbench::spans {

namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  std::string name;
  double start_s = 0.0;
  double end_s = -1.0;  // < 0 while open
  double child_s = 0.0;
  int64_t parent = -1;
  int64_t request = -1;
  int thread = 0;
};

std::atomic<bool> g_recording{false};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
int g_next_thread = 0;          // guarded by g_mu

thread_local int64_t t_open = -1;  // innermost open span on this thread
thread_local int t_thread = -1;

double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }

}  // namespace

void set_recording(bool on) { g_recording.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, int64_t request_id) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(g_mu);
  if (t_thread < 0) t_thread = g_next_thread++;
  parent_ = t_open;
  index_ = static_cast<int64_t>(g_records.size());
  g_records.push_back({name, start, -1.0, 0.0, parent_, request_id, t_thread});
  t_open = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = now_s();
  std::lock_guard<std::mutex> lock(g_mu);
  Record& r = g_records[static_cast<size_t>(index_)];
  r.end_s = end;
  if (parent_ >= 0) g_records[static_cast<size_t>(parent_)].child_s += end - r.start_s;
  t_open = parent_;
}

std::map<std::string, double> totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, double> out;
  for (const Record& r : g_records) {
    if (r.end_s >= 0) out[r.name] += r.end_s - r.start_s;
  }
  return out;
}

std::map<std::string, double> seconds_since(const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [name, s] : totals()) {
    const auto it = before.find(name);
    out[name] = s - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream os(path);
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end_s < 0) continue;
    if (!first) os << ',';
    first = false;
    // Complete ("X") events; timestamps in microseconds since process start.
    os << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
       << ",\"ts\":" << r.start_s * 1e6 << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"self_us\":" << (r.end_s - r.start_s - r.child_s) * 1e6;
    if (r.request >= 0) os << ",\"request\":" << r.request;
    os << "}}";
  }
  os << "]}\n";
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace sbbench::spans
