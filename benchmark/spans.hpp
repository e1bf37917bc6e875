// The benchmark's own spans, recorded around its calls into each layer of
// the library (the library itself carries no spans for this). Spans stay in
// memory and are written once, at exit, as a Chrome trace (the same
// traceEvents format the library's profiler writes, loadable in
// chrome://tracing or Perfetto).
//
// Each span records its name, start, end, the span that was open on the
// same thread when it began (its parent), and an optional request id that
// ties a request's spans together. A span's self time is its duration minus
// the time its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace sbbench::spans {

/// Spans opened while recording is off cost one atomic load and record
/// nothing. Off at start.
void set_recording(bool on);

class Span {
 public:
  explicit Span(const char* name, int64_t request_id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
  int64_t parent_ = -1;
};

/// Per-name seconds of every finished span so far.
std::map<std::string, double> totals();

/// Per-name seconds of the spans that finished since `before` was taken.
std::map<std::string, double> seconds_since(const std::map<std::string, double>& before);

/// Writes every recorded span as a Chrome trace; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace sbbench::spans
