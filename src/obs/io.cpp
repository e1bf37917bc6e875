#include "obs/io.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "obs/log.hpp"
#include "obs/profile.hpp"

namespace shrinkbench::obs {

namespace {

struct FaultRule {
  std::string site;
  int64_t nth = 0;  // 1-based call index; 0 = every call ("*")
};

struct FaultState {
  std::mutex mu;
  bool armed = false;
  std::vector<FaultRule> rules;
  std::vector<std::pair<std::string, int64_t>> counters;

  void load(const std::string& spec) {
    rules.clear();
    counters.clear();
    std::istringstream ss(spec);
    std::string entry;
    while (std::getline(ss, entry, ',')) {
      const size_t colon = entry.rfind(':');
      if (colon == std::string::npos || colon == 0) continue;
      FaultRule rule;
      rule.site = entry.substr(0, colon);
      const std::string nth = entry.substr(colon + 1);
      rule.nth = nth == "*" ? 0 : std::strtoll(nth.c_str(), nullptr, 10);
      if (rule.nth < 0) continue;
      rules.push_back(std::move(rule));
    }
    armed = !rules.empty();
  }

  int64_t bump(const char* site) {
    for (auto& [name, count] : counters) {
      if (name == site) return ++count;
    }
    counters.emplace_back(site, 1);
    return 1;
  }
};

FaultState& fault_state() {
  static FaultState s;
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* env = std::getenv("SB_FAULT")) s.load(env);
  });
  return s;
}

bool write_failed(const std::filesystem::path& tmp, const char* what) {
  count("io.write_failed");
  SB_LOG_WARN("io", "atomic write failed (%s) for %s", what, tmp.string().c_str());
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  return false;
}

}  // namespace

void set_fault_spec(const std::string& spec) {
  FaultState& s = fault_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.load(spec);
}

bool fault_point(const char* site) {
  FaultState& s = fault_state();
  if (!s.armed) return false;
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.armed) return false;
  const int64_t call = s.bump(site);
  for (const FaultRule& rule : s.rules) {
    if (rule.site == site && (rule.nth == 0 || rule.nth == call)) {
      SB_LOG_DEBUG("io", "fault injected at %s (call %lld)", site,
                   static_cast<long long>(call));
      return true;
    }
  }
  return false;
}

uint64_t fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string checksum_hex(std::string_view data) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fnv1a64(data)));
  return hex;
}

bool atomic_write_file(const std::filesystem::path& path, std::string_view content) {
  std::error_code ec;
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path(), ec);

#if defined(_WIN32)
  const int pid = 0;
#else
  const int pid = static_cast<int>(::getpid());
#endif
  // pid alone is not enough: two threads of one process (or a pid reused
  // across fleet workers) flushing the same destination would share a
  // temp path and tear each other mid-write, so a per-process sequence
  // number makes every in-flight temp file unique.
  static std::atomic<uint64_t> write_seq{0};
  std::filesystem::path tmp = path;
  tmp += ".tmp." + std::to_string(pid) + "." +
         std::to_string(write_seq.fetch_add(1, std::memory_order_relaxed));

  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (!f) {
    count("io.write_failed");
    SB_LOG_WARN("io", "atomic write failed (open) for %s", tmp.string().c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (fault_point("io.short_write")) ok = false;  // simulated full disk / torn write
  ok = ok && std::fflush(f) == 0;
#if !defined(_WIN32)
  // Flush reaches the kernel; fsync reaches the platter. Without it a
  // power cut can still tear the renamed file.
  ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return write_failed(tmp, "write");

  std::filesystem::rename(tmp, path, ec);
  if (ec) return write_failed(tmp, "rename");
  return true;
}

FileLock::FileLock(FileLock&& other) noexcept : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

bool FileLock::try_acquire(const std::filesystem::path& path) {
  if (held()) release();
  open_failed_ = false;
#if defined(_WIN32)
  // No flock on Windows; degrade to always-succeeds (single-process
  // semantics — the fleet is a POSIX feature).
  path_ = path;
  fd_ = 0;
  return true;
#else
  std::error_code ec;
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path(), ec);
  const int fd = ::open(path.string().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    open_failed_ = true;
    count("io.lock_open_failed");
    SB_LOG_WARN("io", "cannot open lock file %s (%s)", path.string().c_str(),
                std::strerror(errno));
    return false;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return false;
  }
  // Record the owner for post-mortem debugging; the lock itself lives in
  // the kernel, so a torn or stale pid line is never load-bearing.
  if (::ftruncate(fd, 0) == 0) {
    char owner[32];
    const int len = std::snprintf(owner, sizeof(owner), "%d\n", static_cast<int>(::getpid()));
    if (len > 0) {
      const ssize_t written = ::write(fd, owner, static_cast<size_t>(len));
      (void)written;
    }
  }
  fd_ = fd;
  path_ = path;
  return true;
#endif
}

bool FileLock::acquire(const std::filesystem::path& path, int poll_ms,
                       const std::function<bool()>& cancelled) {
  if (poll_ms < 1) poll_ms = 1;
  while (!try_acquire(path)) {
    if (open_failed_ || (cancelled && cancelled())) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  return true;
}

void FileLock::release(bool unlink_file) {
  if (!held()) return;
#if !defined(_WIN32)
  if (unlink_file) {
    // Unlink while still holding the lock: a peer polling try_acquire
    // either recreates a fresh file (and must re-check its resource) or
    // locks the orphaned inode — both are covered by the claim protocol.
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  ::flock(fd_, LOCK_UN);
  ::close(fd_);
#endif
  fd_ = -1;
  path_.clear();
}

bool atomic_write_file(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill) {
  std::ostringstream buffer;
  fill(buffer);
  if (!buffer) {
    count("io.write_failed");
    SB_LOG_WARN("io", "atomic write failed (serialize) for %s", path.string().c_str());
    return false;
  }
  return atomic_write_file(path, buffer.str());
}

}  // namespace shrinkbench::obs
