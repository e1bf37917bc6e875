// Durable file I/O, cross-process locking, + deterministic fault
// injection.
//
// Every persistent artifact in the system — result-cache entries, CSVs,
// run manifests, Chrome traces — goes through atomic_write_file: the
// content is written to `<path>.tmp.<pid>.<seq>`, flushed and fsync'd,
// the stream state is checked, and only then is the temp file renamed
// over the destination. A crash, kill -9, or full disk at any point
// leaves either the old file or no file — never a torn one. The pid +
// per-process sequence suffix keeps concurrent writers (threads or
// fleet worker processes) of the same destination from clobbering each
// other's temp file mid-flush.
//
// FileLock is the cross-process claim primitive behind run_sweep's claim
// loop: an exclusive flock(2) on an O_CREAT'ed lock file. The kernel
// drops the lock when the holder dies (including kill -9), so a
// preempted fleet worker never wedges the grid behind a stale claim.
//
// Fault injection (tests only):
//
//   SB_FAULT=<site>:<nth>[,<site>:<nth>...]   (1-based; `*` = every call)
//
// fault_point("site") returns true on the nth call to that site (or on
// every call for `*`), letting tests deterministically inject throws,
// short writes, and corrupt cache bytes to prove each recovery path.
// With SB_FAULT unset and set_fault_spec never called, fault_point is a
// single branch on a cached flag.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace shrinkbench::obs {

/// Atomically replaces `path` with `content` (temp file + flush + fsync
/// + rename). Creates parent directories. Returns false — leaving no
/// partial file behind — if any step fails; failures bump the
/// "io.write_failed" counter and log a warning.
bool atomic_write_file(const std::filesystem::path& path, std::string_view content);

/// Callback flavor: `fill` streams into a buffer which is then written
/// atomically. Convenient for existing `operator<<` serialization code.
bool atomic_write_file(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill);

/// FNV-1a 64-bit checksum — guards result-cache entries against torn or
/// bit-rotted files (not cryptographic).
uint64_t fnv1a64(std::string_view data);

/// Lowercase 16-digit hex of fnv1a64(data).
std::string checksum_hex(std::string_view data);

// ---- cross-process locking ----

/// Advisory cross-process lock built on flock(2). Acquiring creates the
/// lock file if needed and takes LOCK_EX on it; the fd (and therefore
/// the lock) follows the process, so a kill -9 releases it
/// automatically — the property the fleet's work-stealing relies on to
/// detect dead claimants without pid liveness probes.
///
/// Claim protocol: because release() may unlink the file while a racing
/// peer still has the old inode open, two processes can transiently
/// both hold "the" lock (on different inodes). Holders must therefore
/// re-check the guarded resource (cache entry, checkpoint) after
/// acquiring and before computing — claim -> re-check -> compute. With
/// that discipline the race costs one cache probe, never a duplicate
/// compute.
class FileLock {
 public:
  FileLock() = default;
  ~FileLock() { release(); }
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// Non-blocking acquire: creates `path` (and parents) if needed and
  /// tries LOCK_EX | LOCK_NB. On success the file records "<pid>" for
  /// debugging. False when another holder (process or fd) has it, or
  /// when the lock file cannot be opened at all — open_failed() tells
  /// the two apart.
  bool try_acquire(const std::filesystem::path& path);

  /// Polling acquire: retries try_acquire every `poll_ms` until it
  /// succeeds, the lock file cannot be opened (no retry can fix that),
  /// or `cancelled` (optional) returns true. Returns held().
  bool acquire(const std::filesystem::path& path, int poll_ms = 100,
               const std::function<bool()>& cancelled = nullptr);

  /// True when the last acquire attempt failed because the lock file
  /// could not be opened (counted as "io.lock_open_failed"), not because
  /// a peer holds the lock. Callers then go on without the lock.
  bool open_failed() const { return open_failed_; }

  /// Drops the lock. With `unlink_file` the lock file is removed first
  /// (while still held), so the common path leaves no litter behind.
  void release(bool unlink_file = false);

  bool held() const { return fd_ >= 0; }
  const std::filesystem::path& path() const { return path_; }

 private:
  int fd_ = -1;
  bool open_failed_ = false;
  std::filesystem::path path_;
};

// ---- fault injection ----

/// Installs a fault spec programmatically (tests), replacing any spec
/// from SB_FAULT and resetting all per-site call counters. Empty spec
/// disables injection.
void set_fault_spec(const std::string& spec);

/// True when the current call to `site` should fail according to the
/// active spec. Each call increments the site's counter whether or not
/// it fires.
bool fault_point(const char* site);

}  // namespace shrinkbench::obs
