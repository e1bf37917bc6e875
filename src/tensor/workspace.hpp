// Thread-local grow-only workspace arena for hot-path scratch.
//
// The conv and linear kernels stage operands per call (zero-bordered
// input planes, transposed weights and gradients, Linear's W^T). Fresh
// std::vector buffers would cost thousands of allocations per training
// step; the arena serves them by bump allocation from a thread-local pool
// that grows to the high-water mark once and is then reused forever:
// after warm-up, a training step performs zero heap allocations for
// scratch.
//
// Usage:
//
//   Workspace::Scope scope;                 // RAII: frees on destruction
//   float* wt = Workspace::tls().floats(in * out);
//   ...
//
// Scopes nest (a caller's scope holds its buffers while a kernel it calls
// opens its own on top) and must be destroyed in LIFO order, which C++
// scoping guarantees. Pointers are valid until the enclosing Scope dies; never
// store them across calls. All returns are 64-byte aligned.
//
// Observability (only when SB_PROF is on): gauges
// `workspace.high_water_bytes` / `workspace.capacity_bytes` and counter
// `workspace.grow` — a steady-state training loop must show a stable
// high-water mark and no further grow events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shrinkbench {

class Workspace {
 public:
  /// The calling thread's arena (constructed on first use).
  static Workspace& tls();

  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// 64-byte-aligned scratch valid until the innermost live Scope dies.
  /// Calling with no live Scope is an error (throws std::logic_error) —
  /// scratch that can never be reclaimed is a leak, not a cache.
  void* get(size_t bytes);
  float* floats(size_t n) { return static_cast<float*>(get(n * sizeof(float))); }

  /// Bytes handed out by live allocations right now.
  size_t in_use() const { return in_use_; }
  /// Total bytes owned by the arena across all chunks.
  size_t capacity() const;
  /// Maximum in_use() ever observed — what steady state converges to.
  size_t high_water() const { return high_water_; }
  /// Number of chunk mallocs performed (growth events). Stable once warm.
  int64_t grow_count() const { return grow_count_; }

  /// Frees all chunks (requires no live scopes). Mainly for tests.
  void release();

  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    size_t chunk_;
    size_t used_;
    size_t in_use_;
  };

 private:
  struct Chunk {
    void* data = nullptr;
    size_t size = 0;
    size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  size_t current_ = 0;     // index of the chunk being bumped
  size_t in_use_ = 0;      // live bytes across all chunks
  size_t high_water_ = 0;
  int64_t grow_count_ = 0;
  int64_t scope_depth_ = 0;
  bool fragmented_ = false;  // >1 chunk was live at once; consolidate when idle
};

}  // namespace shrinkbench
