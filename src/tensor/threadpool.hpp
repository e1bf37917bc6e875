// Persistent thread pool with a bit-deterministic parallel_for.
//
// The paper's comparisons are only meaningful when two runs differ in
// nothing but the pruning method, so parallelism here must never change
// results: parallel_for partitions [begin, end) into *static contiguous*
// chunks and every index's work runs sequentially inside exactly one
// chunk. As long as iterations write disjoint outputs and never reduce
// across indices (the contract for every call site in this repo), the
// floats produced are bit-identical for every thread count, including 1.
//
// Environment contract:
//
//   SB_THREADS=N   pool size (workers + calling thread). Unset -> the
//                  machine's hardware_concurrency. SB_THREADS=1 -> no
//                  threads are ever spawned and parallel_for invokes the
//                  body directly: the exact single-threaded code path
//                  with zero pool overhead.
//
// Nesting: a parallel_for issued from inside a pool worker (or inside a
// SerialGuard region, e.g. a sweep shard worker) runs inline and serial.
// Parallelism therefore lives at the outermost level that asks for it
// and inner levels degrade to the sequential code path.
//
// Observability: when SB_PROF is on, counters `threadpool.jobs` /
// `threadpool.chunks` count fan-outs and worker chunks run under a
// "pool.chunk" span on the worker's own thread-local span stack, so
// parallel work is attributed per thread; the metric registry itself is
// mutex-protected, so counters merge correctly when the pool quiesces.
// When SB_TELEMETRY is on, the pool additionally keeps job/chunk/queue
// counters and per-slot busy clocks, exported to the telemetry sampler
// through the obs::set_pool_sampler hook this TU registers at load (so
// sb_obs never links against sb_tensor). With profiling and telemetry
// off the pool adds a single cached-flag branch per fan-out — the
// zero-overhead contract of src/obs holds.
#pragma once

#include <algorithm>
#include <cstdint>

namespace shrinkbench {

class ThreadPool {
 public:
  /// The process-wide pool. Workers are spawned lazily on the first
  /// parallel_for that can use them; SB_THREADS=1 never spawns any.
  static ThreadPool& instance();

  /// SB_THREADS, or hardware_concurrency when unset (min 1).
  static int default_threads();

  /// True while the calling thread executes a pool chunk or holds a
  /// SerialGuard — i.e. nested parallel_for calls will run inline.
  static bool in_parallel_region();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool size including the calling thread (>= 1).
  int threads() const { return threads_; }

  /// Reconfigures the pool size (joins existing workers; the next
  /// parallel job respawns). Requires no job in flight. Used by tests
  /// and benches to compare thread counts within one process; normal
  /// code should rely on SB_THREADS.
  void set_threads(int n);

  /// Marks the current thread as already-parallel so nested
  /// parallel_for calls run inline (used by sweep shard workers, whose
  /// parallelism is at the experiment level).
  class SerialGuard {
   public:
    SerialGuard();
    ~SerialGuard();
    SerialGuard(const SerialGuard&) = delete;
    SerialGuard& operator=(const SerialGuard&) = delete;

   private:
    bool prev_;
  };

  /// Runs fn(chunk_begin, chunk_end) over a static contiguous partition
  /// of [begin, end). At most threads() chunks are formed and no chunk
  /// is smaller than `grain` indices (grain <= 0 means 1), so tiny
  /// ranges stay on the calling thread. The call returns after every
  /// chunk has finished; the first exception thrown by any chunk is
  /// rethrown here.
  template <typename Fn>
  void parallel_for(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    if (begin >= end) return;
    if (!parallel_viable(end - begin, grain)) {
      fn(begin, end);
      return;
    }
    run_impl(begin, end, grain, &invoke_range<Fn>, &fn);
  }

 private:
  ThreadPool();

  using RangeFn = void (*)(void* ctx, int64_t begin, int64_t end);

  template <typename Fn>
  static void invoke_range(void* ctx, int64_t begin, int64_t end) {
    (*static_cast<Fn*>(ctx))(begin, end);
  }

  /// False when the pool is size 1, the range is below 2 grains, or the
  /// caller is already inside a parallel region — the serial fast path.
  bool parallel_viable(int64_t n, int64_t grain) const;
  void run_impl(int64_t begin, int64_t end, int64_t grain, RangeFn fn, void* ctx);

  struct Impl;
  Impl* impl_;
  int threads_;
};

/// Convenience free function: ThreadPool::instance().parallel_for(...).
template <typename Fn>
inline void parallel_for(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  ThreadPool::instance().parallel_for(begin, end, grain, static_cast<Fn&&>(fn));
}

/// Grain for a parallel_for whose every index touches `per_index_elems`
/// elements: chunks below 2^16 touched elements stay on the calling
/// thread. The grain only decides where chunk boundaries fall, never
/// what a chunk computes, so it cannot change any output bit.
inline int64_t work_grain(int64_t per_index_elems) {
  constexpr int64_t kMinElemsPerChunk = int64_t{1} << 16;
  return std::max<int64_t>(1, kMinElemsPerChunk / std::max<int64_t>(per_index_elems, 1));
}

/// Static 2-D tile grid for fused (sample × channel-tile) parallelism.
///
/// The conv hot paths parallelize over samples, which starves the pool
/// at batch sizes below the thread count (the batch-1 serving case). A
/// Grid2d splits axis 0 (samples) first — it is the cheap axis, since
/// per-tile staging such as a sample's bordered planes is shared by everything in the tile —
/// and only splits axis 1 (output channels) when axis 0 alone cannot
/// occupy every pool slot. Tile boundaries never split a reduction, so
/// any tiling produces bit-identical results; the grid only decides how
/// the identical work is distributed.
///
/// Linear tile ids enumerate axis 1 fastest: ids t1()*i + j for one
/// axis-0 tile i are consecutive, so a pool chunk holding several tiles
/// revisits the same axis-0 range back to back and can stage it once.
class Grid2d {
 public:
  struct Range {
    int64_t lo, hi;
  };

  /// grain0/grain1 are per-tile floors: a tile never covers fewer than
  /// grainX indices of axis X unless the whole axis is smaller (grain
  /// <= 0 means 1). `threads` sizes the grid (usually
  /// ThreadPool::instance().threads()); 1 yields a single tile — the
  /// exact serial path.
  Grid2d(int64_t n0, int64_t n1, int64_t grain0, int64_t grain1, int threads)
      : n0_(n0 > 0 ? n0 : 0), n1_(n1 > 0 ? n1 : 0) {
    const int64_t want = threads > 1 ? threads : 1;
    const int64_t max0 = n0_ / (grain0 > 0 ? grain0 : 1);
    const int64_t max1 = n1_ / (grain1 > 0 ? grain1 : 1);
    t0_ = std::min<int64_t>(std::max<int64_t>(max0, 1), want);
    t1_ = t0_ >= want ? 1
                      : std::min<int64_t>(std::max<int64_t>(max1, 1), (want + t0_ - 1) / t0_);
    if (n0_ == 0 || n1_ == 0) t0_ = t1_ = 0;
  }

  int64_t tiles() const { return t0_ * t1_; }
  int64_t tiles0() const { return t0_; }
  int64_t tiles1() const { return t1_; }

  /// Linear tile id -> per-axis tile index (axis 1 fastest).
  int64_t tile0(int64_t t) const { return t / t1_; }
  int64_t tile1(int64_t t) const { return t % t1_; }

  /// Contiguous balanced [lo, hi) covered by axis-X tile i — the same
  /// base/remainder split the pool uses for its chunks.
  Range range0(int64_t i) const { return axis_range(i, n0_, t0_); }
  Range range1(int64_t i) const { return axis_range(i, n1_, t1_); }

 private:
  static Range axis_range(int64_t i, int64_t n, int64_t t) {
    const int64_t base = n / t, rem = n % t;
    const int64_t lo = i * base + (i < rem ? i : rem);
    return {lo, lo + base + (i < rem ? 1 : 0)};
  }

  int64_t n0_, n1_;
  int64_t t0_ = 0, t1_ = 0;
};

/// Fused 2-D parallel loop: fn(lo0, hi0, lo1, hi1) runs once per tile of
/// `grid`, tiles statically assigned to pool chunks in linear-id order.
/// Every (i, j) cell lands in exactly one tile, so disjoint-output work
/// is bit-identical for any thread count, including 1.
template <typename Fn>
inline void parallel_for_2d(const Grid2d& grid, Fn&& fn) {
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    for (int64_t t = t_lo; t < t_hi; ++t) {
      const Grid2d::Range r0 = grid.range0(grid.tile0(t));
      const Grid2d::Range r1 = grid.range1(grid.tile1(t));
      fn(r0.lo, r0.hi, r1.lo, r1.hi);
    }
  });
}

/// Convenience form: builds the grid from the live pool width.
template <typename Fn>
inline void parallel_for_2d(int64_t n0, int64_t n1, int64_t grain0, int64_t grain1, Fn&& fn) {
  parallel_for_2d(Grid2d(n0, n1, grain0, grain1, ThreadPool::instance().threads()),
                  static_cast<Fn&&>(fn));
}

}  // namespace shrinkbench
