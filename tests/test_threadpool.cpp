// Thread-pool runtime tests: partition exactness, the serial fast paths,
// nesting and SerialGuard behaviour, exception propagation, pool
// reconfiguration, and bit-determinism of the parallelised tensor
// primitives (elementwise ops, Linear, im2col/col2im) across thread counts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/linear.hpp"
#include "obs/telemetry.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/threadpool.hpp"

namespace shrinkbench {
namespace {

// Restores the pool size after each test so later tests in this binary
// run under the SB_THREADS environment ctest configured.
struct PoolFixture : ::testing::Test {
  int original = ThreadPool::instance().threads();
  void TearDown() override { ThreadPool::instance().set_threads(original); }
};

Tensor random_tensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(PoolFixture, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 3, 4, 7}) {
    ThreadPool::instance().set_threads(threads);
    for (const int64_t n : {int64_t{1}, int64_t{2}, int64_t{63}, int64_t{1000}, int64_t{4097}}) {
      // Chunks cover disjoint index ranges, so these writes never race.
      std::vector<int> hits(static_cast<size_t>(n), 0);
      parallel_for(0, n, 1, [&](int64_t b, int64_t e) {
        ASSERT_LT(b, e);
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
      });
      for (const int h : hits) ASSERT_EQ(h, 1);
    }
  }
}

TEST_F(PoolFixture, GrainBoundsChunkSize) {
  ThreadPool::instance().set_threads(4);
  std::vector<int> hits(100, 0);
  std::vector<int64_t> sizes;
  std::mutex mu;
  parallel_for(0, 100, 30, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    sizes.push_back(e - b);
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  // 100 indices at grain 30 form at most 3 chunks, each >= 30 indices.
  EXPECT_LE(sizes.size(), 3u);
  for (const int64_t s : sizes) EXPECT_GE(s, 30);
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST_F(PoolFixture, SingleThreadRunsInlineAsOneChunk) {
  ThreadPool::instance().set_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(0, 100000, 1, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100000);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(PoolFixture, RangeBelowTwoGrainsStaysOnCallingThread) {
  ThreadPool::instance().set_threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(0, 9, 5, [&](int64_t, int64_t) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(PoolFixture, EmptyRangeNeverInvokesBody) {
  ThreadPool::instance().set_threads(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  parallel_for(5, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(PoolFixture, NestedParallelForRunsInline) {
  ThreadPool::instance().set_threads(4);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  parallel_for(0, 8, 1, [&](int64_t, int64_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    int inner_calls = 0;
    parallel_for(0, 1000, 1, [&](int64_t b, int64_t e) {
      ++inner_calls;
      EXPECT_EQ(b, 0);
      EXPECT_EQ(e, 1000);
    });
    EXPECT_EQ(inner_calls, 1);  // inner level degrades to one serial chunk
  });
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST_F(PoolFixture, SerialGuardForcesInlineExecution) {
  ThreadPool::instance().set_threads(4);
  {
    ThreadPool::SerialGuard guard;
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    int calls = 0;
    parallel_for(0, 100000, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 1);
  }
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST_F(PoolFixture, ChunkExceptionPropagatesAndPoolSurvives) {
  ThreadPool::instance().set_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100000, 1, [](int64_t, int64_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST_F(PoolFixture, SetThreadsValidatesAndReconfigures) {
  EXPECT_THROW(ThreadPool::instance().set_threads(0), std::invalid_argument);
  ThreadPool::instance().set_threads(2);
  EXPECT_EQ(ThreadPool::instance().threads(), 2);
  ThreadPool::instance().set_threads(5);
  EXPECT_EQ(ThreadPool::instance().threads(), 5);
  std::vector<int> hits(500, 0);
  parallel_for(0, 500, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

// ---- Bit-determinism of the parallelised primitives ----

TEST_F(PoolFixture, ElementwiseOpsBitIdenticalAcrossThreadCounts) {
  const Tensor a = random_tensor({400000}, 3);
  const Tensor b = random_tensor({400000}, 4);

  const auto run_all = [&] {
    Tensor r = ops::add(a, b);
    ops::mul_inplace(r, b);
    ops::axpy(r, 0.37f, a);
    ops::scale_inplace(r, 1.0f / 3.0f);
    return ops::sub(r, b);
  };
  ThreadPool::instance().set_threads(1);
  const Tensor serial = run_all();
  for (const int threads : {2, 4, 7}) {
    ThreadPool::instance().set_threads(threads);
    EXPECT_TRUE(same_bits(serial, run_all())) << "threads=" << threads;
  }
}

TEST_F(PoolFixture, LinearBitIdenticalAcrossThreadCounts) {
  // Large enough that every product's row blocks form several chunks
  // per pool size: forward (bias seed), dW (continuing a nonzero grad)
  // and dX (from +0.0).
  const int64_t n = 130, in = 190, out = 300;
  const Tensor x = random_tensor({n, in}, 5);
  const Tensor dy = random_tensor({n, out}, 6);
  const auto step = [&] {
    Linear fc("fc", in, out);
    fc.weight().data = random_tensor({out, in}, 7);
    fc.bias()->data = random_tensor({out}, 8);
    fc.weight().grad = random_tensor({out, in}, 9);
    std::vector<Tensor> r{fc.forward(x, /*train=*/true)};
    r.push_back(fc.backward(dy));
    r.push_back(fc.weight().grad);
    r.push_back(fc.bias()->grad);
    return r;
  };
  ThreadPool::instance().set_threads(1);
  const std::vector<Tensor> serial = step();
  for (const int threads : {2, 3, 4}) {
    ThreadPool::instance().set_threads(threads);
    const std::vector<Tensor> got = step();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bits(serial[i], got[i])) << "threads=" << threads << " result " << i;
    }
  }
}

TEST_F(PoolFixture, Im2colCol2imBitIdenticalAcrossThreadCounts) {
  const ConvGeometry g{/*in_c=*/32, /*in_h=*/34, /*in_w=*/34,
                       /*kernel_h=*/3, /*kernel_w=*/3, /*stride=*/1, /*pad=*/1};
  const Tensor image = random_tensor({g.in_c, g.in_h, g.in_w}, 12);
  const int64_t cols_numel = g.col_rows() * g.col_cols();

  const auto lower = [&] {
    Tensor cols({cols_numel});
    im2col(g, image.data(), cols.data());
    return cols;
  };
  const auto scatter = [&](const Tensor& cols) {
    Tensor out({g.in_c, g.in_h, g.in_w});
    col2im(g, cols.data(), out.data());
    return out;
  };

  ThreadPool::instance().set_threads(1);
  const Tensor cols_serial = lower();
  const Tensor image_serial = scatter(cols_serial);
  for (const int threads : {2, 4}) {
    ThreadPool::instance().set_threads(threads);
    EXPECT_TRUE(same_bits(cols_serial, lower())) << "threads=" << threads;
    EXPECT_TRUE(same_bits(image_serial, scatter(cols_serial))) << "threads=" << threads;
  }
}

// ---- Fused 2-D grid (Grid2d / parallel_for_2d) ----

TEST_F(PoolFixture, Grid2dCoversEveryCellExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    ThreadPool::instance().set_threads(threads);
    for (const auto& [n0, n1, g0, g1] :
         {std::array<int64_t, 4>{1, 16, 1, 4}, {7, 12, 1, 4}, {32, 5, 1, 1}, {4, 4, 2, 2},
          {1, 1, 1, 1}, {13, 31, 3, 7}}) {
      std::vector<int> hits(static_cast<size_t>(n0 * n1), 0);
      // Tiles cover disjoint (i, j) rectangles, so these writes never race.
      parallel_for_2d(n0, n1, g0, g1, [&](int64_t lo0, int64_t hi0, int64_t lo1, int64_t hi1) {
        for (int64_t i = lo0; i < hi0; ++i) {
          for (int64_t j = lo1; j < hi1; ++j) ++hits[static_cast<size_t>(i * n1 + j)];
        }
      });
      for (const int h : hits) {
        ASSERT_EQ(h, 1) << "n0=" << n0 << " n1=" << n1 << " threads=" << threads;
      }
    }
  }
}

TEST_F(PoolFixture, Grid2dSplitsAxis0First) {
  // Enough samples for every pool slot: axis 1 must not split, so the
  // per-tile staging cost is paid exactly once per sample.
  const Grid2d batched(/*n0=*/32, /*n1=*/16, 1, 4, /*threads=*/4);
  EXPECT_EQ(batched.tiles0(), 4);
  EXPECT_EQ(batched.tiles1(), 1);

  // Batch below the pool width: the channel axis supplies the missing
  // parallelism (the batch-1 serving case).
  const Grid2d starved(/*n0=*/1, /*n1=*/16, 1, 4, /*threads=*/4);
  EXPECT_EQ(starved.tiles0(), 1);
  EXPECT_EQ(starved.tiles1(), 4);

  const Grid2d half(/*n0=*/2, /*n1=*/16, 1, 4, /*threads=*/4);
  EXPECT_EQ(half.tiles0(), 2);
  EXPECT_EQ(half.tiles1(), 2);

  // threads=1 is always the exact serial path: one tile.
  const Grid2d serial(/*n0=*/32, /*n1=*/16, 1, 4, /*threads=*/1);
  EXPECT_EQ(serial.tiles(), 1);
}

TEST_F(PoolFixture, Grid2dHonorsGrainFloors) {
  // grain1=4 caps the channel split at n1/4 tiles even when the pool
  // wants more; no tile may cover fewer than grain indices of its axis.
  const Grid2d grid(/*n0=*/1, /*n1=*/6, 1, 4, /*threads=*/8);
  EXPECT_EQ(grid.tiles0(), 1);
  EXPECT_EQ(grid.tiles1(), 1);  // 6 / 4 = 1 tile: splitting would go below the floor

  const Grid2d wide(/*n0=*/1, /*n1=*/64, 1, 4, /*threads=*/8);
  EXPECT_EQ(wide.tiles1(), 8);
  for (int64_t i = 0; i < wide.tiles1(); ++i) {
    const Grid2d::Range r = wide.range1(i);
    EXPECT_GE(r.hi - r.lo, 4) << "tile " << i;
  }

  // Empty axes yield an empty grid and the body never runs.
  const Grid2d empty(/*n0=*/0, /*n1=*/16, 1, 1, /*threads=*/4);
  EXPECT_EQ(empty.tiles(), 0);
  int calls = 0;
  parallel_for_2d(empty, [&](int64_t, int64_t, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(PoolFixture, Grid2dTileIdsEnumerateAxis1Fastest) {
  // Consecutive tile ids within one axis-0 row must share that row's
  // sample range — the property the conv forward relies on to stage
  // im2col once per row per chunk.
  const Grid2d grid(/*n0=*/3, /*n1=*/32, 1, 4, /*threads=*/8);
  ASSERT_GT(grid.tiles1(), 1);
  for (int64_t t = 0; t + 1 < grid.tiles(); ++t) {
    if (grid.tile0(t) == grid.tile0(t + 1)) {
      EXPECT_EQ(grid.tile1(t) + 1, grid.tile1(t + 1));
      const Grid2d::Range a = grid.range0(grid.tile0(t));
      const Grid2d::Range b = grid.range0(grid.tile0(t + 1));
      EXPECT_EQ(a.lo, b.lo);
      EXPECT_EQ(a.hi, b.hi);
    }
  }
}

TEST_F(PoolFixture, TelemetrySamplerSeesPoolActivity) {
  // The pool registers its utilization hook with obs at static init;
  // with telemetry switched on, fan-outs must show up in the sample and
  // the busy clocks must advance for every participating slot.
  ThreadPool::instance().set_threads(2);
  obs::set_telemetry_enabled(true);
  const obs::PoolSample before = [] {
    obs::Telemetry& t = obs::Telemetry::instance();
    t.sample_once();  // also proves sample_once survives pool traffic
    obs::PoolSample s;
    s.jobs = static_cast<int64_t>(t.series().at("pool.jobs").back().value);
    return s;
  }();

  std::atomic<int64_t> sum{0};
  parallel_for(0, 1 << 16, 1, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });

  obs::Telemetry& t = obs::Telemetry::instance();
  t.sample_once();
  const auto series = t.series();
  const int64_t jobs_after = static_cast<int64_t>(series.at("pool.jobs").back().value);
  EXPECT_GT(jobs_after, before.jobs);
  EXPECT_EQ(sum.load(), (int64_t{1} << 15) * ((int64_t{1} << 16) - 1));

  obs::set_telemetry_enabled(false);
  ASSERT_TRUE(series.count("pool.busy_frac"));
  const double busy = series.at("pool.busy_frac").back().value;
  EXPECT_GE(busy, 0.0);
  EXPECT_LE(busy, 1.0);
}

}  // namespace
}  // namespace shrinkbench
