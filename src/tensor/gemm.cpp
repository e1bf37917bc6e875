#include "tensor/gemm.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profile.hpp"
#include "tensor/simd.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// Cache-blocking parameters sized for typical L1/L2 on x86-64.
constexpr int64_t kBlockM = 64;
constexpr int64_t kBlockN = 256;
constexpr int64_t kBlockK = 256;

// Don't fan a GEMM out unless each chunk carries at least this many
// multiply-adds; below it the pool handoff costs more than it saves.
constexpr int64_t kMinMaddsPerChunk = int64_t{1} << 19;

// One contiguous range [g0, g1) of the jb-major (j0, i0) cache-block
// grid: packs blocks of op(A) (scaled by alpha) and op(B) into the
// thread-local arena and streams them through the block kernel. This is
// the unit both parallel schedules feed — gemm()'s own block-grid
// parallel_for, and the fused (sample × out-channel-tile) conv grid,
// whose tiles call gemm() from inside a pool chunk where it degrades to
// exactly this serial routine. Every C tile is produced whole, with p0
// blocks accumulated in ascending order, so results are bit-identical
// for any split.
void gemm_block_range(simd::BlockKernelFn kernel, bool trans_a, bool trans_b, int64_t m,
                      int64_t n, int64_t k, float alpha, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float* c, int64_t ldc, int64_t n_ib,
                      int64_t g0, int64_t g1) {
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* a_pack = ws.floats(static_cast<size_t>(kBlockM * kBlockK));
  float* b_pack = ws.floats(static_cast<size_t>(kBlockK * kBlockN));

  for (int64_t jb = g0 / n_ib; jb * n_ib < g1; ++jb) {
    const int64_t j0 = jb * kBlockN;
    const int64_t nb = std::min(kBlockN, n - j0);
    const int64_t ib_lo = std::max<int64_t>(g0 - jb * n_ib, 0);
    const int64_t ib_hi = std::min<int64_t>(g1 - jb * n_ib, n_ib);
    for (int64_t p0 = 0; p0 < k; p0 += kBlockK) {
      const int64_t kb = std::min(kBlockK, k - p0);
      // Pack op(B)[p0:p0+kb, j0:j0+nb].
      for (int64_t p = 0; p < kb; ++p) {
        float* dst = b_pack + p * nb;
        if (!trans_b) {
          const float* src = b + (p0 + p) * ldb + j0;
          std::copy(src, src + nb, dst);
        } else {
          for (int64_t j = 0; j < nb; ++j) dst[j] = b[(j0 + j) * ldb + (p0 + p)];
        }
      }
      for (int64_t ib = ib_lo; ib < ib_hi; ++ib) {
        const int64_t i0 = ib * kBlockM;
        const int64_t mb = std::min(kBlockM, m - i0);
        // Pack alpha * op(A)[i0:i0+mb, p0:p0+kb].
        for (int64_t i = 0; i < mb; ++i) {
          float* dst = a_pack + i * kb;
          if (!trans_a) {
            const float* src = a + (i0 + i) * lda + p0;
            for (int64_t p = 0; p < kb; ++p) dst[p] = alpha * src[p];
          } else {
            for (int64_t p = 0; p < kb; ++p) dst[p] = alpha * a[(p0 + p) * lda + (i0 + i)];
          }
        }
        kernel(mb, nb, kb, a_pack, kb, b_pack, nb, c + i0 * ldc + j0, ldc);
      }
    }
  }
}

}  // namespace

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          int64_t lda, const float* b, int64_t ldb, float beta, float* c, int64_t ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("gemm: negative dimension");
  if (obs::profiling_enabled()) obs::count("gemm.calls");

  // Scale / clear C first: C = beta * C. Rows are disjoint, so the
  // partition cannot change any element's value.
  if (beta != 1.0f && m > 0) {
    const int64_t row_grain = std::max<int64_t>(1, (int64_t{1} << 16) / std::max<int64_t>(n, 1));
    parallel_for(0, m, row_grain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * ldc;
        if (beta == 0.0f) {
          std::fill(crow, crow + n, 0.0f);
        } else {
          for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
        }
      }
    });
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  // Counted after the early return: an alpha == 0 or zero-dimension call
  // does no multiply-adds, and crediting it 2*m*n*k would inflate the
  // profiler's FLOP totals with work that never ran.
  if (obs::profiling_enabled()) {
    obs::count("gemm.elements", m * n);
    obs::count("gemm.flops", 2 * m * n * k);  // one multiply-add per (i,j,p)
  }

  const simd::BlockKernelFn kernel = simd::active_block_kernel();

  // The (j0, i0) cache-block grid is the unit of parallelism: every C
  // tile is produced by exactly one chunk, which accumulates its p0
  // blocks in the same order as the sequential loop, so the result is
  // bit-identical for any thread count. Chunks are jb-major (g = jb *
  // n_ib + ib) so a chunk holding several row blocks of one column
  // panel still packs op(B) once per (jb, p0), exactly like the serial
  // code; only panels split across chunks repack, a ~1/64 overhead.
  // When this gemm already runs inside a fused-grid tile (conv forward),
  // parallel_for degrades to inline and the whole grid runs serial here.
  const int64_t n_jb = (n + kBlockN - 1) / kBlockN;
  const int64_t n_ib = (m + kBlockM - 1) / kBlockM;
  const int64_t madds_per_pair = std::min(kBlockM, m) * std::min(kBlockN, n) * k;
  const int64_t grain =
      std::max<int64_t>(1, kMinMaddsPerChunk / std::max<int64_t>(madds_per_pair, 1));

  parallel_for(0, n_jb * n_ib, grain, [&](int64_t g0, int64_t g1) {
    gemm_block_range(kernel, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc, n_ib, g0,
                     g1);
  });
}

namespace {
Tensor matmul_impl(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::invalid_argument("matmul: both inputs must be rank-2, got " + to_string(a.shape()) +
                                " and " + to_string(b.shape()));
  }
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t ka = trans_a ? a.size(0) : a.size(1);
  const int64_t kb = trans_b ? b.size(1) : b.size(0);
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimensions differ: " + to_string(a.shape()) +
                                " x " + to_string(b.shape()));
  }
  Tensor out({m, n});
  gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.size(1), b.data(), b.size(1), 0.0f,
       out.data(), n);
  return out;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) { return matmul_impl(a, b, false, false); }
Tensor matmul_tn(const Tensor& a, const Tensor& b) { return matmul_impl(a, b, true, false); }
Tensor matmul_nt(const Tensor& a, const Tensor& b) { return matmul_impl(a, b, false, true); }

}  // namespace shrinkbench
