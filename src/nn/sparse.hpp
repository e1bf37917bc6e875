// Sparse (CSR) inference kernels and the direct convolution.
//
// The paper (§2.3) notes that unstructured pruning "may not be arranged in
// a fashion conducive to speedups using modern libraries and hardware" —
// parameter and FLOP counts are proxies, not wall-clock. This module holds
// the CSR half of the eval lowering: the CSR matrix, its matmul, and the
// CSR conv and linear kernels that the serving executor's Csr mode runs
// (serve/executor.hpp). It also holds the direct convolution driver that
// two callers share: it reads its input planes in place of an im2col
// matrix, so no dense-sized copy precedes the multiply-adds, and it
// applies its bias and a fused ReLU in registers. conv2d_csr_eval passes
// it CSR entries, one output row per register tile; conv2d_direct_eval
// passes dense weight rows, every tap of them, several output rows per
// tile, and conv2d_eval (nn/conv2d.hpp) routes its wide output planes
// there. bench/ablation_sparse_inference times one-layer Csr executors
// against Dense ones to locate the sparsity where sparse execution
// actually overtakes the dense kernels, and how far its wall-clock
// speedup stays below the theoretical one.
//
// Inference-only: backward is intentionally unsupported.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench {

/// Compressed sparse row matrix over float32.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;   // rows + 1 entries
  std::vector<int32_t> col_idx;   // nnz entries
  std::vector<float> values;      // nnz entries

  int64_t nnz() const { return static_cast<int64_t>(values.size()); }
  double density() const {
    return rows * cols == 0 ? 0.0 : static_cast<double>(nnz()) / (rows * cols);
  }
};

/// Builds CSR from a dense row-major matrix, dropping entries where
/// |value| <= tol (masked weights are exactly zero, so tol = 0 suffices).
/// NaN entries are kept, so a diverged weight poisons the product just
/// as it does in the dense kernels instead of silently vanishing.
CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols, float tol = 0.0f);

/// dense_out[rows, n] = csr[rows, cols] * dense_in[cols, n]; out must be
/// preallocated, is overwritten.
void csr_matmul(const CsrMatrix& csr, const float* dense_in, int64_t n, float* dense_out);

/// Reconstructs the dense matrix (for tests).
Tensor csr_to_dense(const CsrMatrix& csr);

/// CSR eval convolution of x ([N, in_c, H, W], geometry g) with weight
/// w [out_c, g.col_rows()], computed directly from the input: each
/// nonzero (o, c, kh, kw) adds its value times the shifted input plane c
/// into output plane o, read from a zero-bordered copy of the sample, so
/// no column matrix is built. Each output element starts at +0.0 and adds
/// its taps in ascending CSR entry order (csr_matmul's order, with
/// im2col's zeros under padding taps: NaN/Inf weights poison the borders
/// as the column formulation does), then the per-channel bias (nullptr:
/// none) and, when relu is set, relu_inplace's v < 0 -> 0. The work fans
/// out over a (sample × out-channel-tile) grid, so batch 1 also splits;
/// the output is bit-identical at every thread count. Returns
/// [N, out_c, oh, ow].
Tensor conv2d_csr_eval(const Tensor& x, const ConvGeometry& g, const CsrMatrix& w,
                       const float* bias, bool relu);

/// The same direct convolution over dense weight rows ([out_c,
/// g.col_rows()] row-major): every tap of a row is taken, a +0 weight
/// included, so the dense baseline never turns into a sparse kernel.
/// Dense rows share their taps, so a register tile spans several output
/// channels (4 with 512-bit vectors, 2 without) and each staged input
/// vector it loads feeds all of them; a channel tile that is not a
/// multiple of that ends in smaller blocks. Each output element still
/// starts at +0.0 and takes one multiply-add per column-matrix row in
/// ascending order — the column lowering's chain — then conv2d_eval's
/// epilogue (either bias form, then the ReLU), so the bits do not depend
/// on the block shape. Called by conv2d_eval for output planes at least
/// kDirectMinOutW wide.
Tensor conv2d_direct_eval(const Tensor& x, const ConvGeometry& g, const float* weight,
                          int64_t out_c, ConvBias bias, bool relu);

/// CSR eval fully-connected layer: y = x W^T + bias for x [N, w.cols]
/// (bias == nullptr: none). Returns [N, w.rows].
Tensor linear_csr_eval(const Tensor& x, const CsrMatrix& w, const float* bias);

}  // namespace shrinkbench
