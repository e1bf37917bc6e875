// Sparse (CSR) inference kernels.
//
// The paper (§2.3) notes that unstructured pruning "may not be arranged in
// a fashion conducive to speedups using modern libraries and hardware" —
// parameter and FLOP counts are proxies, not wall-clock. This module holds
// the CSR half of the eval lowering: the CSR matrix, its matmul, and the
// CSR conv and linear kernels that the serving executor's Csr mode runs
// (serve/executor.hpp). The CSR conv shares the dense one's epilogue
// (conv_epilogue), so it differs from its dense twin only in the matrix
// product. bench/ablation_sparse_inference times one-layer Csr executors
// against Dense ones to locate the sparsity where sparse execution
// actually overtakes the dense kernels (typically far above the 50-75% a
// "2-4x compression" headline suggests).
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
/// w [out_c, g.col_rows()]: for each cache-sized sample block
/// (for_each_stage_block), one csr_matmul (which already fans out over its
/// rows, so batch 1 saturates the pool without the fused grid) and
/// conv_epilogue with a per-channel bias (nullptr: none). Returns
/// [N, out_c, oh, ow].
Tensor conv2d_csr_eval(const Tensor& x, const ConvGeometry& g, const CsrMatrix& w,
                       const float* bias);

/// CSR eval fully-connected layer: y = x W^T + bias for x [N, w.cols]
/// (bias == nullptr: none). Returns [N, w.rows].
Tensor linear_csr_eval(const Tensor& x, const CsrMatrix& w, const float* bias);

}  // namespace shrinkbench
