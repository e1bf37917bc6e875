#include "nn/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols, float tol) {
  // col_idx is int32_t; wider matrices would silently wrap the indices.
  if (cols > std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument("csr_from_dense: cols " + std::to_string(cols) +
                                " exceeds int32 column-index range");
  }
  CsrMatrix csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.resize(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = dense + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      if (!(std::fabs(row[c]) <= tol)) {  // keeps NaN
        csr.col_idx.push_back(static_cast<int32_t>(c));
        csr.values.push_back(row[c]);
      }
    }
    csr.row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(csr.values.size());
  }
  return csr;
}

void csr_matmul(const CsrMatrix& csr, const float* dense_in, int64_t n, float* dense_out) {
  // Rows are independent (each writes only its own out_row and reduces in
  // ascending-entry order within itself), so fanning out over static
  // contiguous row blocks is bit-identical to the serial loop for every
  // SB_THREADS — the thread-pool determinism contract. Grain is sized by
  // the average row's multiply-add work.
  const int64_t avg_row_work =
      csr.rows == 0 ? 0 : (csr.nnz() * n) / std::max<int64_t>(csr.rows, 1) + n;
  parallel_for(0, csr.rows, work_grain(avg_row_work), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* out_row = dense_out + r * n;
      std::fill(out_row, out_row + n, 0.0f);
      const int64_t begin = csr.row_ptr[static_cast<size_t>(r)];
      const int64_t end = csr.row_ptr[static_cast<size_t>(r) + 1];
      for (int64_t e = begin; e < end; ++e) {
        const float v = csr.values[static_cast<size_t>(e)];
        const float* in_row = dense_in + csr.col_idx[static_cast<size_t>(e)] * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += v * in_row[j];
      }
    }
  });
}

Tensor csr_to_dense(const CsrMatrix& csr) {
  Tensor dense({csr.rows, csr.cols});
  for (int64_t r = 0; r < csr.rows; ++r) {
    for (int64_t e = csr.row_ptr[static_cast<size_t>(r)];
         e < csr.row_ptr[static_cast<size_t>(r) + 1]; ++e) {
      dense(r, csr.col_idx[static_cast<size_t>(e)]) = csr.values[static_cast<size_t>(e)];
    }
  }
  return dense;
}

Tensor conv2d_csr_eval(const Tensor& x, const ConvGeometry& g, const CsrMatrix& w,
                       const float* bias) {
  const int64_t out_c = w.rows;
  const int64_t spatial = g.col_cols();
  Tensor y({x.size(0), out_c, g.out_h(), g.out_w()});
  // Scratch lives in the thread-local arena: after warm-up, steady-state
  // forwards perform zero heap allocations.
  Workspace& ws = Workspace::tls();
  for_each_stage_block(x, g, {0, x.size(0)}, [&](Grid2d::Range b, const float* cols,
                                                 int64_t ld) {
    Workspace::Scope out_scope;
    float* out_cm = ws.floats(static_cast<size_t>(out_c * ld));
    csr_matmul(w, cols, ld, out_cm);
    parallel_for(b.lo, b.hi, work_grain(out_c * spatial), [&](int64_t n0, int64_t n1) {
      conv_epilogue(out_cm + (n0 - b.lo) * spatial, ld, {n0, n1}, {0, out_c}, out_c, spatial,
                    {bias}, y.data());
    });
  });
  return y;
}

Tensor linear_csr_eval(const Tensor& x, const CsrMatrix& w, const float* bias) {
  const int64_t n = x.size(0), in = w.cols;
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  // Transpose x to [in, n] so CSR rows stream over the batch dimension.
  float* xt = ws.floats(static_cast<size_t>(in * n));
  const float* xp = x.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < in; ++j) xt[j * n + i] = xp[i * in + j];
  }
  float* yt = ws.floats(static_cast<size_t>(w.rows * n));
  csr_matmul(w, xt, n, yt);
  Tensor y({n, w.rows});
  float* yp = y.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < w.rows; ++j) {
      yp[i * w.rows + j] = bias != nullptr ? yt[j * n + i] + bias[j] : yt[j * n + i];
    }
  }
  return y;
}

}  // namespace shrinkbench
