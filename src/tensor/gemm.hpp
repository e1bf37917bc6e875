// Single-precision matrix multiplication.
//
// The linear layers run on this one routine (the conv kernels are direct
// and call no GEMM). The kernel is a cache-blocked ikj loop whose
// innermost loop vectorizes under -O3 -march=native; on the single-core
// reproduction host it is the difference between benches finishing in
// seconds vs. minutes.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace shrinkbench {

/// C[M,N] = alpha * op(A)[M,K] * op(B)[K,N] + beta * C[M,N]
/// op(X) = X or X^T depending on trans_a / trans_b. All matrices are
/// row-major with the given leading dimensions (elements per row).
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta, float* c,
          int64_t ldc);

/// out[M,N] = a[M,K] * b[K,N]; both inputs must be rank-2.
Tensor matmul(const Tensor& a, const Tensor& b);

/// out[M,N] = a[K,M]^T * b[K,N]
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// out[M,N] = a[M,K] * b[N,K]^T
Tensor matmul_nt(const Tensor& a, const Tensor& b);

}  // namespace shrinkbench
