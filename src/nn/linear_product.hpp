// The register-tiled product behind Linear's forward, dW and dX (see
// linear.hpp for the chains each one runs):
//
//   C[m, n] = C0 + A·B
//
// with n, C's contiguous axis, in the vector lanes. The lane count and the
// rows per register tile are template parameters: Linear instantiates the
// build's width (kLanes, kRows below), and tests/test_gemm_kernels.cpp
// instantiates every width, so each one is checked on any host.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/threadpool.hpp"

namespace shrinkbench::linear_product {

// One vector of output columns per register-tile row, 16 wide with
// AVX-512 and 8 without (GCC vector extensions, as nn/conv2d.cpp's kernels
// use them), and kRows rows per tile: enough independent accumulators to
// hide the multiply-add latency without spilling (32 vector registers
// with AVX-512, 16 without).
#if defined(__AVX512F__)
constexpr int kLanes = 16;
constexpr int kRows = 16;
#else
constexpr int kLanes = 8;
constexpr int kRows = 12;
#endif

// A's element (i, p) is a[i * a_row + p * a_col], so A can be a row-major
// matrix or a transposed view of one; B is row-major [k, n] with rows ldb
// apart, C row-major with rows ldc apart. C0's row i starts at
// c0 + i * ld0 (ld0 = 0 seeds every row from one vector, c0 == nullptr
// from +0.0). C0 may alias C.
struct Product {
  int64_t m, n, k;
  const float* a;
  int64_t a_row, a_col;
  const float* b;
  int64_t ldb;
  const float* c0;
  int64_t ld0;
  float* c;
  int64_t ldc;
};

// The vector of Lanes floats (GCC takes no dependent vector_size, so
// each width is spelled out).
template <int Lanes>
struct VecOf;
template <>
struct VecOf<1> {
  using type = float __attribute__((vector_size(4)));
};
template <>
struct VecOf<8> {
  using type = float __attribute__((vector_size(32)));
};
template <>
struct VecOf<16> {
  using type = float __attribute__((vector_size(64)));
};
template <int Lanes>
using Vec = typename VecOf<Lanes>::type;

// v = the first `width` floats at p in the low lanes, the rest +0.0.
// (Written through a reference: a 16-lane vector returned by value from a
// non-AVX-512 build would change the ABI.)
template <int Lanes>
void load(Vec<Lanes>& v, const float* p, int64_t width) {
  v = Vec<Lanes>{};
  if (width == Lanes) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int64_t l = 0; l < width; ++l) v[l] = p[l];
  }
}

// One register tile: rows [i0, i0 + R) × the column vector at j0 (Full:
// all Lanes of its columns exist). Each element starts at its seed and
// takes one multiply-add per p in ascending order.
template <int Lanes, int R, bool Full>
void tile(const Product& pr, int64_t i0, int64_t j0) {
  const int64_t width = Full ? Lanes : pr.n - j0;
  Vec<Lanes> acc[R];
  for (int r = 0; r < R; ++r) {
    if (pr.c0 != nullptr) {
      load<Lanes>(acc[r], pr.c0 + (i0 + r) * pr.ld0 + j0, width);
    } else {
      acc[r] = Vec<Lanes>{};
    }
  }
  const float* a = pr.a + i0 * pr.a_row;
  const float* b = pr.b + j0;
  for (int64_t p = 0; p < pr.k; ++p, a += pr.a_col, b += pr.ldb) {
    Vec<Lanes> bv;
    load<Lanes>(bv, b, width);
    for (int r = 0; r < R; ++r) acc[r] += a[r * pr.a_row] * bv;
  }
  for (int r = 0; r < R; ++r) {
    std::memcpy(pr.c + (i0 + r) * pr.ldc + j0, &acc[r], static_cast<size_t>(width) * sizeof(float));
  }
}

// Rows [i0, i1) of one column vector: tiles of R rows, then the
// remainder in tiles of R/2, R/4, ..., 1 rows.
template <int Lanes, int R>
void tile_rows(const Product& pr, int64_t i0, int64_t i1, int64_t j0) {
  const bool full = j0 + Lanes <= pr.n;
  for (; i0 + R <= i1; i0 += R) {
    if (full) {
      tile<Lanes, R, true>(pr, i0, j0);
    } else {
      tile<Lanes, R, false>(pr, i0, j0);
    }
  }
  if constexpr (R > 1) tile_rows<Lanes, R / 2>(pr, i0, i1, j0);
}

// Row blocks of Rows fanned over the pool (a chunk carries at least 2^16
// multiply-adds); every element is owned by one tile, so the bits are the
// same at every thread count.
template <int Lanes = kLanes, int Rows = kRows>
void product(const Product& pr) {
  const int64_t blocks = (pr.m + Rows - 1) / Rows;
  parallel_for(0, blocks, work_grain(Rows * pr.k * pr.n), [&](int64_t b0, int64_t b1) {
    const int64_t i0 = b0 * Rows, i1 = std::min(pr.m, b1 * Rows);
    for (int64_t j0 = 0; j0 < pr.n; j0 += Lanes) tile_rows<Lanes, Rows>(pr, i0, i1, j0);
  });
}

}  // namespace shrinkbench::linear_product
