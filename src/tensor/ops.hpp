// Elementwise operations, reductions, and order statistics on Tensors.
//
// These are the building blocks shared by the NN layers (src/nn) and the
// pruning core (src/core). Everything operates on flat contiguous storage;
// shape-aware operations live in nn/linear.hpp, nn/conv2d.hpp and
// nn/sparse.hpp (the linear and conv kernels).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.hpp"

namespace shrinkbench::ops {

// ---- elementwise (shapes must match exactly) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
/// a += alpha * b
void axpy(Tensor& a, float alpha, const Tensor& b);
/// In-place a *= b (used for mask application).
void mul_inplace(Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float alpha);

Tensor scale(const Tensor& a, float alpha);
Tensor abs(const Tensor& a);
Tensor square(const Tensor& a);
/// Applies an arbitrary scalar function elementwise.
Tensor map(const Tensor& a, const std::function<float(float)>& f);

// ---- reductions ----
float sum(const Tensor& a);
float mean(const Tensor& a);
float min(const Tensor& a);
float max(const Tensor& a);
/// Sum of squares.
float sum_sq(const Tensor& a);
/// Number of elements with |x| > tol.
int64_t count_nonzero(const Tensor& a, float tol = 0.0f);

// ---- order statistics ----
/// Index of the maximum element (first on ties).
int64_t argmax(std::span<const float> values);
/// Indices of the k largest elements, in descending order of value.
std::vector<int64_t> topk_indices(std::span<const float> values, int64_t k);
/// The k-th smallest value (k is 0-based) — O(n) via nth_element.
/// Used by pruning allocators to find score thresholds.
float kth_smallest(std::vector<float> values, int64_t k);

// ---- comparisons (for tests) ----
/// Max |a - b| over all elements; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f, float rtol = 1e-5f);

}  // namespace shrinkbench::ops
