#include "nn/activations.hpp"

#include <stdexcept>

namespace shrinkbench {

void relu_inplace(Tensor& x) {
  for (float& v : x.flat()) {
    if (v < 0.0f) v = 0.0f;
  }
}

Tensor relu(Tensor x) {
  relu_inplace(x);
  return x;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = relu(x);
  if (train) cached_output_ = y;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) throw std::logic_error(name() + ": backward before forward");
  Tensor dx = grad_out;
  const float* y = cached_output_.data();
  float* d = dx.data();
  for (int64_t i = 0, n = dx.numel(); i < n; ++i) {
    if (y[i] <= 0.0f) d[i] = 0.0f;
  }
  return dx;
}

}  // namespace shrinkbench
