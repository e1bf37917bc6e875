// Pointwise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace shrinkbench {

class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_sample_shape(const Shape& in) const override { return in; }

 private:
  Tensor cached_output_;  // relu'(x) = 1[y > 0]; the output suffices
};

/// max(x, 0) elementwise: in place, and on a copy.
void relu_inplace(Tensor& x);
Tensor relu(Tensor x);

}  // namespace shrinkbench
