#include "nn/residual.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "tensor/ops.hpp"

namespace shrinkbench {

ResidualBlock::ResidualBlock(std::string name, std::unique_ptr<Sequential> main,
                             std::unique_ptr<Sequential> shortcut, bool final_relu)
    : Layer(std::move(name)),
      main_(std::move(main)),
      shortcut_(std::move(shortcut)),
      final_relu_(final_relu) {
  if (!main_) throw std::invalid_argument("ResidualBlock: main path must not be null");
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main_out = main_->forward(x, train);
  ops::add_inplace(main_out, shortcut_ ? shortcut_->forward(x, train) : x);
  if (final_relu_) relu_inplace(main_out);
  if (train) cached_sum_ = main_out;
  return main_out;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  if (cached_sum_.empty()) throw std::logic_error(name() + ": backward before forward");
  Tensor g = grad_out;
  if (final_relu_) {
    // ReLU backward on the summed activation.
    const float* y = cached_sum_.data();
    float* gp = g.data();
    for (int64_t i = 0, n = g.numel(); i < n; ++i) {
      if (y[i] <= 0.0f) gp[i] = 0.0f;
    }
  }
  Tensor dx = main_->backward(g);
  if (shortcut_) {
    ops::add_inplace(dx, shortcut_->backward(g));
  } else {
    ops::add_inplace(dx, g);
  }
  return dx;
}

void ResidualBlock::collect_params(std::vector<Parameter*>& out) {
  main_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

std::vector<Layer*> ResidualBlock::children() {
  std::vector<Layer*> out{main_.get()};
  if (shortcut_) out.push_back(shortcut_.get());
  return out;
}

Shape ResidualBlock::output_sample_shape(const Shape& in) const {
  return main_->output_sample_shape(in);
}

int64_t ResidualBlock::flops(const Shape& in) const {
  return main_->flops(in) + (shortcut_ ? shortcut_->flops(in) : 0);
}

int64_t ResidualBlock::effective_flops(const Shape& in) const {
  return main_->effective_flops(in) + (shortcut_ ? shortcut_->effective_flops(in) : 0);
}

}  // namespace shrinkbench
