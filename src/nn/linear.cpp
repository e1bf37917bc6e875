#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/gemm.hpp"

namespace shrinkbench {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features, bool bias,
               bool is_classifier)
    : Layer(std::move(name)),
      in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_(this->name() + ".weight", {out_features, in_features}, /*prunable=*/true) {
  weight_.is_classifier = is_classifier;
  if (has_bias_) bias_ = Parameter(this->name() + ".bias", {out_features}, /*prunable=*/false);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  check_features(name(), x, in_);
  if (train) cached_input_ = x;
  return linear_eval(x, weight_.data.data(), out_, has_bias_ ? bias_.data.data() : nullptr);
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error(name() + ": backward before forward");
  const int64_t n = grad_out.size(0);
  // dW += dY^T X ; accumulate into existing grads.
  gemm(/*trans_a=*/true, /*trans_b=*/false, out_, in_, n, 1.0f, grad_out.data(), out_,
       cached_input_.data(), in_, 1.0f, weight_.grad.data(), in_);
  if (has_bias_) {
    float* bg = bias_.grad.data();
    const float* gp = grad_out.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < out_; ++j) bg[j] += gp[i * out_ + j];
    }
  }
  return matmul(grad_out, weight_.data);  // dX = dY W
}

void Linear::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Linear::output_sample_shape(const Shape& in) const {
  if (in.size() != 1 || in[0] != in_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  return {out_};
}

int64_t Linear::flops(const Shape& in) const {
  (void)in;
  return in_ * out_;
}

int64_t Linear::effective_flops(const Shape& in) const {
  (void)in;
  return ops::count_nonzero(weight_.mask);
}

void check_features(const std::string& who, const Tensor& x, int64_t in) {
  if (x.dim() != 2 || x.size(1) != in) {
    throw std::invalid_argument(who + ": expected input [N, " + std::to_string(in) + "], got " +
                                to_string(x.shape()));
  }
}

Tensor linear_eval(const Tensor& x, const float* weight, int64_t out_features, const float* bias) {
  const int64_t n = x.size(0), in = x.size(1);
  Tensor y({n, out_features});
  // y = x [N, in] * W^T [in, out] (+ bias). The bias add is fused into
  // the GEMM epilogue: pre-fill each output row with the bias and
  // accumulate (beta = 1) instead of overwriting and making a second
  // pass over y.
  if (bias != nullptr) {
    float* yp = y.data();
    for (int64_t i = 0; i < n; ++i) std::copy(bias, bias + out_features, yp + i * out_features);
  }
  gemm(false, /*trans_b=*/true, n, out_features, in, 1.0f, x.data(), in, weight, in,
       bias != nullptr ? 1.0f : 0.0f, y.data(), out_features);
  return y;
}

}  // namespace shrinkbench
