#include "nn/linear.hpp"

#include <stdexcept>

#include "nn/linear_product.hpp"
#include "obs/profile.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

using linear_product::product;

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
  const int64_t n = cached_input_.size(0);
  if (grad_out.dim() != 2 || grad_out.size(0) != n || grad_out.size(1) != out_) {
    throw std::invalid_argument(name() + ": grad shape " + to_string(grad_out.shape()) +
                                " does not match output shape " + to_string({n, out_}));
  }
  if (obs::profiling_enabled()) obs::count("linear.macs", 2 * n * in_ * out_);
  const float* dy = grad_out.data();
  float* dw = weight_.grad.data();
  // dW += dYᵀ X, dYᵀ read in place: each element continues from its grad.
  product({.m = out_, .n = in_, .k = n, .a = dy, .a_row = 1, .a_col = out_,
           .b = cached_input_.data(), .ldb = in_, .c0 = dw, .ld0 = in_, .c = dw, .ldc = in_});
  if (has_bias_) {
    float* bg = bias_.grad.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < out_; ++j) bg[j] += dy[i * out_ + j];
    }
  }
  Tensor dx({n, in_});  // dX = dY W, from +0.0
  product({.m = n, .n = in_, .k = out_, .a = dy, .a_row = out_, .a_col = 1,
           .b = weight_.data.data(), .ldb = in_, .c0 = nullptr, .ld0 = 0, .c = dx.data(),
           .ldc = in_});
  return dx;
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
  if (obs::profiling_enabled()) obs::count("linear.macs", n * in * out_features);
  Tensor y({n, out_features});
  Workspace::Scope scope;
  float* wt = Workspace::tls().floats(static_cast<size_t>(in * out_features));  // Wᵀ [in, out]
  for (int64_t c = 0; c < in; ++c) {
    for (int64_t o = 0; o < out_features; ++o) wt[c * out_features + o] = weight[o * in + c];
  }
  product({.m = n, .n = out_features, .k = in, .a = x.data(), .a_row = in, .a_col = 1, .b = wt,
           .ldb = out_features, .c0 = bias, .ld0 = 0, .c = y.data(), .ldc = out_features});
  return y;
}

}  // namespace shrinkbench
