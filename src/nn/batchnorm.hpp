// Batch normalization over [N, C, H, W] inputs (per-channel statistics).
#pragma once

#include "nn/layer.hpp"

namespace shrinkbench {

class BatchNorm2d : public Layer {
 public:
  BatchNorm2d(std::string name, int64_t channels, float eps = 1e-5f, float momentum = 0.1f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  Shape output_sample_shape(const Shape& in) const override;

  /// Running statistics are state, not trainable parameters; exposed for
  /// checkpointing.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// Affine parameters and epsilon, exposed so the serving compiler can
  /// fold eval-mode BN into the preceding conv/linear.
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  float eps() const { return eps_; }

 private:
  int64_t channels_;
  float eps_, momentum_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Forward caches (training mode).
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

/// Normalize pass of batch norm over x [N, C, H, W] with per-channel
/// constants: y = gamma * x̂ + beta, x̂ = (x - mean) * inv_std. x̂ is also
/// stored into `xhat` when non-null (the training cache).
Tensor batchnorm_normalize(const Tensor& x, const float* mean, const float* inv_std,
                           const float* gamma, const float* beta, float* xhat = nullptr);

}  // namespace shrinkbench
