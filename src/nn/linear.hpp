// Fully-connected layer: y = x W^T + b, weight shape [out, in].
#pragma once

#include "nn/layer.hpp"

namespace shrinkbench {

class Linear : public Layer {
 public:
  /// If is_classifier, the weight is flagged so pruning strategies skip it
  /// by default (paper, Appendix C.1).
  Linear(std::string name, int64_t in_features, int64_t out_features, bool bias = true,
         bool is_classifier = false);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  Shape output_sample_shape(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  int64_t effective_flops(const Shape& in) const override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 private:
  int64_t in_, out_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// Throws std::invalid_argument naming `who` unless x is [N, in].
void check_features(const std::string& who, const Tensor& x, int64_t in);

/// Eval fully-connected layer: y = x W^T + bias for x [N, in] and weight
/// [out_features, in], the bias add fused into the GEMM (bias == nullptr:
/// none).
Tensor linear_eval(const Tensor& x, const float* weight, int64_t out_features, const float* bias);

}  // namespace shrinkbench
