// Fully-connected layer: y = x W^T + b, weight shape [out, in].
//
// The forward, dW and dX run on one register-tiled product in
// linear_product.hpp, C = C0 + A·B with C's contiguous axis in the vector
// lanes (16 wide in an AVX-512 build, 8 otherwise). Each element starts
// at its seed and takes one multiply-add per term of the reduction, in
// ascending order:
//
// - forward: from the bias (+0.0 without one), over the input features;
// - dW: from its current grad, over the samples;
// - dX: from +0.0, over the output features.
//
// Every element is owned by one tile, so the bits are the same at every
// thread count and tile shape. Every term is multiplied, +0 weights and
// activations included, so:
// - an Inf or NaN input feature under a masked (+0) weight column makes
//   every output of that sample NaN, and one in dY reaches dX through a
//   masked weight row;
// - an element seeded -0.0 whose products are all zeros ends +0.0 if
//   any of them is +0.0.
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
/// [out_features, in], each output's chain starting from its bias
/// (bias == nullptr: from +0.0). Stages W^T in the calling thread's
/// workspace arena.
Tensor linear_eval(const Tensor& x, const float* weight, int64_t out_features, const float* bias);

}  // namespace shrinkbench
