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

/// Writes y [n, out_features] from per-row results, row r of sample i at
/// src[i * sample_stride + r * row_stride]: bias added to live outputs,
/// dead ones the fill constant (see OutputRows).
void linear_epilogue(const float* src, int64_t sample_stride, int64_t row_stride, int64_t n,
                     int64_t out_features, const OutputRows& out, float* y);

/// Eval fully-connected layer: y = x W^T + bias for x [N, in] and a
/// weight matrix of `rows` rows [rows, in]. The identity map (Linear and
/// the dense executor) fuses the bias into the GEMM (beta = 1); a packed
/// map (channel-shrunk executor) multiplies the live rows only and
/// scatters them through linear_epilogue.
Tensor linear_eval(const Tensor& x, const float* weight, int64_t rows, int64_t out_features,
                   const OutputRows& out);

}  // namespace shrinkbench
