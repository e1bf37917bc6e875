// 2-D convolution (NCHW) lowered onto GEMM. Weight shape: [out_c, in_c, kh, kw].
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace shrinkbench {

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride = 1,
         int64_t pad = 0, bool bias = false);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  Shape output_sample_shape(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  int64_t effective_flops(const Shape& in) const override;

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return pad_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 private:
  ConvGeometry geometry(int64_t h, int64_t w) const;

  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// Validates an NCHW conv input (rank, channel count, non-empty output)
/// and returns its lowering geometry; errors name `who`.
ConvGeometry conv_geometry(const std::string& who, const Tensor& x, int64_t in_c, int64_t kernel,
                           int64_t stride, int64_t pad);

/// Bias of the eval conv epilogue: data[c] for output channel c or, when
/// per_position, the plane data[c * oh*ow + sp] (the channel-shrunk
/// executor's border-dependent constant term); nullptr adds nothing.
struct ConvBias {
  const float* data = nullptr;
  bool per_position = false;
};

/// Floor on output channels per fused-grid tile of the eval convs: below
/// it a tile's few output planes no longer pay for restaging its samples.
/// Only reached at batch sizes below the pool width, where the channel
/// axis is the only parallelism left.
constexpr int64_t kMinOcPerTile = 4;

/// Eval convolution of x ([N, in_c, H, W], geometry g) over the fused
/// (sample × out-channel-tile) grid. Each tile walks its samples in
/// cache-sized blocks (for_each_stage_block) and runs its weight rows'
/// sub-GEMM plus the epilogue (bias, then ReLU when relu is set) on each
/// block while the columns are cache-hot, at every thread count. weight
/// is [out_c, g.col_rows()] row-major. Returns [N, out_c, oh, ow].
Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias, bool relu);

}  // namespace shrinkbench
