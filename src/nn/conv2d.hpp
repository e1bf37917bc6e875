// 2-D convolution (NCHW). Weight shape: [out_c, in_c, kh, kw]. The eval
// forward and the backward convolve directly from the input planes, with
// no column matrix or matrix product: wide output planes through nn/sparse.hpp's
// row-vector kernel, narrow ones and both gradients with the channels in
// the vector lanes.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace shrinkbench {

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride = 1,
         int64_t pad = 0, bool bias = false);

  Tensor forward(const Tensor& x, bool train) override;

  /// Adds dW (and the bias gradient) into the parameters' grads and
  /// returns dX, by two direct kernels over the cached input and dY:
  ///
  /// - dW: output channels in the vector lanes, column-matrix rows
  ///   (c, kh, kw) register-blocked. Each element continues from its
  ///   current grad value with one multiply-add per output position, in
  ///   ascending (sample, oy, ox) order, reading zero-bordered input
  ///   planes — the chain of the column formulation's dW += dY · colsᵀ.
  /// - dX: input channels in the vector lanes, samples register-blocked.
  ///   Each pixel starts at +0.0 and adds, in col2im's (kh, kw) order,
  ///   one term per tap that reads it; each term is the out-channel chain
  ///   of Wᵀ·dY, one multiply-add per out channel from +0.0.
  ///
  /// Every element is owned by one tile, so the bits are the same at
  /// every thread count and equal the column formulation's (im2col, the
  /// ascending-chain products, col2im). Every term is multiplied, +0
  /// ones included, so:
  /// - an Inf or NaN in x reaches dW even where dY is +0 across every
  ///   channel, and one in dY reaches dX even through a masked (+0)
  ///   filter;
  /// - a dW element that starts at -0.0 and whose every product is a
  ///   zero ends +0.0 if any product is +0.0.
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

/// Narrowest output plane (in columns) that conv2d_eval convolves with
/// the row-vector kernel. Below it those vectors run mostly empty, and
/// putting the out channels in the lanes fills them instead.
constexpr int64_t kDirectMinOutW = 8;

/// Eval convolution of x ([N, in_c, H, W], geometry g): weight is
/// [out_c, g.col_rows()] row-major, and the epilogue adds the bias, then
/// applies the ReLU when relu is set (v < 0 -> 0, as relu_inplace).
/// Returns [N, out_c, oh, ow]. Two direct kernels, chosen by geometry
/// alone, each taking every tap of every weight row, +0 weights included:
///
/// - g.out_w() >= kDirectMinOutW: conv2d_direct_eval (nn/sparse.hpp)
///   convolves straight from zero-bordered phase planes of each sample,
///   output columns in the vector lanes, over the fused (sample ×
///   out-channel-tile) grid; each register tile covers rows of up to 4
///   output channels, so one input vector load feeds them all.
/// - narrower outputs: output channels in the vector lanes (8, 16 or
///   pairs of 16), output positions flattened over (sample, oy, ox) and
///   register-blocked 8 at a time, reading zero-bordered input planes
///   (x itself when the conv adds no border), over a (position block ×
///   out-channel group) grid; results are stored through 8×8 register
///   transposes.
///
/// Both start each output at +0.0 and take one multiply-add per
/// column-matrix row in ascending order — the chain of the column
/// lowering (im2col, then W · cols) — however many outputs a register
/// tile holds, so the tile shapes never change the bits. Every output is
/// owned by one tile, so the bits are the same at every thread count.
/// Whether a multiply-add is fused is the build's choice, the same for
/// every kernel (the default -O3 -march=native fuses on an FMA host).
/// Every term is multiplied, so an Inf or NaN under a +0 weight yields
/// NaN.
Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias, bool relu);

}  // namespace shrinkbench
