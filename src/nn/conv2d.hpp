// 2-D convolution (NCHW). Weight shape: [out_c, in_c, kh, kw]. The eval
// forward convolves wide output planes directly from the input
// (nn/sparse.hpp) and lowers narrow ones onto GEMM; the backward lowers
// onto GEMM.
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

/// Narrowest output plane (in columns) that conv2d_eval convolves
/// directly. Below it the direct kernel's vectors run mostly empty and
/// the staged GEMM lowering is faster.
constexpr int64_t kDirectMinOutW = 8;

/// Eval convolution of x ([N, in_c, H, W], geometry g): weight is
/// [out_c, g.col_rows()] row-major, and the epilogue adds the bias, then
/// applies the ReLU when relu is set (v < 0 -> 0, as relu_inplace).
/// Returns [N, out_c, oh, ow]. Two lowerings share the fused (sample ×
/// out-channel-tile) grid, chosen by geometry alone:
///
/// - g.out_w() >= kDirectMinOutW: conv2d_direct_eval (nn/sparse.hpp)
///   convolves straight from zero-bordered phase planes of each sample,
///   taking every tap of every weight row.
/// - narrower outputs: each tile walks its samples in cache-sized blocks
///   (for_each_stage_block) and runs its weight rows' sub-GEMM on each
///   block's im2col columns while they are cache-hot.
///
/// Both start each output at +0.0 and take one fused multiply-add per
/// column-matrix row in ascending order, so for finite inputs they give
/// the same bits, at every thread count and SIMD tier. (That needs a
/// build that fuses a*b + c, as the default -O3 -march=native does on an
/// FMA host. A build that does not fuse matches only the scalar GEMM
/// tier; the avx2/avx512 tiers always fuse.) They differ on non-finite
/// inputs: the GEMM skips a column whose weights are +0 across its
/// micro-row group, and the direct path does not. So an Inf or NaN input
/// under such a column yields NaN on the direct path, and the GEMM
/// ignores it.
Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias, bool relu);

}  // namespace shrinkbench
