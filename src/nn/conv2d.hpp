// 2-D convolution (NCHW) lowered onto GEMM. Weight shape: [out_c, in_c, kh, kw].
#pragma once

#include <algorithm>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

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

/// Conv epilogue: writes the y[i, c] planes (y is [N, out_c, spatial])
/// for the given samples and channels from a channel-major product `cm`,
/// in which channel c of sample i starts at
/// cm + (c - channels.lo) * ld + (i - samples.lo) * spatial, adding bias.
void conv_epilogue(const float* cm, int64_t ld, Grid2d::Range samples, Grid2d::Range channels,
                   int64_t out_c, int64_t spatial, ConvBias bias, float* y);

/// Byte budget of one staged column block: sized to sit in a core's L2
/// next to the GEMM's pack buffers, so the product reads the columns
/// from cache rather than from memory.
constexpr int64_t kConvStageBytes = int64_t{256} << 10;

/// Eval staging shared by conv2d_eval and conv2d_csr_eval: walks samples
/// [s.lo, s.hi) of x in consecutive blocks whose column matrix fits
/// kConvStageBytes (at least one sample per block), lowers each block
/// with im2col into the calling thread's arena as [g.col_rows(), ld],
/// ld = (b.hi - b.lo) * g.col_cols(), and calls fn(b, cols, ld) while
/// the block is cache-hot. A block only narrows the product's column
/// range — no reduction is split — so every block size gives the same
/// bits. A geometry with no column rows stages the range as one block.
template <typename Fn>
void for_each_stage_block(const Tensor& x, const ConvGeometry& g, Grid2d::Range s, Fn&& fn) {
  const int64_t spatial = g.col_cols();
  const int64_t col_rows = g.col_rows();
  const int64_t image_numel = g.in_c * g.in_h * g.in_w;
  const int64_t sample_bytes = col_rows * spatial * static_cast<int64_t>(sizeof(float));
  const int64_t block = sample_bytes == 0
                            ? std::max<int64_t>(s.hi - s.lo, 1)
                            : std::max<int64_t>(kConvStageBytes / sample_bytes, 1);
  Workspace& ws = Workspace::tls();
  for (int64_t lo = s.lo; lo < s.hi; lo += block) {
    const Grid2d::Range b{lo, std::min(s.hi, lo + block)};
    const int64_t ld = (b.hi - b.lo) * spatial;
    Workspace::Scope stage;  // LIFO: reclaimed before the next block
    float* cols = ws.floats(static_cast<size_t>(col_rows * ld));
    parallel_for(b.lo, b.hi, work_grain(col_rows * spatial), [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        im2col_ld(g, x.data() + i * image_numel, cols + (i - b.lo) * spatial, ld);
      }
    });
    fn(b, cols, ld);
  }
}

/// Eval convolution of x ([N, in_c, H, W], geometry g) over the fused
/// (sample × out-channel-tile) grid. Each tile walks its samples in
/// cache-sized blocks (for_each_stage_block) and runs its weight rows'
/// sub-GEMM plus the epilogue on each block while the columns are
/// cache-hot, at every thread count. weight is [out_c, g.col_rows()]
/// row-major. Returns [N, out_c, oh, ow].
Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias);

}  // namespace shrinkbench
