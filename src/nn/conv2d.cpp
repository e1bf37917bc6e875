#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/sparse.hpp"
#include "obs/profile.hpp"
#include "tensor/gemm.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// Gathers NCHW activations [n, c, oh*ow] into channel-major [c, n*oh*ow],
// so a whole minibatch becomes one GEMM operand.
void gather_channel_major(const float* nchw, int64_t n, int64_t c, int64_t spatial, float* cm) {
  parallel_for(0, n, work_grain(c * spatial), [&](int64_t n0, int64_t n1) {
    for (int64_t i = n0; i < n1; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* src = nchw + (i * c + ch) * spatial;
        std::copy(src, src + spatial, cm + ch * (n * spatial) + i * spatial);
      }
    }
  });
}

// Byte budget of one staged column block: sized to sit in a core's L2
// next to the GEMM's pack buffers, so the product reads the columns
// from cache rather than from memory.
constexpr int64_t kConvStageBytes = int64_t{256} << 10;

// conv2d_eval's staging: walks samples [s.lo, s.hi) of x in consecutive
// blocks whose column matrix fits kConvStageBytes (at least one sample
// per block), lowers each block with im2col into the calling thread's
// arena as [g.col_rows(), ld], ld = (b.hi - b.lo) * g.col_cols(), and
// calls fn(b, cols, ld) while the block is cache-hot. A block only
// narrows the product's column range — no reduction is split — so every
// block size gives the same bits. A geometry with no column rows stages
// the range as one block.
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

// Conv epilogue: writes the y[i, c] planes (y is [N, out_c, spatial])
// for the given samples and channels from a channel-major product `cm`,
// in which channel c of sample i starts at
// cm + (c - channels.lo) * ld + (i - samples.lo) * spatial, adding bias
// and then, when relu is set, mapping v < 0 to 0 as relu_inplace does.
void conv_epilogue(const float* cm, int64_t ld, Grid2d::Range samples, Grid2d::Range channels,
                   int64_t out_c, int64_t spatial, ConvBias bias, bool relu, float* y) {
  for (int64_t c = channels.lo; c < channels.hi; ++c) {
    const float* plane = bias.per_position ? bias.data + c * spatial : nullptr;
    for (int64_t i = samples.lo; i < samples.hi; ++i) {
      const float* src = cm + (c - channels.lo) * ld + (i - samples.lo) * spatial;
      float* dst = y + (i * out_c + c) * spatial;
      if (bias.data == nullptr) {
        std::copy(src, src + spatial, dst);
      } else if (plane != nullptr) {
        for (int64_t sp = 0; sp < spatial; ++sp) dst[sp] = src[sp] + plane[sp];
      } else {
        const float b = bias.data[c];
        for (int64_t sp = 0; sp < spatial; ++sp) dst[sp] = src[sp] + b;
      }
      if (relu) {
        for (int64_t sp = 0; sp < spatial; ++sp) dst[sp] = dst[sp] < 0.0f ? 0.0f : dst[sp];
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
               int64_t pad, bool bias)
    : Layer(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(this->name() + ".weight", {out_c, in_c, kernel, kernel}, /*prunable=*/true) {
  if (has_bias_) bias_ = Parameter(this->name() + ".bias", {out_c}, /*prunable=*/false);
}

ConvGeometry Conv2d::geometry(int64_t h, int64_t w) const {
  return ConvGeometry{in_c_, h, w, kernel_, kernel_, stride_, pad_};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  SB_PROFILE_SCOPE("conv2d.fwd");
  if (obs::profiling_enabled()) obs::count("conv2d.fwd.calls");
  const ConvGeometry g = conv_geometry(name(), x, in_c_, kernel_, stride_, pad_);
  if (train) cached_input_ = x;
  return conv2d_eval(x, g, weight_.data.data(), out_c_,
                     {has_bias_ ? bias_.data.data() : nullptr}, /*relu=*/false);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  SB_PROFILE_SCOPE("conv2d.bwd");
  if (obs::profiling_enabled()) obs::count("conv2d.bwd.calls");
  if (cached_input_.empty()) throw std::logic_error(name() + ": backward before forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeometry g = geometry(h, w);
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (grad_out.dim() != 4 || grad_out.size(0) != n || grad_out.size(1) != out_c_ ||
      grad_out.size(2) != oh || grad_out.size(3) != ow) {
    throw std::invalid_argument(name() + ": grad shape " + to_string(grad_out.shape()) +
                                " does not match output shape " +
                                to_string({n, out_c_, oh, ow}));
  }
  const int64_t image_numel = in_c_ * h * w;
  const int64_t spatial = oh * ow;
  const int64_t col_rows = g.col_rows();
  const int64_t ld = n * spatial;

  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* dy_cm = ws.floats(static_cast<size_t>(out_c_ * ld));
  gather_channel_major(grad_out.data(), n, out_c_, spatial, dy_cm);

  {
    // dW += dY [out_c, n*ohw] * patches [n*ohw, cK2]. The input lowers
    // straight into patch rows, so the GEMM's B packer copies contiguous
    // rows; the packed values equal those of im2col's transpose, so dW
    // is bit-identical to the trans_b product on the column matrix.
    // Every dW element reduces over the full n*ohw axis — the k axis
    // spans all samples — so this product cannot join the sample-tiled
    // grid below without splitting a reduction; it stays the monolithic
    // block-grid GEMM.
    Workspace::Scope patch_scope;  // released before the dX grid
    float* patches = ws.floats(static_cast<size_t>(ld * col_rows));
    parallel_for(0, n, work_grain(col_rows * spatial), [&](int64_t n0, int64_t n1) {
      for (int64_t i = n0; i < n1; ++i) {
        im2row(g, x.data() + i * image_numel, patches + i * spatial * col_rows);
      }
    });
    gemm(false, false, out_c_, col_rows, ld, 1.0f, dy_cm, ld, patches, col_rows, 1.0f,
         weight_.grad.data(), col_rows);
  }

  // dX: dcols = Wᵀ·dY and its col2im scatter fused over a (sample ×
  // in-channel-tile) grid. Each tile computes only its own rows and
  // sample columns of dcols into the thread-local arena and scatters
  // them while cache-hot, instead of materialising the full [col_rows,
  // n*ohw] matrix and re-walking it. The out_c reduction stays whole
  // inside every tile and col2im's per-(sample, channel) accumulation
  // order is untouched, so dx is bit-identical to the monolithic product
  // at every thread count.
  Tensor dx(x.shape());
  const int64_t kk = kernel_ * kernel_;
  const int64_t plane = h * w;
  const Grid2d grid(n, in_c_, 1, 1, ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace& tws = Workspace::tls();
    for (int64_t t = t_lo; t < t_hi; ++t) {
      const Grid2d::Range s = grid.range0(grid.tile0(t));
      const Grid2d::Range cr = grid.range1(grid.tile1(t));
      const int64_t tile_ld = (s.hi - s.lo) * spatial;
      const int64_t rows = (cr.hi - cr.lo) * kk;
      Workspace::Scope tile_scope;
      float* dcols = tws.floats(static_cast<size_t>(rows * tile_ld));
      // op(A) = Wᵀ is [col_rows, out_c] with op(A)[r, p] = W[p*lda + r]:
      // its row range [cr.lo*kk, cr.hi*kk) is the pointer offset
      // weight + cr.lo*kk at the same lda.
      gemm(/*trans_a=*/true, false, rows, tile_ld, out_c_, 1.0f,
           weight_.data.data() + cr.lo * kk, col_rows, dy_cm + s.lo * spatial, ld, 0.0f, dcols,
           tile_ld);
      for (int64_t i = s.lo; i < s.hi; ++i) {
        col2im_channels_ld(g, dcols + (i - s.lo) * spatial, tile_ld,
                           dx.data() + i * image_numel + cr.lo * plane, cr.hi - cr.lo);
      }
    }
  });
  if (has_bias_) {
    float* bg = bias_.grad.data();
    const float* gp = grad_out.data();
    // Channel-outer so each bg[c] is owned by one chunk and accumulates
    // its per-sample sums in ascending-i order — the same order as the
    // old sample-outer loop, hence bit-identical for any thread count.
    parallel_for(0, out_c_, work_grain(n * spatial), [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t i = 0; i < n; ++i) {
          const float* src = gp + (i * out_c_ + c) * spatial;
          double s = 0.0;
          for (int64_t sp = 0; sp < spatial; ++sp) s += src[sp];
          bg[c] += static_cast<float>(s);
        }
      }
    });
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Conv2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return {out_c_, g.out_h(), g.out_w()};
}

int64_t Conv2d::flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  // One multiply-add per weight per output spatial position.
  return g.out_h() * g.out_w() * weight_.numel();
}

int64_t Conv2d::effective_flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return g.out_h() * g.out_w() * ops::count_nonzero(weight_.mask);
}

ConvGeometry conv_geometry(const std::string& who, const Tensor& x, int64_t in_c, int64_t kernel,
                           int64_t stride, int64_t pad) {
  check_nchw(who, x, in_c);
  const ConvGeometry g{in_c, x.size(2), x.size(3), kernel, kernel, stride, pad};
  if (g.out_h() <= 0 || g.out_w() <= 0) {
    throw std::invalid_argument(who + ": input " + to_string(x.shape()) + " too small");
  }
  return g;
}

Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias, bool relu) {
  if (g.out_w() >= kDirectMinOutW) return conv2d_direct_eval(x, g, weight, out_c, bias, relu);
  const int64_t n = x.size(0);
  const int64_t spatial = g.col_cols();
  const int64_t col_rows = g.col_rows();
  Tensor y({n, out_c, g.out_h(), g.out_w()});

  // The channel axis splits only when samples alone cannot fill the pool
  // (the batch-1 serving case a per-sample split starves). Bit-identity:
  // tile outputs are disjoint y regions, the k reduction stays whole
  // inside every tile and block, and the block kernel accumulates k in
  // the same ascending order for any (m, n) subrange — so y matches the
  // monolithic GEMM bit for bit at every thread count and block size.
  const Grid2d grid(n, out_c, 1, kMinOcPerTile, ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace& ws = Workspace::tls();
    int64_t t = t_lo;
    while (t < t_hi) {
      // Tile ids are channel-fastest, so consecutive tiles of one sample
      // range arrive back to back: stage each block of that range once
      // and reuse it for every channel tile this chunk owns in the row.
      const int64_t i0 = grid.tile0(t);
      const int64_t row_end = std::min(t_hi, (i0 + 1) * grid.tiles1());
      for_each_stage_block(x, g, grid.range0(i0), [&](Grid2d::Range b, const float* cols,
                                                      int64_t ld) {
        for (int64_t u = t; u < row_end; ++u) {
          const Grid2d::Range cr = grid.range1(grid.tile1(u));
          Workspace::Scope out_scope;
          float* out_cm = ws.floats(static_cast<size_t>((cr.hi - cr.lo) * ld));
          gemm(false, false, cr.hi - cr.lo, ld, col_rows, 1.0f, weight + cr.lo * col_rows,
               col_rows, cols, ld, 0.0f, out_cm, ld);
          conv_epilogue(out_cm, ld, b, cr, out_c, spatial, bias, relu, y.data());
        }
      });
      t = row_end;
    }
  });
  return y;
}

}  // namespace shrinkbench
