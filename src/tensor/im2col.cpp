#include "tensor/im2col.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// Output positions [lo, hi) along one axis whose input coordinate
// o * stride + k - pad lies inside [0, in) for kernel offset k.
struct Span {
  int64_t lo, hi;
};

Span valid_span(int64_t k, const ConvGeometry& g, int64_t in, int64_t out) {
  const int64_t first = k - g.pad;  // input coordinate under output 0
  const int64_t lo = first >= 0 ? 0 : (g.stride - 1 - first) / g.stride;
  const int64_t last = in - 1 - first;  // o * stride must not exceed it
  const int64_t hi = last < 0 ? 0 : std::min(out, last / g.stride + 1);
  return {std::min(lo, hi), hi};
}

// im2row's copy loop over a zero-bordered [in_c, ph, pw] plane stack:
// one kernel_w-float segment per (output position, channel, kernel row).
// KW > 0 fixes kernel_w at compile time; 0 reads it from g.
template <int KW>
void patch_rows(const ConvGeometry& g, const float* src, int64_t ph, int64_t pw, float* dst) {
  const int64_t kw_n = KW > 0 ? KW : g.kernel_w;
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t y = 0; y < oh; ++y) {
    for (int64_t x = 0; x < ow; ++x) {
      const float* corner = src + y * g.stride * pw + x * g.stride;
      for (int64_t c = 0; c < g.in_c; ++c) {
        for (int64_t kh = 0; kh < g.kernel_h; ++kh, dst += kw_n) {
          const float* seg = corner + (c * ph + kh) * pw;
          for (int64_t kw = 0; kw < kw_n; ++kw) dst[kw] = seg[kw];
        }
      }
    }
  }
}

}  // namespace

void im2col_ld(const ConvGeometry& g, const float* image, float* cols, int64_t ld) {
  if (obs::profiling_enabled()) {
    obs::count("im2col.calls");
    obs::count("im2col.elements", g.col_rows() * g.col_cols());
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t kk = g.kernel_h * g.kernel_w;
  // Every column row is written by exactly one chunk, so the partition
  // cannot change any output value.
  parallel_for(0, g.col_rows(), work_grain(oh * ow), [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      const int64_t c = row / kk;
      const int64_t kh = (row % kk) / g.kernel_w;
      const int64_t kw = row % g.kernel_w;
      const float* chan = image + c * g.in_h * g.in_w;
      float* out_row = cols + row * ld;
      for (int64_t y = 0; y < oh; ++y) {
        const int64_t in_y = y * g.stride + kh - g.pad;
        float* dst = out_row + y * ow;
        if (in_y < 0 || in_y >= g.in_h) {
          std::fill(dst, dst + ow, 0.0f);
          continue;
        }
        const float* src_row = chan + in_y * g.in_w;
        const int64_t base = kw - g.pad;
        if (g.stride == 1 && base >= 0 && base + ow <= g.in_w) {
          // Fully interior fast path: contiguous copy.
          std::copy(src_row + base, src_row + base + ow, dst);
        } else {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t in_x = x * g.stride + base;
            dst[x] = (in_x >= 0 && in_x < g.in_w) ? src_row[in_x] : 0.0f;
          }
        }
      }
    }
  });
}

void im2col(const ConvGeometry& g, const float* image, float* cols) {
  im2col_ld(g, image, cols, g.col_cols());
}

void col2im_channels_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image,
                        int64_t channels) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t s = g.stride;
  Workspace::Scope scope;
  Span* y_span = static_cast<Span*>(
      Workspace::tls().get(static_cast<size_t>(g.kernel_h + g.kernel_w) * sizeof(Span)));
  Span* x_span = y_span + g.kernel_h;
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) y_span[kh] = valid_span(kh, g, g.in_h, oh);
  for (int64_t kw = 0; kw < g.kernel_w; ++kw) x_span[kw] = valid_span(kw, g, g.in_w, ow);
  for (int64_t c = 0; c < channels; ++c) {
    float* chan = image + c * g.in_h * g.in_w;
    int64_t row = c * g.kernel_h * g.kernel_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const Span ys = y_span[kh];
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const Span xs = x_span[kw];
        const int64_t nx = xs.hi - xs.lo;
        const float* src_row = cols + row * ld + xs.lo;
        for (int64_t y = ys.lo; y < ys.hi; ++y) {
          const float* src = src_row + y * ow;
          float* dst = chan + (y * s + kh - g.pad) * g.in_w + xs.lo * s + kw - g.pad;
          if (s == 1) {
            for (int64_t x = 0; x < nx; ++x) dst[x] += src[x];
          } else {
            for (int64_t x = 0; x < nx; ++x) dst[x * s] += src[x];
          }
        }
      }
    }
  }
}

void col2im_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image) {
  if (obs::profiling_enabled()) {
    obs::count("col2im.calls");
    obs::count("col2im.elements", g.col_rows() * g.col_cols());
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  // Different (kh, kw) rows of one channel accumulate into overlapping
  // image pixels, so the channel — whose image plane is private — is the
  // finest partition that keeps both the writes disjoint and the
  // accumulation order identical to the sequential loop.
  const int64_t per_channel = g.kernel_h * g.kernel_w * oh * ow;
  parallel_for(0, g.in_c, work_grain(per_channel), [&](int64_t c0, int64_t c1) {
    col2im_channels_ld(g, cols + c0 * g.kernel_h * g.kernel_w * ld, ld,
                       image + c0 * g.in_h * g.in_w, c1 - c0);
  });
}

void col2im(const ConvGeometry& g, const float* cols, float* image) {
  col2im_ld(g, cols, g.col_cols(), image);
}

void im2row(const ConvGeometry& g, const float* image, float* rows) {
  if (obs::profiling_enabled()) {
    obs::count("im2row.calls");
    obs::count("im2row.elements", g.col_rows() * g.col_cols());
  }
  // The zero-bordered plane covers every patch: the padding, plus the
  // overhang of a kernel larger than the padded input (out_h() truncates
  // toward zero, so such a geometry still has one output row).
  const int64_t ph = std::max(g.in_h + 2 * g.pad, (g.out_h() - 1) * g.stride + g.kernel_h);
  const int64_t pw = std::max(g.in_w + 2 * g.pad, (g.out_w() - 1) * g.stride + g.kernel_w);
  // Copy the image into that plane stack once, so every patch segment
  // below is a plain kernel_w-float copy with no bounds tests.
  Workspace::Scope scope;
  const float* src = image;
  if (ph != g.in_h || pw != g.in_w) {
    float* padded = Workspace::tls().floats(static_cast<size_t>(g.in_c * ph * pw));
    std::fill(padded, padded + g.in_c * ph * pw, 0.0f);
    for (int64_t c = 0; c < g.in_c; ++c) {
      for (int64_t y = 0; y < g.in_h; ++y) {
        const float* from = image + (c * g.in_h + y) * g.in_w;
        std::copy(from, from + g.in_w, padded + (c * ph + y + g.pad) * pw + g.pad);
      }
    }
    src = padded;
  }
  // 3x3 and 1x1 kernels copy fixed-length segments the compiler unrolls.
  if (g.kernel_w == 3) {
    patch_rows<3>(g, src, ph, pw, rows);
  } else if (g.kernel_w == 1) {
    patch_rows<1>(g, src, ph, pw, rows);
  } else {
    patch_rows<0>(g, src, ph, pw, rows);
  }
}

}  // namespace shrinkbench
