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

void col2im_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image) {
  if (obs::profiling_enabled()) {
    obs::count("col2im.calls");
    obs::count("col2im.elements", g.col_rows() * g.col_cols());
  }
  const int64_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  // Each kernel offset's in-bounds output span, computed once, so the
  // inner loops are plain (strided) adds.
  Workspace::Scope scope;
  Span* y_span = static_cast<Span*>(
      Workspace::tls().get(static_cast<size_t>(g.kernel_h + g.kernel_w) * sizeof(Span)));
  Span* x_span = y_span + g.kernel_h;
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) y_span[kh] = valid_span(kh, g, g.in_h, oh);
  for (int64_t kw = 0; kw < g.kernel_w; ++kw) x_span[kw] = valid_span(kw, g, g.in_w, ow);
  // Different (kh, kw) rows of one channel accumulate into overlapping
  // image pixels, so the channel — whose image plane is private — is the
  // finest partition that keeps both the writes disjoint and the
  // accumulation order identical to the sequential loop: every pixel
  // accumulates in (kh, kw, y, x) order.
  const int64_t per_channel = g.kernel_h * g.kernel_w * oh * ow;
  parallel_for(0, g.in_c, work_grain(per_channel), [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
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
  });
}

void col2im(const ConvGeometry& g, const float* cols, float* image) {
  col2im_ld(g, cols, g.col_cols(), image);
}

}  // namespace shrinkbench
