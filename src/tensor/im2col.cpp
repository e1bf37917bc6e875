#include "tensor/im2col.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "tensor/threadpool.hpp"

namespace shrinkbench {

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
  for (int64_t c = 0; c < channels; ++c) {
    float* chan = image + c * g.in_h * g.in_w;
    int64_t row = c * g.kernel_h * g.kernel_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src_row = cols + row * ld;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * g.stride + kh - g.pad;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* dst_row = chan + in_y * g.in_w;
          const float* src = src_row + y * ow;
          const int64_t base = kw - g.pad;
          if (g.stride == 1 && base >= 0 && base + ow <= g.in_w) {
            float* dst = dst_row + base;
            for (int64_t x = 0; x < ow; ++x) dst[x] += src[x];
          } else {
            for (int64_t x = 0; x < ow; ++x) {
              const int64_t in_x = x * g.stride + base;
              if (in_x >= 0 && in_x < g.in_w) dst_row[in_x] += src[x];
            }
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

}  // namespace shrinkbench
