#include "nn/pool.hpp"

#include <stdexcept>
#include <string>

namespace shrinkbench {

namespace {
// Pooling here has no padding, so the window grid must tile the input
// exactly; silently truncating a ragged edge ((in - kernel) % stride)
// would drop input columns/rows from both forward and backward without
// any indication. Reject it loudly instead.
int64_t pooled_extent(const std::string& name, int64_t in, int64_t kernel, int64_t stride) {
  if (in < kernel) {
    throw std::invalid_argument(name + ": input extent " + std::to_string(in) +
                                " smaller than kernel " + std::to_string(kernel));
  }
  if ((in - kernel) % stride != 0) {
    throw std::invalid_argument(
        name + ": input extent " + std::to_string(in) + " is not exactly tiled by kernel " +
        std::to_string(kernel) + " / stride " + std::to_string(stride) +
        " — pooling would silently drop the trailing " +
        std::to_string((in - kernel) % stride) + " element(s)");
  }
  return (in - kernel) / stride + 1;
}

// The window grid of a pooling kernel over a validated NCHW input.
struct PoolWindows {
  int64_t n, c, h, w, oh, ow, stride;

  // fn(o, at) for every window in output order: o is the flat output
  // index, `at` the flat input index of the window's first element.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    int64_t o = 0;
    for (int64_t plane = 0; plane < n * c; ++plane) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++o) {
          fn(o, (plane * h + oy * stride) * w + ox * stride);
        }
      }
    }
  }
};

PoolWindows pool_windows(const std::string& who, const Tensor& x, int64_t kernel, int64_t stride) {
  check_nchw(who, x);
  const int64_t h = x.size(2), w = x.size(3);
  return {x.size(0), x.size(1), h, w, pooled_extent(who, h, kernel, stride),
          pooled_extent(who, w, kernel, stride), stride};
}

void check_kernel_stride(const std::string& name, int64_t kernel, int64_t stride) {
  if (kernel < 1 || stride < 1) {
    throw std::invalid_argument(name + ": kernel and stride must be >= 1, got kernel=" +
                                std::to_string(kernel) + " stride=" + std::to_string(stride));
  }
}
}  // namespace

MaxPool2d::MaxPool2d(std::string name, int64_t kernel, int64_t stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  check_kernel_stride(this->name(), kernel, stride);
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  Tensor y = max_pool2d(name(), x, kernel_, stride_, train ? &argmax_ : nullptr);
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) throw std::logic_error(name() + ": backward before forward");
  Tensor dx(cached_in_shape_);
  for (int64_t i = 0, m = grad_out.numel(); i < m; ++i) {
    dx.at(argmax_[static_cast<size_t>(i)]) += grad_out.at(i);
  }
  return dx;
}

Shape MaxPool2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3) throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  return {in[0], pooled_extent(name(), in[1], kernel_, stride_),
          pooled_extent(name(), in[2], kernel_, stride_)};
}

AvgPool2d::AvgPool2d(std::string name, int64_t kernel, int64_t stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  check_kernel_stride(this->name(), kernel, stride);
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  Tensor y = avg_pool2d(name(), x, kernel_, stride_);
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) throw std::logic_error(name() + ": backward before forward");
  const int64_t n = cached_in_shape_[0], c = cached_in_shape_[1], h = cached_in_shape_[2],
                w = cached_in_shape_[3];
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor dx(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  int64_t out_idx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      float* plane = dx.data() + (i * c + ch) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
          const float g = grad_out.at(out_idx) * inv;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            for (int64_t kx = 0; kx < kernel_; ++kx) {
              plane[(oy * stride_ + ky) * w + ox * stride_ + kx] += g;
            }
          }
        }
      }
    }
  }
  return dx;
}

Shape AvgPool2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3) throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  return {in[0], pooled_extent(name(), in[1], kernel_, stride_),
          pooled_extent(name(), in[2], kernel_, stride_)};
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  Tensor y = global_avg_pool(name(), x);
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) throw std::logic_error(name() + ": backward before forward");
  const int64_t n = cached_in_shape_[0], c = cached_in_shape_[1],
                spatial = cached_in_shape_[2] * cached_in_shape_[3];
  Tensor dx(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(spatial);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out(i, ch) * inv;
      float* dst = dx.data() + (i * c + ch) * spatial;
      for (int64_t k = 0; k < spatial; ++k) dst[k] = g;
    }
  }
  return dx;
}

Shape GlobalAvgPool::output_sample_shape(const Shape& in) const {
  if (in.size() != 3) throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  return {in[0]};
}

Tensor max_pool2d(const std::string& who, const Tensor& x, int64_t kernel, int64_t stride,
                  std::vector<int64_t>* argmax) {
  const PoolWindows win = pool_windows(who, x, kernel, stride);
  Tensor y({win.n, win.c, win.oh, win.ow});
  const float* in = x.data();
  float* out = y.data();
  // Each window's max is seeded from its own first element: a NaN seed
  // sticks (NaN comparisons are false), so NaN propagates to the output.
  // Training also records where each max came from, for backward; the
  // seeded argmax never leaves the window, so even an all-NaN or all--inf
  // window routes its gradient inside its own image. Both loops take the
  // same `v > best` steps, so eval and training outputs are identical.
  if (argmax == nullptr) {
    win.for_each([&](int64_t o, int64_t at) {
      float best = in[at];
      for (int64_t ky = 0; ky < kernel; ++ky) {
        for (int64_t kx = 0; kx < kernel; ++kx) {
          const float v = in[at + ky * win.w + kx];
          if (v > best) best = v;
        }
      }
      out[o] = best;
    });
    return y;
  }
  argmax->resize(static_cast<size_t>(y.numel()));
  int64_t* src_of = argmax->data();
  win.for_each([&](int64_t o, int64_t at) {
    float best = in[at];
    int64_t best_at = at;
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        const int64_t i = at + ky * win.w + kx;
        if (in[i] > best) {
          best = in[i];
          best_at = i;
        }
      }
    }
    out[o] = best;
    src_of[o] = best_at;
  });
  return y;
}

Tensor avg_pool2d(const std::string& who, const Tensor& x, int64_t kernel, int64_t stride) {
  const PoolWindows win = pool_windows(who, x, kernel, stride);
  Tensor y({win.n, win.c, win.oh, win.ow});
  const float* in = x.data();
  float* out = y.data();
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  win.for_each([&](int64_t o, int64_t at) {
    float s = 0.0f;
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) s += in[at + ky * win.w + kx];
    }
    out[o] = s * inv;
  });
  return y;
}

Tensor global_avg_pool(const std::string& who, const Tensor& x) {
  check_nchw(who, x);
  const int64_t n = x.size(0), c = x.size(1), spatial = x.size(2) * x.size(3);
  Tensor y({n, c});
  const float inv = 1.0f / static_cast<float>(spatial);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* src = x.data() + (i * c + ch) * spatial;
      double s = 0.0;
      for (int64_t k = 0; k < spatial; ++k) s += src[k];
      y(i, ch) = static_cast<float>(s) * inv;
    }
  }
  return y;
}

}  // namespace shrinkbench
