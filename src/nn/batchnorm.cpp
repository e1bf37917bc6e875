#include "nn/batchnorm.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

BatchNorm2d::BatchNorm2d(std::string name, int64_t channels, float eps, float momentum)
    : Layer(std::move(name)),
      channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(this->name() + ".gamma", {channels}, /*prunable=*/false),
      beta_(this->name() + ".beta", {channels}, /*prunable=*/false),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  gamma_.data.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  check_nchw(name(), x, channels_);
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t spatial = h * w;
  const int64_t per_channel = n * spatial;
  const size_t nc = static_cast<size_t>(channels_);

  if (train) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_.assign(nc, 0.0f);
  }

  // Per-channel stats live in arena scratch; both passes then stream the
  // NCHW data in memory order instead of striding per channel.
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* mean = ws.floats(nc);
  float* inv_std = ws.floats(nc);

  if (train) {
    double* sum = static_cast<double*>(ws.get(nc * sizeof(double)));
    double* sum2 = static_cast<double*>(ws.get(nc * sizeof(double)));
    std::memset(sum, 0, nc * sizeof(double));
    std::memset(sum2, 0, nc * sizeof(double));
    // Channel-outer so each sum[c] is owned by one chunk and accumulates
    // its per-sample partials in ascending-i order — the same order as a
    // sample-outer loop, hence bit-identical for any thread count.
    parallel_for(0, channels_, work_grain(per_channel), [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t i = 0; i < n; ++i) {
          const float* src = x.data() + (i * channels_ + c) * spatial;
          double s = 0.0, s2 = 0.0;
          for (int64_t k = 0; k < spatial; ++k) {
            s += src[k];
            s2 += static_cast<double>(src[k]) * src[k];
          }
          sum[c] += s;
          sum2[c] += s2;
        }
      }
    });
    for (int64_t c = 0; c < channels_; ++c) {
      const float m = static_cast<float>(sum[c] / per_channel);
      float var = static_cast<float>(sum2[c] / per_channel - static_cast<double>(m) * m);
      if (var < 0.0f) var = 0.0f;  // guard against FP cancellation
      running_mean_.at(c) = (1.0f - momentum_) * running_mean_.at(c) + momentum_ * m;
      running_var_.at(c) = (1.0f - momentum_) * running_var_.at(c) + momentum_ * var;
      mean[c] = m;
      inv_std[c] = 1.0f / std::sqrt(var + eps_);
      cached_inv_std_[static_cast<size_t>(c)] = inv_std[c];
    }
  } else {
    for (int64_t c = 0; c < channels_; ++c) {
      mean[c] = running_mean_.at(c);
      inv_std[c] = 1.0f / std::sqrt(running_var_.at(c) + eps_);
    }
  }

  return batchnorm_normalize(x, mean, inv_std, gamma_.data.data(), beta_.data.data(),
                             train ? cached_xhat_.data() : nullptr);
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) throw std::logic_error(name() + ": backward before forward(train)");
  const int64_t n = grad_out.size(0), h = grad_out.size(2), w = grad_out.size(3);
  const int64_t spatial = h * w;
  const int64_t per_channel = n * spatial;
  const size_t nc = static_cast<size_t>(channels_);

  // Channel-wise sums Σdy and Σdy·x̂, accumulated in memory order.
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  double* sum_dy = static_cast<double*>(ws.get(nc * sizeof(double)));
  double* sum_dy_xhat = static_cast<double*>(ws.get(nc * sizeof(double)));
  std::memset(sum_dy, 0, nc * sizeof(double));
  std::memset(sum_dy_xhat, 0, nc * sizeof(double));
  // Channel-outer: each channel's sums are owned by one chunk and keep
  // the ascending-i accumulation order of the sequential loop.
  parallel_for(0, channels_, work_grain(per_channel), [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t i = 0; i < n; ++i) {
        const float* dy = grad_out.data() + (i * channels_ + c) * spatial;
        const float* xh = cached_xhat_.data() + (i * channels_ + c) * spatial;
        double s = 0.0, sx = 0.0;
        for (int64_t k = 0; k < spatial; ++k) {
          s += dy[k];
          sx += static_cast<double>(dy[k]) * xh[k];
        }
        sum_dy[c] += s;
        sum_dy_xhat[c] += sx;
      }
    }
  });

  float* scale = ws.floats(nc);
  float* mean_dy = ws.floats(nc);
  float* mean_dy_xhat = ws.floats(nc);
  for (int64_t c = 0; c < channels_; ++c) {
    gamma_.grad.at(c) += static_cast<float>(sum_dy_xhat[c]);
    beta_.grad.at(c) += static_cast<float>(sum_dy[c]);
    scale[c] = gamma_.data.at(c) * cached_inv_std_[static_cast<size_t>(c)];
    mean_dy[c] = static_cast<float>(sum_dy[c] / per_channel);
    mean_dy_xhat[c] = static_cast<float>(sum_dy_xhat[c] / per_channel);
  }

  Tensor dx(grad_out.shape());
  parallel_for(0, n * channels_, work_grain(spatial), [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t c = p % channels_;
      const float* dy = grad_out.data() + p * spatial;
      const float* xh = cached_xhat_.data() + p * spatial;
      float* dst = dx.data() + p * spatial;
      const float sc = scale[c], mdy = mean_dy[c], mdyx = mean_dy_xhat[c];
      for (int64_t k = 0; k < spatial; ++k) {
        dst[k] = sc * (dy[k] - mdy - xh[k] * mdyx);
      }
    }
  });
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

Shape BatchNorm2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != channels_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  return in;
}

Tensor batchnorm_normalize(const Tensor& x, const float* mean, const float* inv_std,
                           const float* gamma, const float* beta, float* xhat) {
  const int64_t channels = x.size(1), spatial = x.size(2) * x.size(3);
  Tensor y(x.shape());
  // Each (sample, channel) plane is written by exactly one chunk, so the
  // fan-out cannot change any output bit.
  parallel_for(0, x.size(0) * channels, work_grain(spatial), [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t c = p % channels;
      const float* src = x.data() + p * spatial;
      float* dst = y.data() + p * spatial;
      float* xh = xhat != nullptr ? xhat + p * spatial : nullptr;
      const float m = mean[c], is = inv_std[c], g = gamma[c], b = beta[c];
      for (int64_t k = 0; k < spatial; ++k) {
        const float v = (src[k] - m) * is;
        if (xh) xh[k] = v;
        dst[k] = g * v + b;
      }
    }
  });
  return y;
}

}  // namespace shrinkbench
