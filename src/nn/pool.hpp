// Spatial pooling layers over [N, C, H, W].
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace shrinkbench {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, int64_t kernel, int64_t stride);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_sample_shape(const Shape& in) const override;

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  Shape cached_in_shape_;
  std::vector<int64_t> argmax_;  // flat input index of each output's max
};

class AvgPool2d : public Layer {
 public:
  AvgPool2d(std::string name, int64_t kernel, int64_t stride);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_sample_shape(const Shape& in) const override;

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  Shape cached_in_shape_;
};

/// Averages over all spatial positions: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_sample_shape(const Shape& in) const override;

 private:
  Shape cached_in_shape_;
};

// Pooling kernels behind the layers above (and the serving executor).
// Each checks its input — NCHW, and for the windowed pools a window grid
// that tiles H and W exactly — and names `who` in errors. argmax, when
// non-null, receives each output's flat input index (training cache).
Tensor max_pool2d(const std::string& who, const Tensor& x, int64_t kernel, int64_t stride,
                  std::vector<int64_t>* argmax = nullptr);
Tensor avg_pool2d(const std::string& who, const Tensor& x, int64_t kernel, int64_t stride);
Tensor global_avg_pool(const std::string& who, const Tensor& x);

}  // namespace shrinkbench
