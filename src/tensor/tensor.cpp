#include "tensor/tensor.hpp"

#include <sstream>
#include <stdexcept>

namespace shrinkbench {

int64_t numel_of(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("numel_of: negative dimension in " + to_string(shape));
    if (__builtin_mul_overflow(n, d, &n)) {
      throw std::overflow_error("numel_of: element count of " + to_string(shape) +
                                " overflows int64");
    }
  }
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream ss;
  ss << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) ss << ", ";
    ss << shape[i];
  }
  ss << ']';
  return ss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<size_t>(numel_of(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(static_cast<size_t>(numel_of(shape_)), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (numel_of(shape_) != static_cast<int64_t>(data_.size())) {
    throw std::invalid_argument("Tensor: shape " + to_string(shape_) + " does not match " +
                                std::to_string(data_.size()) + " values");
  }
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({static_cast<int64_t>(values.size())}, std::vector<float>(values));
}

int64_t Tensor::size(int64_t axis) const {
  if (axis < 0) axis += dim();
  if (axis < 0 || axis >= dim()) {
    throw std::out_of_range("Tensor::size: axis " + std::to_string(axis) + " out of range for " +
                            to_string(shape_));
  }
  return shape_[static_cast<size_t>(axis)];
}

float& Tensor::operator()(int64_t i) {
  assert(dim() == 1);
  return at(i);
}
float Tensor::operator()(int64_t i) const {
  assert(dim() == 1);
  return at(i);
}
float& Tensor::operator()(int64_t i, int64_t j) {
  assert(dim() == 2);
  return at(i * shape_[1] + j);
}
float Tensor::operator()(int64_t i, int64_t j) const {
  assert(dim() == 2);
  return at(i * shape_[1] + j);
}
float& Tensor::operator()(int64_t i, int64_t j, int64_t k) {
  assert(dim() == 3);
  return at((i * shape_[1] + j) * shape_[2] + k);
}
float Tensor::operator()(int64_t i, int64_t j, int64_t k) const {
  assert(dim() == 3);
  return at((i * shape_[1] + j) * shape_[2] + k);
}
float& Tensor::operator()(int64_t i, int64_t j, int64_t k, int64_t l) {
  assert(dim() == 4);
  return at(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l);
}
float Tensor::operator()(int64_t i, int64_t j, int64_t k, int64_t l) const {
  assert(dim() == 4);
  return at(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l);
}

Shape Tensor::resolve_shape(Shape new_shape) const {
  int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (infer_axis != -1) throw std::invalid_argument("reshape: more than one -1 dimension");
      infer_axis = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument("reshape: cannot infer dimension for " + to_string(new_shape) +
                                  " from numel " + std::to_string(numel()));
    }
    new_shape[static_cast<size_t>(infer_axis)] = numel() / known;
  }
  if (numel_of(new_shape) != numel()) {
    throw std::invalid_argument("reshape: " + to_string(shape_) + " -> " + to_string(new_shape) +
                                " changes element count");
  }
  return new_shape;
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  Tensor out = *this;
  out.shape_ = resolve_shape(std::move(new_shape));
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) && {
  shape_ = resolve_shape(std::move(new_shape));
  return std::move(*this);
}

void Tensor::reshape(Shape new_shape) { shape_ = resolve_shape(std::move(new_shape)); }

void Tensor::fill(float v) {
  for (float& x : data_) x = v;
}

}  // namespace shrinkbench
