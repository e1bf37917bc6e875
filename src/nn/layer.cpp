#include "nn/layer.hpp"

#include <stdexcept>

namespace shrinkbench {

void check_nchw(const std::string& who, const Tensor& x, int64_t channels) {
  if (x.dim() != 4 || (channels >= 0 && x.size(1) != channels)) {
    throw std::invalid_argument(who + ": expected [N, " +
                                (channels >= 0 ? std::to_string(channels) : std::string("C")) +
                                ", H, W], got " + to_string(x.shape()));
  }
}

std::vector<Parameter*> parameters_of(Layer& layer) {
  std::vector<Parameter*> params;
  layer.collect_params(params);
  return params;
}

void zero_grads(Layer& layer) {
  for (Parameter* p : parameters_of(layer)) p->zero_grad();
}

void apply_masks(Layer& layer) {
  for (Parameter* p : parameters_of(layer)) p->apply_mask();
}

void visit_layers(Layer& root, const std::function<void(Layer&)>& fn) {
  fn(root);
  for (Layer* child : root.children()) visit_layers(*child, fn);
}

}  // namespace shrinkbench
