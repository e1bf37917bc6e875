// Layer abstraction.
//
// Layers own their parameters and their forward caches. A training step is:
//   y = layer.forward(x, /*train=*/true);   // caches what backward needs
//   dx = layer.backward(dy);                // accumulates into param grads
// backward() must be called at most once per forward() and only with
// train=true forwards. Containers (Sequential, ResidualBlock) compose
// leaves; traversal for metrics/pruning uses children() and the shape
// propagation hooks below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench {

class Layer;

/// Observes each child layer's output during a container's forward pass.
/// Used by activation-statistics collection (activation-based pruning
/// scores) without entangling the layers themselves with bookkeeping.
using ForwardHook = std::function<void(Layer&, const Tensor& output)>;

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  /// x: [N, ...sample dims]. train=true caches activations for backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// grad_out: gradient of the loss w.r.t. this layer's output.
  /// Returns the gradient w.r.t. this layer's input and accumulates
  /// parameter gradients.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends pointers to this layer's (and children's) parameters.
  virtual void collect_params(std::vector<Parameter*>& out) { (void)out; }

  /// Direct children for traversal; empty for leaf layers.
  virtual std::vector<Layer*> children() { return {}; }

  /// Shape of one output sample given one input sample's shape (no batch dim).
  virtual Shape output_sample_shape(const Shape& in) const = 0;

  /// Multiply-adds per sample for an input of the given sample shape.
  /// Only conv and linear layers report nonzero counts, matching the
  /// FLOP conventions used in the paper's corpus.
  virtual int64_t flops(const Shape& in) const {
    (void)in;
    return 0;
  }

  /// Multiply-adds per sample counting only weights with mask == 1, i.e.
  /// the numerator of "theoretical speedup" after pruning.
  virtual int64_t effective_flops(const Shape& in) const { return flops(in); }

  /// Installs (or clears, with nullptr) a hook observing child outputs.
  /// Only containers invoke hooks; leaves ignore them. Containers
  /// propagate the hook to nested containers.
  virtual void set_forward_hook(ForwardHook hook) { (void)hook; }

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

/// All parameters of a layer tree, in deterministic traversal order.
std::vector<Parameter*> parameters_of(Layer& layer);

/// Zeroes all parameter gradients.
void zero_grads(Layer& layer);

/// Re-applies every parameter's mask (data ⊙= mask, grad ⊙= mask).
void apply_masks(Layer& layer);

/// Depth-first visit of every layer (containers first, then children).
void visit_layers(Layer& root, const std::function<void(Layer&)>& fn);

/// Throws std::invalid_argument naming `who` unless x is [N, channels,
/// H, W] (channels < 0 accepts any channel count).
void check_nchw(const std::string& who, const Tensor& x, int64_t channels = -1);

// ---------------------------------------------------------------------------
// Eval kernels. Every eval-mode computation exists once, as a free
// function next to its layer: the layer's forward(x, /*train=*/false) and
// the serving executor (src/serve) both call it, so the dense executor
// matches the eager model bit for bit by construction.

}  // namespace shrinkbench
