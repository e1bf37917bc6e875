// Serving compiler: pruned Sequential -> packed inference executor.
//
// The paper reports *theoretical* speedup (effective FLOPs); this module
// is where that proxy becomes measurable. compile() snapshots a trained,
// pruned model into an immutable executor in one of three modes:
//
//   Dense   the faithful baseline: dense weights, standalone BN — the
//           denominator of measured speedup.
//   Csr     unstructured sparsity: effective weights (data ⊙ mask)
//           compiled to CSR; batch norm is folded into the preceding conv
//           so the direct sparse conv is the only per-layer conv work.
//   Shrunk  channel sparsity: BN folded, and activations are compact —
//           each holds only its live channels. The compiler propagates
//           a channel layout from input to output: every logical channel
//           is live (an index into the compact tensor) or a compile-time
//           constant. A pruned conv's dead output is not zero but its
//           folded bias, (0 - mean) * inv_std * gamma + beta, mapped
//           through ReLU, pooling and standalone BN like any value. Each
//           consumer drops dead inputs from its weight columns and folds
//           their constants into its bias; under a padded conv that term
//           differs along the borders, so it becomes a per-position bias
//           plane built from the call's geometry. A residual join keeps
//           the union of both branches' live channels. One final op
//           expands the result to the model's output shape. So the conv
//           taps, the linear input features, BN, ReLU and pooling all run
//           over live channels only.
//
// There is one eval lowering. An op is compiled data (packed weights,
// folded constants) plus a call into the same nn kernel the eager layer's
// forward(x, /*train=*/false) runs: conv2d_eval and linear_eval for Dense
// and Shrunk, conv2d_csr_eval and linear_csr_eval (nn/sparse) for Csr,
// and the BN, ReLU and pool kernels for every mode. conv2d_eval picks
// its direct kernel from the geometry alone — the row-vector convolution
// that conv2d_csr_eval also runs for output planes at least 8 columns
// wide, out channels in the vector lanes for narrower ones — so Dense
// and the eager forward always take the same path, and Shrunk's
// per-position border biases ride either kernel's epilogue.
//
// Fusion rule: in Csr and Shrunk, a BatchNorm2d directly after a conv
// folds into its weights and bias, and a ReLU directly after the conv
// (after that fold) runs in the conv's epilogue — relu_inplace's v < 0 ->
// 0 test on the finished sum, so the bits equal the standalone op's —
// and maps the output layout's dead-channel constants through ReLU as
// the standalone op does. Dense fuses nothing: it keeps its standalone
// BN and ReLU. The residual join is
// the executor's own: it adds the shortcut's channels into the union
// layout, which in Dense and Csr is an elementwise add, as in eager.
// Dense and Csr activations are all live, so the Dense executor matches
// the eval-mode model bit for bit by construction; Shrunk matches it up
// to the reordered arithmetic of the folds. Serving rejects exactly the
// inputs the model rejects.
//
// Executors hold copies of all weights: the source model can keep
// training or be destroyed. forward() is eval-only, write-free and
// thread-safe (scratch lives in the thread-local workspace arena), so
// one executor is shared by all server workers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace shrinkbench::serve {

enum class ExecMode { Dense, Csr, Shrunk };

std::string to_string(ExecMode mode);
ExecMode exec_mode_from_name(const std::string& name);

/// One compiled operation: x [N, ...] -> y [N, ...]. Must not mutate any
/// state (thread-safety contract). Built by compile() in executor.cpp.
using Op = std::function<Tensor(const Tensor&)>;

class Executor {
 public:
  /// x: [N, ...sample_shape]. Thread-safe; scratch comes from the
  /// calling thread's workspace arena.
  Tensor forward(const Tensor& x) const;

  ExecMode mode() const { return mode_; }
  const Shape& sample_shape() const { return sample_shape_; }
  size_t op_count() const { return ops_.size(); }

  /// Per-sample multiply-adds of the dense / pruned model, captured at
  /// compile time — the paper's theoretical-speedup inputs.
  int64_t flops_dense() const { return flops_dense_; }
  int64_t flops_effective() const { return flops_effective_; }
  double theoretical_speedup() const {
    return flops_effective_ > 0 ? static_cast<double>(flops_dense_) / flops_effective_ : 1.0;
  }

 private:
  friend Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode);

  ExecMode mode_ = ExecMode::Dense;
  Shape sample_shape_;
  int64_t flops_dense_ = 0;
  int64_t flops_effective_ = 0;
  std::vector<Op> ops_;
};

/// Compiles the model for the given per-sample input shape. Csr/Shrunk
/// use effective weights (data ⊙ mask) and fold eval-mode batch norm
/// into the preceding conv; Dense replays the model verbatim.
/// Throws std::invalid_argument on layer types the compiler doesn't know.
Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode);

}  // namespace shrinkbench::serve
