#include "serve/executor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sparse.hpp"
#include "obs/profile.hpp"
#include "tensor/ops.hpp"

namespace shrinkbench::serve {

namespace {

Tensor run_ops(const std::vector<Op>& ops, const Tensor& x) {
  Tensor h = x;
  for (const Op& op : ops) h = op(h);
  return h;
}

// A conv or linear layer's weight matrix [out, cols] in the form its
// mode executes: full dense rows (Dense), CSR (Csr), or only the live
// rows (Shrunk) plus the row map and dead-output fill constants.
struct PackedWeights {
  Tensor dense;                 // Dense/Shrunk: [rows, cols]
  CsrMatrix csr;                // Csr: [out, cols]
  std::vector<int32_t> row_of;  // Shrunk: out entries, -1 = dead; else empty (identity)
  std::vector<float> fill;      // Shrunk: out entries, dead-output constant
  std::vector<float> bias;      // out entries, empty = no bias

  OutputRows rows() const {
    return {row_of.empty() ? nullptr : row_of.data(), fill.empty() ? nullptr : fill.data(),
            bias.empty() ? nullptr : bias.data()};
  }
};

// Eval-mode batch-norm constants, per channel; inv_std is computed
// exactly as BatchNorm2d::forward computes it.
struct BnConstants {
  std::vector<float> mean, inv_std, gamma, beta;
};

BnConstants bn_constants(BatchNorm2d& bn) {
  BnConstants k;
  for (int64_t c = 0; c < bn.running_mean().numel(); ++c) {
    k.mean.push_back(bn.running_mean().at(c));
    k.inv_std.push_back(1.0f / std::sqrt(bn.running_var().at(c) + bn.eps()));
    k.gamma.push_back(bn.gamma().data.at(c));
    k.beta.push_back(bn.beta().data.at(c));
  }
  return k;
}

// Lowers a Sequential to ops: closures over compiled data (packed
// weights, row maps, folded constants) that call the nn eval kernels.
class Compiler {
 public:
  explicit Compiler(ExecMode mode) : mode_(mode) {}

  void emit_sequential(Sequential& seq, std::vector<Op>& ops) {
    const std::vector<Layer*> kids = seq.children();
    for (size_t i = 0; i < kids.size(); ++i) {
      Layer* layer = kids[i];
      if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
        BatchNorm2d* bn = nullptr;
        if (mode_ != ExecMode::Dense && i + 1 < kids.size()) {
          bn = dynamic_cast<BatchNorm2d*>(kids[i + 1]);
        }
        ops.push_back(conv_op(*conv, bn));
        if (bn != nullptr) ++i;  // consumed by the fold
      } else if (auto* linear = dynamic_cast<Linear*>(layer)) {
        ops.push_back(linear_op(*linear));
      } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
        // Standalone eval-mode BN: Dense mode, and pre-activation nets
        // whose BN has no preceding conv to fold into.
        ops.push_back([who = bn->name(), k = bn_constants(*bn)](const Tensor& x) {
          check_nchw(who, x, static_cast<int64_t>(k.mean.size()));
          return batchnorm_normalize(x, k.mean.data(), k.inv_std.data(), k.gamma.data(),
                                     k.beta.data());
        });
      } else if (dynamic_cast<ReLU*>(layer) != nullptr) {
        ops.push_back([](const Tensor& x) { return relu(x); });
      } else if (dynamic_cast<Flatten*>(layer) != nullptr) {
        ops.push_back([](const Tensor& x) { return x.reshaped({x.size(0), -1}); });
      } else if (dynamic_cast<Dropout*>(layer) != nullptr) {
        // Inverted dropout: eval forward is the identity.
      } else if (auto* mp = dynamic_cast<MaxPool2d*>(layer)) {
        ops.push_back([who = mp->name(), k = mp->kernel(), s = mp->stride()](const Tensor& x) {
          return max_pool2d(who, x, k, s);
        });
      } else if (auto* ap = dynamic_cast<AvgPool2d*>(layer)) {
        ops.push_back([who = ap->name(), k = ap->kernel(), s = ap->stride()](const Tensor& x) {
          return avg_pool2d(who, x, k, s);
        });
      } else if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
        ops.push_back([who = layer->name()](const Tensor& x) { return global_avg_pool(who, x); });
      } else if (auto* res = dynamic_cast<ResidualBlock*>(layer)) {
        std::vector<Op> main, shortcut;  // empty shortcut = identity
        emit_sequential(*res->main(), main);
        if (res->shortcut() != nullptr) emit_sequential(*res->shortcut(), shortcut);
        ops.push_back([main = std::move(main), shortcut = std::move(shortcut),
                       final_relu = res->final_relu()](const Tensor& x) {
          Tensor m = run_ops(main, x);
          if (shortcut.empty()) {
            residual_join(m, x, final_relu);
          } else {
            residual_join(m, run_ops(shortcut, x), final_relu);
          }
          return m;
        });
      } else if (auto* inner = dynamic_cast<Sequential*>(layer)) {
        emit_sequential(*inner, ops);
      } else {
        throw std::invalid_argument("serve::compile: unsupported layer '" + layer->name() + "'");
      }
    }
  }

 private:
  Op conv_op(Conv2d& conv, BatchNorm2d* bn) {
    const int64_t oc = conv.out_channels();
    const int64_t col_rows = conv.in_channels() * conv.kernel() * conv.kernel();
    Tensor w = conv.weight().data.clone().reshaped({oc, col_rows});
    if (mode_ != ExecMode::Dense) ops::mul_inplace(w, conv.weight().mask.reshaped({oc, col_rows}));
    std::vector<float> b;
    if (conv.bias() != nullptr) {
      b.assign(conv.bias()->data.flat().begin(), conv.bias()->data.flat().end());
    }
    if (bn != nullptr) {
      // y = gamma * (conv(x) + b - mean) * inv_std + beta
      //   = (gamma * inv_std) * conv(x) + [(b - mean) * gamma * inv_std + beta]
      const BnConstants k = bn_constants(*bn);
      if (b.empty()) b.assign(static_cast<size_t>(oc), 0.0f);
      for (int64_t c = 0; c < oc; ++c) {
        const size_t sc = static_cast<size_t>(c);
        const float scale = k.gamma[sc] * k.inv_std[sc];
        float* row = w.data() + c * col_rows;
        for (int64_t j = 0; j < col_rows; ++j) row[j] *= scale;
        b[sc] = (b[sc] - k.mean[sc]) * scale + k.beta[sc];
      }
    }
    return [p = pack(w, std::move(b)), who = conv.name(), in_c = conv.in_channels(), oc,
            k = conv.kernel(), s = conv.stride(), pad = conv.padding(),
            csr = mode_ == ExecMode::Csr](const Tensor& x) {
      const ConvGeometry g = conv_geometry(who, x, in_c, k, s, pad);
      return csr ? conv2d_csr_eval(x, g, p.csr, oc, p.rows())
                 : conv2d_eval(x, g, p.dense.data(), oc, p.rows());
    };
  }

  Op linear_op(Linear& linear) {
    Tensor w = linear.weight().data.clone();
    if (mode_ != ExecMode::Dense) ops::mul_inplace(w, linear.weight().mask);
    std::vector<float> b;
    if (linear.bias() != nullptr) {
      b.assign(linear.bias()->data.flat().begin(), linear.bias()->data.flat().end());
    }
    return [p = pack(w, std::move(b)), who = linear.name(), in = linear.in_features(),
            out = linear.out_features(), csr = mode_ == ExecMode::Csr](const Tensor& x) {
      check_features(who, x, in);
      return csr ? linear_csr_eval(x, p.csr, out, p.rows())
                 : linear_eval(x, p.dense.data(), p.dense.size(0), out, p.rows());
    };
  }

  // Stores the weight matrix w [rows, cols] according to mode: full
  // dense, CSR, or live-row-packed dense with the dead-row constants.
  PackedWeights pack(const Tensor& w, std::vector<float> bias) const {
    PackedWeights p;
    p.bias = std::move(bias);
    const int64_t rows = w.size(0), cols = w.size(1);
    if (mode_ == ExecMode::Dense) {
      p.dense = w;
      return p;
    }
    if (mode_ == ExecMode::Csr) {
      p.csr = csr_from_dense(w.data(), rows, cols);
      return p;
    }
    // Shrunk: drop all-zero rows from the GEMM. A dead channel's output
    // is exactly its bias constant (the folded weight row is zero), so
    // the epilogue reconstructs the full-width activation and downstream
    // ops — residual adds included — see full tensors.
    p.row_of.resize(static_cast<size_t>(rows));
    p.fill.assign(static_cast<size_t>(rows), 0.0f);
    std::vector<int32_t> live;
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = w.data() + r * cols;
      const size_t sr = static_cast<size_t>(r);
      if (std::all_of(row, row + cols, [](float v) { return v == 0.0f; })) {
        p.row_of[sr] = -1;
        p.fill[sr] = p.bias.empty() ? 0.0f : p.bias[sr];
      } else {
        p.row_of[sr] = static_cast<int32_t>(live.size());
        live.push_back(static_cast<int32_t>(r));
      }
    }
    p.dense = Tensor({static_cast<int64_t>(live.size()), cols});
    for (size_t i = 0; i < live.size(); ++i) {
      const float* src = w.data() + static_cast<int64_t>(live[i]) * cols;
      std::copy(src, src + cols, p.dense.data() + static_cast<int64_t>(i) * cols);
    }
    return p;
  }

  ExecMode mode_;
};

}  // namespace

std::string to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::Dense: return "dense";
    case ExecMode::Csr: return "csr";
    case ExecMode::Shrunk: return "shrunk";
  }
  return "?";
}

ExecMode exec_mode_from_name(const std::string& name) {
  if (name == "dense") return ExecMode::Dense;
  if (name == "csr") return ExecMode::Csr;
  if (name == "shrunk") return ExecMode::Shrunk;
  throw std::invalid_argument("unknown exec mode '" + name + "' (dense|csr|shrunk)");
}

Tensor Executor::forward(const Tensor& x) const {
  SB_PROFILE_SCOPE("serve.exec");
  if (x.dim() < 2) {
    throw std::invalid_argument("serve::Executor: input must be batched, got " +
                                shrinkbench::to_string(x.shape()));
  }
  return run_ops(ops_, x);
}

Executor compile(Sequential& model, const Shape& sample_shape, ExecMode mode) {
  Executor exec;
  exec.mode_ = mode;
  exec.sample_shape_ = sample_shape;
  // Validates the shape (throws on mismatch) and freezes the speedup
  // accounting the bench reports against measured wall-clock.
  exec.flops_dense_ = model.flops(sample_shape);
  exec.flops_effective_ = model.effective_flops(sample_shape);
  Compiler compiler(mode);
  compiler.emit_sequential(model, exec.ops_);
  return exec;
}

}  // namespace shrinkbench::serve
