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
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench::serve {

namespace {

// The first op reads the caller's tensor; only an empty op list copies it.
Tensor run_ops(const std::vector<Op>& ops, const Tensor& x) {
  if (ops.empty()) return x;
  Tensor h = ops.front()(x);
  for (size_t i = 1; i < ops.size(); ++i) h = ops[i](h);
  return h;
}

// Elements per channel of x: the product of the axes past the channel
// axis (1 for [N, C]).
int64_t per_channel(const Tensor& x) {
  int64_t s = 1;
  for (int64_t d = 2; d < x.dim(); ++d) s *= x.size(d);
  return s;
}

float relu_of(float v) { return v < 0.0f ? 0.0f : v; }

// Channel layout of a compact activation. Logical channel c (axis 1 of
// the model's own activation; a feature of a [N, F] one) is either live,
// stored at compact index slot[c] (value[c] is then 0), or dead
// (slot[c] < 0): the compile-time constant value[c] at every position.
// Live channels keep
// their logical order. Only Shrunk makes dead channels; Dense and Csr
// activations stay all live. flat marks an activation the model has
// flattened: the compact tensor keeps its channel axis, and the linear
// op that consumes it reads the features channel-major.
struct Layout {
  std::vector<int32_t> slot;
  std::vector<float> value;
  bool flat = false;

  static Layout all_live(int64_t channels) {
    Layout l;
    for (int64_t c = 0; c < channels; ++c) l.slot.push_back(static_cast<int32_t>(c));
    l.value.assign(static_cast<size_t>(channels), 0.0f);
    return l;
  }

  int64_t channels() const { return static_cast<int64_t>(slot.size()); }
  bool dead(int64_t c) const { return slot[static_cast<size_t>(c)] < 0; }
  float constant(int64_t c) const { return value[static_cast<size_t>(c)]; }

  std::vector<int64_t> live() const {
    std::vector<int64_t> ids;
    for (int64_t c = 0; c < channels(); ++c) {
      if (!dead(c)) ids.push_back(c);
    }
    return ids;
  }
};

// A conv or linear layer's weight matrix in the form its mode executes:
// dense rows (Dense, Shrunk) or CSR (Csr), over the live input columns.
struct PackedWeights {
  Tensor dense;             // Dense/Shrunk: [rows, cols]
  CsrMatrix csr;            // Csr: [rows, cols]
  std::vector<float> bias;  // rows entries, empty = no bias

  int64_t rows() const { return dense.size(0); }
  const float* b() const { return bias.empty() ? nullptr : bias.data(); }
};

// A conv or linear layer lowered onto its input layout.
struct Lowered {
  PackedWeights weights;
  // Conv with padding, when a dead input has a nonzero term: per live
  // row, the k×k kernel Σ_dead value[c]·W[o, c] ([rows, k*k]); a tap
  // contributes only where it lands inside the image.
  std::vector<float> border;
  Layout out;
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

// Bias plane [rows, oh*ow] of a padded conv whose dead inputs are
// constants: bias[r] plus the taps of border kernel r that land inside
// the image at each output position. Built from the call's geometry.
void border_bias(const ConvGeometry& g, const float* border, const float* bias, int64_t rows,
                 float* plane) {
  const int64_t k = g.kernel_h, oh = g.out_h(), ow = g.out_w();
  for (int64_t r = 0; r < rows; ++r) {
    const float* kern = border + r * k * k;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float s = 0.0f;
        for (int64_t kh = 0; kh < k; ++kh) {
          const int64_t iy = oy * g.stride - g.pad + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t kw = 0; kw < k; ++kw) {
            const int64_t ix = ox * g.stride - g.pad + kw;
            if (ix >= 0 && ix < g.in_w) s += kern[kh * k + kw];
          }
        }
        plane[(r * oh + oy) * ow + ox] = bias[r] + s;
      }
    }
  }
}

// y [N, from.channels(), ...]: channel c is compact channel from.slot[c]
// of x, or the constant from.value[c] where that channel is dead.
Tensor gather_channels(const Tensor& x, const Layout& from) {
  Shape shape = x.shape();
  const int64_t channels = from.channels(), live = x.size(1);
  shape[1] = channels;
  Tensor y(shape);
  const int64_t plane = per_channel(x);
  parallel_for(0, y.size(0) * channels, work_grain(plane), [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t i = p / channels, c = p % channels;
      float* dst = y.data() + p * plane;
      if (from.dead(c)) {
        std::fill(dst, dst + plane, from.constant(c));
      } else {
        const float* src = x.data() + (i * live + from.slot[static_cast<size_t>(c)]) * plane;
        std::copy(src, src + plane, dst);
      }
    }
  });
  return y;
}

// y += gather_channels(x, from), without materialising the gather.
void add_channels(Tensor& y, const Tensor& x, const Layout& from) {
  const int64_t channels = from.channels(), live = x.size(1);
  const int64_t plane = per_channel(y);
  parallel_for(0, y.size(0) * channels, work_grain(plane), [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t i = p / channels, c = p % channels;
      float* dst = y.data() + p * plane;
      if (from.dead(c)) {
        const float v = from.constant(c);
        for (int64_t k = 0; k < plane; ++k) dst[k] += v;
      } else {
        const float* src = x.data() + (i * live + from.slot[static_cast<size_t>(c)]) * plane;
        for (int64_t k = 0; k < plane; ++k) dst[k] += src[k];
      }
    }
  });
}

// The eager join adds shortcut to main elementwise and throws on a shape
// mismatch. The compact branches may differ in channel count, so check
// every other axis.
void check_join(const std::string& who, const Tensor& main, const Tensor& shortcut) {
  bool same = main.dim() == shortcut.dim();
  for (int64_t d = 0; same && d < main.dim(); ++d) {
    same = d == 1 || main.size(d) == shortcut.size(d);
  }
  if (!same) {
    throw std::invalid_argument(who + ": shape mismatch " + shrinkbench::to_string(main.shape()) +
                                " vs " + shrinkbench::to_string(shortcut.shape()));
  }
}

// Lowers a Sequential to ops: closures over compiled data (packed
// weights, folded constants) that call the nn eval kernels, while
// propagating each activation's channel layout from input to output.
class Compiler {
 public:
  explicit Compiler(ExecMode mode) : mode_(mode) {}

  // Emits seq's ops for an input laid out as `in`; returns the output's
  // layout.
  Layout emit_sequential(Sequential& seq, Layout in, std::vector<Op>& ops) {
    const std::vector<Layer*> kids = seq.children();
    for (size_t i = 0; i < kids.size(); ++i) {
      Layer* layer = kids[i];
      if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
        // Csr and Shrunk fold a following BN into the conv, then a ReLU
        // right after it into the conv's epilogue.
        BatchNorm2d* bn = nullptr;
        bool relu = false;
        if (mode_ != ExecMode::Dense) {
          if (i + 1 < kids.size() && (bn = dynamic_cast<BatchNorm2d*>(kids[i + 1])) != nullptr) {
            ++i;
          }
          if (i + 1 < kids.size() && dynamic_cast<ReLU*>(kids[i + 1]) != nullptr) {
            relu = true;
            ++i;
          }
        }
        in = conv_op(*conv, bn, relu, in, ops);
      } else if (auto* linear = dynamic_cast<Linear*>(layer)) {
        in = linear_op(*linear, in, ops);
      } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
        // Standalone eval-mode BN: Dense mode, and pre-activation nets
        // whose BN has no preceding conv to fold into.
        in = bn_op(*bn, std::move(in), ops);
      } else if (dynamic_cast<ReLU*>(layer) != nullptr) {
        ops.push_back([](const Tensor& x) { return relu(x); });
        for (float& v : in.value) v = relu_of(v);  // live channels' entries are 0
      } else if (dynamic_cast<Flatten*>(layer) != nullptr) {
        in.flat = true;  // the consuming linear op reads the channels as features
      } else if (dynamic_cast<Dropout*>(layer) != nullptr) {
        // Inverted dropout: eval forward is the identity.
      } else if (auto* mp = dynamic_cast<MaxPool2d*>(layer)) {
        ops.push_back([who = mp->name(), k = mp->kernel(), s = mp->stride()](const Tensor& x) {
          return max_pool2d(who, x, k, s);
        });
      } else if (auto* ap = dynamic_cast<AvgPool2d*>(layer)) {
        // Pooling a constant channel yields the same constant.
        ops.push_back([who = ap->name(), k = ap->kernel(), s = ap->stride()](const Tensor& x) {
          return avg_pool2d(who, x, k, s);
        });
      } else if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
        ops.push_back([who = layer->name()](const Tensor& x) { return global_avg_pool(who, x); });
      } else if (auto* res = dynamic_cast<ResidualBlock*>(layer)) {
        in = residual_op(*res, in, ops);
      } else if (auto* inner = dynamic_cast<Sequential*>(layer)) {
        in = emit_sequential(*inner, std::move(in), ops);
      } else {
        throw std::invalid_argument("serve::compile: unsupported layer '" + layer->name() + "'");
      }
    }
    return in;
  }

 private:
  Layout conv_op(Conv2d& conv, BatchNorm2d* bn, bool relu, const Layout& in,
                 std::vector<Op>& ops) {
    const int64_t oc = conv.out_channels(), kk = conv.kernel() * conv.kernel();
    const int64_t col_rows = conv.in_channels() * kk;
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
    // Without padding every tap lands inside the image, so a dead input's
    // term is the same at every position and folds into the bias.
    Lowered l = lower(w, std::move(b), in, kk, /*uniform=*/conv.padding() == 0);
    if (relu) {
      for (float& v : l.out.value) v = relu_of(v);  // live channels' entries are 0
    }
    ops.push_back([p = std::move(l.weights), border = std::move(l.border), who = conv.name(),
                   in_c = static_cast<int64_t>(in.live().size()), k = conv.kernel(),
                   s = conv.stride(), pad = conv.padding(), csr = mode_ == ExecMode::Csr,
                   relu](const Tensor& x) {
      const ConvGeometry g = conv_geometry(who, x, in_c, k, s, pad);
      if (csr) return conv2d_csr_eval(x, g, p.csr, p.b(), relu);
      if (border.empty()) return conv2d_eval(x, g, p.dense.data(), p.rows(), {p.b()}, relu);
      Workspace::Scope scope;
      float* plane = Workspace::tls().floats(static_cast<size_t>(p.rows() * g.col_cols()));
      border_bias(g, border.data(), p.b(), p.rows(), plane);
      return conv2d_eval(x, g, p.dense.data(), p.rows(), {plane, /*per_position=*/true}, relu);
    });
    return std::move(l.out);
  }

  Layout linear_op(Linear& linear, const Layout& in, std::vector<Op>& ops) {
    Tensor w = linear.weight().data.clone();
    if (mode_ != ExecMode::Dense) ops::mul_inplace(w, linear.weight().mask);
    std::vector<float> b;
    if (linear.bias() != nullptr) {
      b.assign(linear.bias()->data.flat().begin(), linear.bias()->data.flat().end());
    }
    // Features per input channel: the flattened spatial size, else 1
    // (compile() has validated the shapes).
    const int64_t group = linear.in_features() / std::max<int64_t>(in.channels(), 1);
    const int64_t live = static_cast<int64_t>(in.live().size());
    // A flattened input with dead channels needs its per-channel extent
    // checked: all-dead (or a wrong spatial size) could still match the
    // feature count. With every channel live, flatten as eager does.
    const bool compact = in.flat && live < in.channels();
    Lowered l = lower(w, std::move(b), in, group, /*uniform=*/true);
    ops.push_back([p = std::move(l.weights), who = linear.name(), in_f = live * group, group,
                   flat = in.flat, compact, csr = mode_ == ExecMode::Csr](const Tensor& x) {
      Tensor features;
      if (flat) {
        if (compact && per_channel(x) != group) {
          throw std::invalid_argument(who + ": expected " + std::to_string(group) +
                                      " features per channel, got " +
                                      shrinkbench::to_string(x.shape()));
        }
        features = x.reshaped({x.size(0), -1});
      }
      const Tensor& f = flat ? features : x;
      check_features(who, f, in_f);
      return csr ? linear_csr_eval(f, p.csr, p.b())
                 : linear_eval(f, p.dense.data(), p.rows(), p.b());
    });
    return std::move(l.out);
  }

  Layout bn_op(BatchNorm2d& bn, Layout in, std::vector<Op>& ops) {
    const BnConstants all = bn_constants(bn);
    BnConstants k;  // live channels only
    for (int64_t c = 0; c < in.channels(); ++c) {
      const size_t sc = static_cast<size_t>(c);
      if (in.dead(c)) {  // batchnorm_normalize's arithmetic
        in.value[sc] = all.gamma[sc] * ((in.value[sc] - all.mean[sc]) * all.inv_std[sc]) +
                       all.beta[sc];
        continue;
      }
      k.mean.push_back(all.mean[sc]);
      k.inv_std.push_back(all.inv_std[sc]);
      k.gamma.push_back(all.gamma[sc]);
      k.beta.push_back(all.beta[sc]);
    }
    ops.push_back([who = bn.name(), k = std::move(k)](const Tensor& x) {
      check_nchw(who, x, static_cast<int64_t>(k.mean.size()));
      return batchnorm_normalize(x, k.mean.data(), k.inv_std.data(), k.gamma.data(),
                                 k.beta.data());
    });
    return in;
  }

  // The join's output keeps the union of both branches' live channels; a
  // channel dead in both is the sum of their constants.
  Layout residual_op(ResidualBlock& res, const Layout& in, std::vector<Op>& ops) {
    std::vector<Op> main, shortcut;  // empty shortcut = identity
    const Layout m = emit_sequential(*res.main(), in, main);
    const Layout s =
        res.shortcut() != nullptr ? emit_sequential(*res.shortcut(), in, shortcut) : in;
    const bool final_relu = res.final_relu();
    // Each branch's term in every live output channel: a compact channel
    // of the branch, or the branch's constant.
    Layout out, main_term, shortcut_term;
    const auto add_term = [](Layout& term, const Layout& branch, int64_t c) {
      term.slot.push_back(branch.slot[static_cast<size_t>(c)]);
      term.value.push_back(branch.constant(c));
    };
    for (int64_t c = 0; c < m.channels(); ++c) {
      const bool dead = m.dead(c) && s.dead(c);
      const float v = dead ? m.constant(c) + s.constant(c) : 0.0f;
      out.slot.push_back(dead ? -1 : static_cast<int32_t>(main_term.channels()));
      out.value.push_back(final_relu ? relu_of(v) : v);
      if (dead) continue;
      add_term(main_term, m, c);
      add_term(shortcut_term, s, c);
    }
    // When the main branch's live channels are the union (always so in
    // Dense and Csr), its output already has the join's layout and the
    // shortcut adds into it in place.
    const bool main_is_union = main_term.slot == Layout::all_live(main_term.channels()).slot;
    ops.push_back([who = res.name(), main = std::move(main), shortcut = std::move(shortcut),
                   main_term = std::move(main_term), shortcut_term = std::move(shortcut_term),
                   main_is_union, final_relu](const Tensor& x) {
      Tensor a = run_ops(main, x), projected;
      const Tensor& b = shortcut.empty() ? x : (projected = run_ops(shortcut, x));
      check_join(who, a, b);
      Tensor y = main_is_union ? std::move(a) : gather_channels(a, main_term);
      add_channels(y, b, shortcut_term);
      if (final_relu) relu_inplace(y);
      return y;
    });
    return out;
  }

  // Lowers w [out, channels * group], the weights of a layer consuming
  // layout `in`: keeps the live input channels' columns and folds each
  // dead channel's constant times its weights into the bias (uniform) or
  // into border kernels. In Shrunk mode an output row left with no live
  // weight and no border term is a constant of the output layout.
  Lowered lower(const Tensor& w, std::vector<float> b, const Layout& in, int64_t group,
                bool uniform) const {
    const int64_t out = w.size(0), cols = w.size(1);
    const std::vector<int64_t> live_in = in.live();
    const bool any_dead = static_cast<int64_t>(live_in.size()) < in.channels();
    // fold[o * group + t] = Σ_dead c value[c] * w[o, c * group + t]
    std::vector<float> fold;
    if (any_dead) {
      if (b.empty()) b.assign(static_cast<size_t>(out), 0.0f);
      fold.assign(static_cast<size_t>(out * group), 0.0f);
      for (int64_t o = 0; o < out; ++o) {
        float* f = fold.data() + o * group;
        for (int64_t c = 0; c < in.channels(); ++c) {
          if (!in.dead(c)) continue;
          const float* src = w.data() + o * cols + c * group;
          for (int64_t t = 0; t < group; ++t) f[t] += in.constant(c) * src[t];
        }
        if (uniform) {
          for (int64_t t = 0; t < group; ++t) b[static_cast<size_t>(o)] += f[t];
          std::fill(f, f + group, 0.0f);
        }
      }
    }

    Lowered l;
    PackedWeights& p = l.weights;
    const auto nonzero = [](float v) { return v != 0.0f; };  // NaN counts
    std::vector<float> packed, border;
    int32_t rows = 0;
    for (int64_t o = 0; o < out; ++o) {
      const size_t row_start = packed.size();
      for (const int64_t c : live_in) {
        const float* src = w.data() + o * cols + c * group;
        packed.insert(packed.end(), src, src + group);
      }
      const float* f = any_dead ? fold.data() + o * group : nullptr;
      const bool live = mode_ != ExecMode::Shrunk ||
                        std::any_of(packed.begin() + row_start, packed.end(), nonzero) ||
                        (f != nullptr && std::any_of(f, f + group, nonzero));
      const float bias = b.empty() ? 0.0f : b[static_cast<size_t>(o)];
      l.out.slot.push_back(live ? rows++ : -1);
      l.out.value.push_back(live ? 0.0f : bias);
      if (!live) {
        packed.resize(row_start);
        continue;
      }
      if (!b.empty()) p.bias.push_back(bias);
      if (f != nullptr) border.insert(border.end(), f, f + group);
    }
    const int64_t live_cols = static_cast<int64_t>(live_in.size()) * group;
    p.dense = Tensor({rows, live_cols}, std::move(packed));
    if (std::any_of(border.begin(), border.end(), nonzero)) l.border = std::move(border);
    if (mode_ == ExecMode::Csr) {
      p.csr = csr_from_dense(p.dense.data(), rows, live_cols);
      p.dense = Tensor();
    }
    return l;
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
  const Layout out =
      compiler.emit_sequential(model, Layout::all_live(sample_shape.at(0)), exec.ops_);
  // Expands a compact result to the model's output shape.
  if (out.flat || static_cast<int64_t>(out.live().size()) < out.channels()) {
    exec.ops_.push_back([out](const Tensor& x) {
      Tensor y = gather_channels(x, out);
      if (out.flat) y.reshape({y.size(0), -1});
      return y;
    });
  }
  return exec;
}

}  // namespace shrinkbench::serve
