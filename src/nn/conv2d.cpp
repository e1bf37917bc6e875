#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/sparse.hpp"
#include "obs/profile.hpp"
#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

namespace {

// GCC vector extensions, as nn/sparse.cpp's direct conv uses them:
// arithmetic on them compiles to the same (fused) multiply-adds as its
// scalar loops.
using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));
using Vec16 = float __attribute__((vector_size(64)));

template <typename V>
constexpr int64_t kLanes = sizeof(V) / sizeof(float);

// Accumulator rows per register tile of the direct kernels, sized to
// fill the vector register file without spilling: 32 registers of any
// width with AVX-512, 16 ymm registers (a Vec16 takes two) without.
#if defined(__AVX512F__)
template <typename V, int G>
constexpr int kDwRows = G == 1 ? 16 : 12;
constexpr int kDxSamples = 8;
template <typename V, int G>
constexpr int kFwdRows = 8;
#else
template <typename V, int G>
constexpr int kDwRows = sizeof(V) == 64 ? (G == 1 ? 6 : 3) : 12;
constexpr int kDxSamples = 4;
template <typename V, int G>
constexpr int kFwdRows = sizeof(V) == 64 ? 4 / G : 8;
#endif

int64_t round_up(int64_t v, int64_t m) { return (v + m - 1) / m * m; }

// Out channels rounded up to the lanes the out-channel-lane kernels run:
// one Vec8, one Vec16 or whole pairs of Vec16s.
int64_t out_channel_lanes(int64_t out_c) {
  return round_up(out_c, out_c <= 8 ? 8 : out_c <= 16 ? 16 : 32);
}

// Each sample's input as zero-bordered [in_c, ph, pw] planes (ph, pw
// cover the padding and the overhang of a kernel larger than the padded
// input), `sample` floats apart, so column-matrix row (c, kh, kw) under
// output (oy, ox) reads data[offset[row] + oy*stride*pw + ox*stride], and
// a padding tap reads a stored zero, as im2col's zero entries.
struct InputPlanes {
  int64_t ph, pw, sample;
  const float* data;
  const int64_t* offset;
};

// Stages x's planes and the per-row offsets in the calling thread's
// arena, valid until the caller's Workspace::Scope ends. A conv with no
// border to add reads x in place.
InputPlanes stage_input(const Tensor& x, const ConvGeometry& g) {
  const int64_t n = x.size(0), in_c = g.in_c, h = g.in_h, w = g.in_w;
  const int64_t kh = g.kernel_h, kw = g.kernel_w, kk = kh * kw, s = g.stride, pad = g.pad;
  // out_h() truncates toward zero, so a kernel larger than the padded
  // input still has one output row, which reads past the padding.
  const int64_t ph = std::max(h + 2 * pad, (g.out_h() - 1) * s + kh);
  const int64_t pw = std::max(w + 2 * pad, (g.out_w() - 1) * s + kw);
  Workspace& ws = Workspace::tls();
  auto* offset = static_cast<int64_t*>(ws.get(static_cast<size_t>(g.col_rows()) * sizeof(int64_t)));
  for (int64_t r = 0; r < g.col_rows(); ++r) {
    offset[r] = ((r / kk) * ph + (r % kk) / kw) * pw + r % kw;
  }
  const int64_t sample = in_c * ph * pw;
  if (ph == h && pw == w) return {ph, pw, sample, x.data(), offset};
  float* xs = ws.floats(static_cast<size_t>(n * sample));
  parallel_for(0, n, work_grain(sample), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* dst = xs + i * sample;
      std::fill(dst, dst + sample, 0.0f);
      for (int64_t c = 0; c < in_c; ++c) {
        for (int64_t y = 0; y < h; ++y) {
          const float* from = x.data() + ((i * in_c + c) * h + y) * w;
          std::copy(from, from + w, dst + (c * ph + y + pad) * pw + pad);
        }
      }
    }
  });
  return {ph, pw, sample, xs, offset};
}

// The backward's staged operands, shared read-only by every tile.
//
// - in: the input planes.
// - dyt: dY transposed to [N, oh*ow, ocp], one out-channel vector per
//   output position, lanes past out_c zero.
// - wt: the weights as [kh*kw, out_c, cp], one input-channel vector per
//   (tap, out channel), lanes past in_c zero.
// - taps: for each input pixel, the (tap, output position) pairs that
//   read it, in col2im's (kh, kw) order; pixel p's are [first[p],
//   first[p + 1]).
struct BackwardStage {
  struct Tap {
    int32_t tap, pos;
  };
  const ConvGeometry& g;
  InputPlanes in;
  int64_t n, out_c, oh, ow, spatial, ocp, cp;
  const float* dyt;
  const float* wt;
  const Tap* taps;
  const int64_t* first;

  int64_t plane() const { return g.in_h * g.in_w; }
};

// Transposes the 8×8 block in r: row k in, column k out.
void transpose8(Vec8 (&r)[8]) {
  Vec8 t[8], u[8];
  for (int k = 0; k < 8; k += 2) {  // t[k], t[k+1]: rows k, k+1 interleaved
    t[k] = __builtin_shufflevector(r[k], r[k + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[k + 1] = __builtin_shufflevector(r[k], r[k + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  for (int k = 0; k < 8; k += 4) {  // u[k+c]: columns c | c+4 of rows k..k+3
    for (int j = 0; j < 2; ++j) {
      u[k + 2 * j] = __builtin_shufflevector(t[k + j], t[k + j + 2], 0, 1, 8, 9, 4, 5, 12, 13);
      u[k + 2 * j + 1] =
          __builtin_shufflevector(t[k + j], t[k + j + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    }
  }
  for (int c = 0; c < 4; ++c) {
    r[c] = __builtin_shufflevector(u[c], u[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[c + 4] = __builtin_shufflevector(u[c], u[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

// One sample's dY [out_c, spatial] as dst [spatial, ocp], lanes past
// out_c zero (ocp is a multiple of 8): 8×8 blocks through registers,
// then the last spatial % 8 positions one by one.
void transpose_dy(const float* src, int64_t out_c, int64_t spatial, int64_t ocp, float* dst) {
  int64_t sp = 0;
  for (; sp + 8 <= spatial; sp += 8) {
    for (int64_t o0 = 0; o0 < ocp; o0 += 8) {
      Vec8 r[8];
      for (int k = 0; k < 8; ++k) {
        r[k] = Vec8{};
        if (o0 + k < out_c) std::memcpy(&r[k], src + (o0 + k) * spatial + sp, sizeof(Vec8));
      }
      transpose8(r);
      for (int k = 0; k < 8; ++k) std::memcpy(dst + (sp + k) * ocp + o0, &r[k], sizeof(Vec8));
    }
  }
  for (; sp < spatial; ++sp) {
    for (int64_t o = 0; o < ocp; ++o) dst[sp * ocp + o] = o < out_c ? src[o * spatial + sp] : 0.0f;
  }
}

// One dW register tile: column-matrix rows [r0, r0 + R) × out-channel
// lanes [o0, o0 + G*|V|), the out channels in the vector lanes. Each
// element starts at its current grad value and takes one multiply-add
// per output position of every sample, in ascending (sample, oy, ox)
// order — the column formulation's chain over the n*oh*ow axis.
template <typename V, int R, int G>
void dw_tile(const BackwardStage& st, int64_t r0, int64_t o0, float* grad) {
  constexpr int64_t kL = kLanes<V>;
  const int64_t col_rows = st.g.col_rows(), s = st.g.stride;
  V acc[R][G];
  int64_t off[R];
  for (int j = 0; j < R; ++j) {
    off[j] = st.in.offset[r0 + j];
    for (int q = 0; q < G; ++q) {
      for (int64_t l = 0; l < kL; ++l) {
        const int64_t o = o0 + q * kL + l;
        acc[j][q][l] = o < st.out_c ? grad[o * col_rows + r0 + j] : 0.0f;
      }
    }
  }
  for (int64_t i = 0; i < st.n; ++i) {
    const float* xi = st.in.data + i * st.in.sample;
    const float* d = st.dyt + i * st.spatial * st.ocp + o0;
    for (int64_t oy = 0; oy < st.oh; ++oy) {
      const float* xrow = xi + oy * s * st.in.pw;
      for (int64_t ox = 0; ox < st.ow; ++ox, d += st.ocp) {
        const float* xp = xrow + ox * s;
        V dv[G];
        for (int q = 0; q < G; ++q) std::memcpy(&dv[q], d + q * kL, sizeof(V));
        for (int j = 0; j < R; ++j) {
          const float v = xp[off[j]];
          for (int q = 0; q < G; ++q) acc[j][q] += v * dv[q];
        }
      }
    }
  }
  for (int j = 0; j < R; ++j) {
    for (int q = 0; q < G; ++q) {
      for (int64_t l = 0; l < kL; ++l) {
        const int64_t o = o0 + q * kL + l;
        if (o < st.out_c) grad[o * col_rows + r0 + j] = acc[j][q][l];
      }
    }
  }
}

// Rows [r0, r1) of one out-channel group: tiles of R rows, then at most
// one tile each of R/2, R/4, ... rows for the remainder.
template <typename V, int R, int G>
void dw_rows(const BackwardStage& st, int64_t r0, int64_t r1, int64_t o0, float* grad) {
  for (; r0 + R <= r1; r0 += R) dw_tile<V, R, G>(st, r0, o0, grad);
  if constexpr (R > 1) dw_rows<V, R / 2, G>(st, r0, r1, o0, grad);
}

// dW += the column formulation's dY · colsᵀ over a (row block ×
// out-channel group) grid; every dW element is owned by one tile.
template <typename V, int G>
void weight_grad(const BackwardStage& st, float* grad) {
  constexpr int R = kDwRows<V, G>;
  const int64_t col_rows = st.g.col_rows();
  const int64_t row_blocks = (col_rows + R - 1) / R;
  const int64_t groups = st.ocp / (G * kLanes<V>);
  parallel_for(0, row_blocks * groups, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t r0 = (t / groups) * R;
      dw_rows<V, R, G>(st, r0, std::min(col_rows, r0 + R), (t % groups) * G * kLanes<V>, grad);
    }
  });
}

// One dX register tile: samples [i0, i0 + R) × input-channel lanes
// [c0, c0 + |V|), every pixel of their planes (dx arrives zeroed). Each
// pixel starts at +0.0 and adds, in col2im's (kh, kw) order, one term
// per tap that reads it; each term is the out-channel chain of the
// Wᵀ·dY product, one multiply-add per out channel in ascending order
// from +0.0.
template <typename V, int R>
void dx_tile(const BackwardStage& st, int64_t i0, int64_t c0, float* dx) {
  constexpr int64_t kL = kLanes<V>;
  const int64_t in_c = st.g.in_c, plane = st.plane(), sample = st.spatial * st.ocp;
  const int64_t width = std::min(kL, in_c - c0);
  const float* dyt = st.dyt + i0 * sample;
  for (int64_t px = 0; px < plane; ++px) {
    if (st.first[px] == st.first[px + 1]) continue;  // no tap reads it: dx stays +0
    V acc[R];
    for (int j = 0; j < R; ++j) acc[j] = V{};
    for (int64_t e = st.first[px]; e < st.first[px + 1]; ++e) {
      const float* w = st.wt + st.taps[e].tap * st.out_c * st.cp + c0;
      const float* d = dyt + st.taps[e].pos * st.ocp;
      V t[R];
      for (int j = 0; j < R; ++j) t[j] = V{};
      for (int64_t o = 0; o < st.out_c; ++o, w += st.cp) {
        V wv;
        std::memcpy(&wv, w, sizeof(V));
        for (int j = 0; j < R; ++j) t[j] += d[j * sample + o] * wv;
      }
      for (int j = 0; j < R; ++j) acc[j] += t[j];
    }
    for (int j = 0; j < R; ++j) {
      float* out = dx + ((i0 + j) * in_c + c0) * plane + px;
      for (int64_t l = 0; l < width; ++l) out[l * plane] = acc[j][l];
    }
  }
}

// Samples [i0, i1) of one input-channel chunk: tiles of R samples, then
// at most one tile each of R/2, R/4, ... samples for the remainder.
template <typename V, int R>
void dx_samples(const BackwardStage& st, int64_t i0, int64_t i1, int64_t c0, float* dx) {
  for (; i0 + R <= i1; i0 += R) dx_tile<V, R>(st, i0, c0, dx);
  if constexpr (R > 1) dx_samples<V, R / 2>(st, i0, i1, c0, dx);
}

// dX = col2im(Wᵀ·dY) over a (sample block × input-channel chunk) grid;
// every dX element is owned by one tile.
template <typename V>
void input_grad(const BackwardStage& st, float* dx) {
  constexpr int R = kDxSamples;
  const int64_t blocks = (st.n + R - 1) / R;
  const int64_t chunks = st.cp / kLanes<V>;
  parallel_for(0, blocks * chunks, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i0 = (t / chunks) * R;
      dx_samples<V, R>(st, i0, std::min(st.n, i0 + R), (t % chunks) * kLanes<V>, dx);
    }
  });
}

// Stages the backward's operands for input x, gradient dy and weights
// [out_c, g.col_rows()] in the calling thread's arena, valid until the
// caller's Workspace::Scope ends. ocp and cp round the channels up to
// the lanes weight_grad and input_grad run: 8, 16 or two 16s for the
// out channels, 4, 8 or 16 for the input channels.
BackwardStage stage_backward(const Tensor& x, const Tensor& dy, const ConvGeometry& g,
                             const float* weight, int64_t out_c) {
  const int64_t n = x.size(0), in_c = g.in_c, h = g.in_h, w = g.in_w, k = g.kernel_w;
  const int64_t oh = g.out_h(), ow = g.out_w(), s = g.stride, pad = g.pad;
  const int64_t plane = h * w, spatial = oh * ow, kk = k * k;
  const int64_t ocp = out_channel_lanes(out_c);
  const int64_t cp = round_up(in_c, in_c <= 4 ? 4 : in_c <= 8 ? 8 : 16);

  const InputPlanes in = stage_input(x, g);
  Workspace& ws = Workspace::tls();
  float* dyt = ws.floats(static_cast<size_t>(n * spatial * ocp));
  parallel_for(0, n, work_grain(spatial * ocp), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      transpose_dy(dy.data() + i * out_c * spatial, out_c, spatial, ocp, dyt + i * spatial * ocp);
    }
  });

  float* wt = ws.floats(static_cast<size_t>(kk * out_c * cp));
  for (int64_t t = 0; t < kk; ++t) {
    for (int64_t o = 0; o < out_c; ++o) {
      float* dst = wt + (t * out_c + o) * cp;
      for (int64_t c = 0; c < cp; ++c) dst[c] = c < in_c ? weight[(o * in_c + c) * kk + t] : 0.0f;
    }
  }
  auto* first = static_cast<int64_t*>(ws.get(static_cast<size_t>(plane + 1) * sizeof(int64_t)));
  auto* taps = static_cast<BackwardStage::Tap*>(
      ws.get(static_cast<size_t>(plane * kk) * sizeof(BackwardStage::Tap)));
  first[0] = 0;
  for (int64_t iy = 0, px = 0; iy < h; ++iy) {
    for (int64_t ix = 0; ix < w; ++ix, ++px) {
      int64_t e = first[px];
      for (int64_t kh = 0; kh < k; ++kh) {
        const int64_t ny = iy + pad - kh;
        if (ny < 0 || ny % s != 0 || ny / s >= oh) continue;
        for (int64_t kw = 0; kw < k; ++kw) {
          const int64_t nx = ix + pad - kw;
          if (nx < 0 || nx % s != 0 || nx / s >= ow) continue;
          taps[e++] = {static_cast<int32_t>(kh * k + kw),
                       static_cast<int32_t>((ny / s) * ow + nx / s)};
        }
      }
      first[px + 1] = e;
    }
  }
  return {g, in, n, out_c, oh, ow, spatial, ocp, cp, dyt, wt, taps, first};
}

// The narrow-plane forward's staged operands, shared read-only by every
// tile: the input planes; the weights as [col_rows, ocp], one
// out-channel vector per column-matrix row, lanes past out_c zero; and
// `at`, where each output position's patch starts in the planes, over
// the (sample, oy, ox) axis flattened across the batch and padded to
// whole blocks by repeating the last position.
struct ForwardStage {
  const ConvGeometry& g;
  InputPlanes in;
  int64_t out_c, spatial, positions, ocp;
  const float* wt;
  const int64_t* at;
  ConvBias bias;
  bool relu;
};

// Output positions per forward block: one 8×8 register transpose.
constexpr int64_t kFwdBlock = 8;

ForwardStage stage_forward(const Tensor& x, const ConvGeometry& g, const float* weight,
                           int64_t out_c, ConvBias bias, bool relu) {
  const int64_t n = x.size(0), oh = g.out_h(), ow = g.out_w(), s = g.stride;
  const int64_t col_rows = g.col_rows(), ocp = out_channel_lanes(out_c);
  const InputPlanes in = stage_input(x, g);
  Workspace& ws = Workspace::tls();
  float* wt = ws.floats(static_cast<size_t>(col_rows * ocp));
  for (int64_t r = 0; r < col_rows; ++r) {
    for (int64_t o = 0; o < ocp; ++o) wt[r * ocp + o] = o < out_c ? weight[o * col_rows + r] : 0.0f;
  }
  const int64_t positions = n * oh * ow;
  auto* at = static_cast<int64_t*>(
      ws.get(static_cast<size_t>(round_up(positions, kFwdBlock)) * sizeof(int64_t)));
  int64_t p = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) at[p++] = i * in.sample + (oy * in.pw + ox) * s;
    }
  }
  for (; p % kFwdBlock != 0; ++p) at[p] = at[positions - 1];
  return {g, in, out_c, oh * ow, positions, ocp, wt, at, bias, relu};
}

// One forward register tile: output positions at[0, R) × out-channel
// lanes [o0, o0 + G*|V|), the out channels in the vector lanes, into
// out. Each output starts at +0.0 and takes one multiply-add per
// column-matrix row in ascending order — the column lowering's chain.
template <typename V, int R, int G>
void fwd_tile(const ForwardStage& st, const int64_t* at, int64_t o0, V (*out)[G]) {
  constexpr int64_t kL = kLanes<V>;
  const float* base[R];
  V acc[R][G];
  for (int j = 0; j < R; ++j) {
    base[j] = st.in.data + at[j];
    for (int q = 0; q < G; ++q) acc[j][q] = V{};
  }
  const float* w = st.wt + o0;
  const int64_t col_rows = st.g.col_rows();
  for (int64_t r = 0; r < col_rows; ++r, w += st.ocp) {
    V wv[G];
    for (int q = 0; q < G; ++q) std::memcpy(&wv[q], w + q * kL, sizeof(V));
    const int64_t off = st.in.offset[r];
    for (int j = 0; j < R; ++j) {
      const float v = base[j][off];
      for (int q = 0; q < G; ++q) acc[j][q] += v * wv[q];
    }
  }
  for (int j = 0; j < R; ++j) {
    for (int q = 0; q < G; ++q) out[j][q] = acc[j][q];
  }
}

// Writes channel o of the block's positions [p0, p0 + count) (sums holds
// them in its lanes, p0 at sample i0 and spatial index sp0) to y, after
// the epilogue: the bias (the channel's, or its per-position plane),
// then the ReLU when set (v < 0 -> 0, as relu_inplace).
void store_channel(const ForwardStage& st, int64_t o, const Vec8& sums, int64_t i0, int64_t sp0,
                   int64_t count, float* y) {
  const int64_t spatial = st.spatial;
  Vec8 v = sums;
  if (st.bias.per_position) {
    const float* plane = st.bias.data + o * spatial;
    Vec8 b;
    for (int64_t j = 0, sp = sp0; j < kFwdBlock; ++j, sp = sp + 1 == spatial ? 0 : sp + 1) {
      b[j] = plane[sp];
    }
    v += b;
  } else if (st.bias.data != nullptr) {
    v += st.bias.data[o];
  }
  if (st.relu) v = v < Vec8{} ? Vec8{} : v;
  float* dst = y + (i0 * st.out_c + o) * spatial + sp0;
  if (count == kFwdBlock && sp0 + kFwdBlock <= spatial) {
    std::memcpy(dst, &v, sizeof(Vec8));
    return;
  }
  for (int64_t j = 0, sp = sp0; j < count; ++j, ++sp, ++dst) {
    if (sp == spatial) {  // on to the next sample's plane of channel o
      sp = 0;
      dst += (st.out_c - 1) * spatial;
    }
    *dst = v[j];
  }
}

// One block: positions [p0, p0 + kFwdBlock) × out-channel lanes
// [o0, o0 + G*|V|), in tiles of R positions, stored through 8×8
// register transposes as whole runs of one channel's positions.
template <typename V, int G>
void fwd_block(const ForwardStage& st, int64_t p0, int64_t o0, float* y) {
  constexpr int R = kFwdRows<V, G>;
  V out[kFwdBlock][G];
  for (int64_t j = 0; j < kFwdBlock; j += R) fwd_tile<V, R, G>(st, st.at + p0 + j, o0, out + j);
  const int64_t count = std::min(kFwdBlock, st.positions - p0);
  const int64_t i0 = p0 / st.spatial, sp0 = p0 % st.spatial;
  for (int q = 0; q < G; ++q) {
    for (int64_t h = 0; h < kLanes<V>; h += 8) {
      const int64_t c0 = o0 + q * kLanes<V> + h;
      if (c0 >= st.out_c) return;
      Vec8 r[8];
      for (int j = 0; j < 8; ++j) {
        std::memcpy(&r[j], reinterpret_cast<const float*>(&out[j][q]) + h, sizeof(Vec8));
      }
      transpose8(r);
      for (int64_t k = 0; k < std::min<int64_t>(8, st.out_c - c0); ++k) {
        store_channel(st, c0 + k, r[k], i0, sp0, count, y);
      }
    }
  }
}

// y = the conv over a (position block × out-channel group) grid; every
// output is owned by one tile.
template <typename V, int G>
void narrow_conv(const ForwardStage& st, float* y) {
  constexpr int64_t kGroup = G * kLanes<V>;
  const int64_t blocks = (st.positions + kFwdBlock - 1) / kFwdBlock;
  const int64_t groups = st.ocp / kGroup;
  parallel_for(0, groups * blocks, work_grain(st.g.col_rows() * kFwdBlock * kGroup),
               [&](int64_t t0, int64_t t1) {
                 for (int64_t t = t0; t < t1; ++t) {
                   fwd_block<V, G>(st, (t % blocks) * kFwdBlock, (t / blocks) * kGroup, y);
                 }
               });
}
}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
               int64_t pad, bool bias)
    : Layer(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(this->name() + ".weight", {out_c, in_c, kernel, kernel}, /*prunable=*/true) {
  if (has_bias_) bias_ = Parameter(this->name() + ".bias", {out_c}, /*prunable=*/false);
}

ConvGeometry Conv2d::geometry(int64_t h, int64_t w) const {
  return ConvGeometry{in_c_, h, w, kernel_, kernel_, stride_, pad_};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  SB_PROFILE_SCOPE("conv2d.fwd");
  if (obs::profiling_enabled()) obs::count("conv2d.fwd.calls");
  const ConvGeometry g = conv_geometry(name(), x, in_c_, kernel_, stride_, pad_);
  if (train) cached_input_ = x;
  return conv2d_eval(x, g, weight_.data.data(), out_c_,
                     {has_bias_ ? bias_.data.data() : nullptr}, /*relu=*/false);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  SB_PROFILE_SCOPE("conv2d.bwd");
  if (obs::profiling_enabled()) obs::count("conv2d.bwd.calls");
  if (cached_input_.empty()) throw std::logic_error(name() + ": backward before forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeometry g = geometry(h, w);
  const int64_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  if (grad_out.dim() != 4 || grad_out.size(0) != n || grad_out.size(1) != out_c_ ||
      grad_out.size(2) != oh || grad_out.size(3) != ow) {
    throw std::invalid_argument(name() + ": grad shape " + to_string(grad_out.shape()) +
                                " does not match output shape " +
                                to_string({n, out_c_, oh, ow}));
  }
  Workspace::Scope scope;
  const BackwardStage st = stage_backward(x, grad_out, g, weight_.data.data(), out_c_);
  if (obs::profiling_enabled()) {
    obs::count("conv2d.bwd.macs",
               n * out_c_ * (g.col_rows() * spatial + in_c_ * st.first[st.plane()]));
  }
  float* grad = weight_.grad.data();
  if (out_c_ <= 8) {
    weight_grad<Vec8, 1>(st, grad);
  } else if (out_c_ <= 16) {
    weight_grad<Vec16, 1>(st, grad);
  } else {
    weight_grad<Vec16, 2>(st, grad);
  }
  Tensor dx(x.shape());
  if (in_c_ <= 4) {
    input_grad<Vec4>(st, dx.data());
  } else if (in_c_ <= 8) {
    input_grad<Vec8>(st, dx.data());
  } else {
    input_grad<Vec16>(st, dx.data());
  }
  if (has_bias_) {
    float* bg = bias_.grad.data();
    const float* gp = grad_out.data();
    // Channel-outer so each bg[c] is owned by one chunk and accumulates
    // its per-sample sums in ascending-i order — the same order as the
    // old sample-outer loop, hence bit-identical for any thread count.
    parallel_for(0, out_c_, work_grain(n * spatial), [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t i = 0; i < n; ++i) {
          const float* src = gp + (i * out_c_ + c) * spatial;
          double s = 0.0;
          for (int64_t sp = 0; sp < spatial; ++sp) s += src[sp];
          bg[c] += static_cast<float>(s);
        }
      }
    });
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Conv2d::output_sample_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return {out_c_, g.out_h(), g.out_w()};
}

int64_t Conv2d::flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  // One multiply-add per weight per output spatial position.
  return g.out_h() * g.out_w() * weight_.numel();
}

int64_t Conv2d::effective_flops(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_c_) {
    throw std::invalid_argument(name() + ": bad sample shape " + to_string(in));
  }
  const ConvGeometry g = geometry(in[1], in[2]);
  return g.out_h() * g.out_w() * ops::count_nonzero(weight_.mask);
}

ConvGeometry conv_geometry(const std::string& who, const Tensor& x, int64_t in_c, int64_t kernel,
                           int64_t stride, int64_t pad) {
  check_nchw(who, x, in_c);
  const ConvGeometry g{in_c, x.size(2), x.size(3), kernel, kernel, stride, pad};
  if (g.out_h() <= 0 || g.out_w() <= 0) {
    throw std::invalid_argument(who + ": input " + to_string(x.shape()) + " too small");
  }
  return g;
}

Tensor conv2d_eval(const Tensor& x, const ConvGeometry& g, const float* weight, int64_t out_c,
                   ConvBias bias, bool relu) {
  if (g.out_w() >= kDirectMinOutW) return conv2d_direct_eval(x, g, weight, out_c, bias, relu);
  Tensor y({x.size(0), out_c, g.out_h(), g.out_w()});
  if (y.numel() == 0) return y;
  Workspace::Scope scope;
  const ForwardStage st = stage_forward(x, g, weight, out_c, bias, relu);
  if (out_c <= 8) {
    narrow_conv<Vec8, 1>(st, y.data());
  } else if (out_c <= 16) {
    narrow_conv<Vec16, 1>(st, y.data());
  } else {
    narrow_conv<Vec16, 2>(st, y.data());
  }
  return y;
}

}  // namespace shrinkbench
