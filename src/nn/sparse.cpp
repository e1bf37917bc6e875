#include "nn/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/threadpool.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {

CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols, float tol) {
  // col_idx is int32_t; wider matrices would silently wrap the indices.
  if (cols > std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument("csr_from_dense: cols " + std::to_string(cols) +
                                " exceeds int32 column-index range");
  }
  CsrMatrix csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.resize(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = dense + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      if (!(std::fabs(row[c]) <= tol)) {  // keeps NaN
        csr.col_idx.push_back(static_cast<int32_t>(c));
        csr.values.push_back(row[c]);
      }
    }
    csr.row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(csr.values.size());
  }
  return csr;
}

void csr_matmul(const CsrMatrix& csr, const float* dense_in, int64_t n, float* dense_out) {
  // Rows are independent (each writes only its own out_row and reduces in
  // ascending-entry order within itself), so fanning out over static
  // contiguous row blocks is bit-identical to the serial loop for every
  // SB_THREADS — the thread-pool determinism contract. Grain is sized by
  // the average row's multiply-add work.
  const int64_t avg_row_work =
      csr.rows == 0 ? 0 : (csr.nnz() * n) / std::max<int64_t>(csr.rows, 1) + n;
  parallel_for(0, csr.rows, work_grain(avg_row_work), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* out_row = dense_out + r * n;
      std::fill(out_row, out_row + n, 0.0f);
      const int64_t begin = csr.row_ptr[static_cast<size_t>(r)];
      const int64_t end = csr.row_ptr[static_cast<size_t>(r) + 1];
      for (int64_t e = begin; e < end; ++e) {
        const float v = csr.values[static_cast<size_t>(e)];
        const float* in_row = dense_in + csr.col_idx[static_cast<size_t>(e)] * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += v * in_row[j];
      }
    }
  });
}

Tensor csr_to_dense(const CsrMatrix& csr) {
  Tensor dense({csr.rows, csr.cols});
  for (int64_t r = 0; r < csr.rows; ++r) {
    for (int64_t e = csr.row_ptr[static_cast<size_t>(r)];
         e < csr.row_ptr[static_cast<size_t>(r) + 1]; ++e) {
      dense(r, csr.col_idx[static_cast<size_t>(e)]) = csr.values[static_cast<size_t>(e)];
    }
  }
  return dense;
}

namespace {

// GCC vector extensions: one register-tile row of 16 output columns, or
// 8 when the output rows are at most 8 wide. Arithmetic on them compiles
// to the same (fused) multiply-adds as csr_matmul's scalar loop.
using Vec16 = float __attribute__((vector_size(64)));
using Vec8 = float __attribute__((vector_size(32)));

// Register tiles: R output rows × O output channels × one vector of
// columns, R*O independent accumulators to hide the multiply-add
// latency. Dense rows share their taps' offsets, so a staged input
// vector loaded once feeds all O channels; CSR rows differ per row and
// take O = 1. With 512-bit vectors (32 registers): 4 rows × 4 channels
// for dense rows, 8 rows for CSR ones. Without (16 registers, two per
// Vec16): 2 rows × 2 channels, or 4 rows of one channel.
#if defined(__AVX512F__)
constexpr int kTileRows = 8, kTileChans = 4, kTileAccs = 16;
#else
constexpr int kTileRows = 4, kTileChans = 2, kTileAccs = 4;
#endif

// Output rows of a tile over O channels.
template <int O>
constexpr int kRowsOf = std::min(kTileRows, kTileAccs / O);

// The direct conv's per-sample input: for each input channel and each
// (kh mod s, kw mod s) phase a kernel tap can take, the zero-bordered
// image sampled at stride s. Tap (c, kh, kw) under output (oy, ox) reads
// element (oy + kh/s, ox + kw/s) of phase plane (c, kh mod s, kw mod s),
// so every tap reads a contiguous run along ox at any stride, and a
// padding tap reads a stored zero, as im2col's zero entries.
struct PhasePlanes {
  int64_t phases_h, phases_w;  // min(stride, kernel) per axis
  int64_t rows, cols;          // phase-plane extent
  int64_t plane;               // rows * cols

  explicit PhasePlanes(const ConvGeometry& g)
      : phases_h(std::min(g.stride, g.kernel_h)),
        phases_w(std::min(g.stride, g.kernel_w)),
        rows(g.out_h() + (g.kernel_h - 1) / g.stride),
        cols(g.out_w() + (g.kernel_w - 1) / g.stride),
        plane(rows * cols) {}

  int64_t floats(const ConvGeometry& g) const { return g.in_c * phases_h * phases_w * plane; }

  // offset[row]: where column-matrix row `row` = (c, kh, kw) reads output
  // (0, 0), for every row of g's column matrix.
  void offsets(const ConvGeometry& g, int64_t* offset) const {
    const int64_t s = g.stride;
    for (int64_t c = 0; c < g.in_c; ++c) {
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
          *offset++ = ((c * phases_h + kh % s) * phases_w + kw % s) * plane + (kh / s) * cols +
                      kw / s;
        }
      }
    }
  }

  // Writes the phase planes of one [in_c, in_h, in_w] image.
  void stage(const ConvGeometry& g, const float* image, float* dst) const {
    const int64_t s = g.stride;
    for (int64_t c = 0; c < g.in_c; ++c) {
      const float* chan = image + c * g.in_h * g.in_w;
      for (int64_t py = 0; py < phases_h; ++py) {
        for (int64_t px = 0; px < phases_w; ++px, dst += plane) {
          // Phase columns [lo, hi) land inside the image: xx * s + px - pad
          // in [0, in_w).
          const int64_t first = px - g.pad;
          const int64_t lo = std::min(cols, first >= 0 ? 0 : (s - 1 - first) / s);
          const int64_t last = g.in_w - 1 - first;
          const int64_t hi = std::max(lo, last < 0 ? 0 : std::min(cols, last / s + 1));
          for (int64_t yy = 0; yy < rows; ++yy) {
            float* d = dst + yy * cols;
            const int64_t iy = yy * s + py - g.pad;
            if (iy < 0 || iy >= g.in_h) {
              std::fill(d, d + cols, 0.0f);
              continue;
            }
            const float* row = chan + iy * g.in_w;
            std::fill(d, d + lo, 0.0f);
            if (s == 1) {
              std::copy(row + lo + first, row + hi + first, d + lo);
            } else {
              for (int64_t xx = lo; xx < hi; ++xx) d[xx] = row[xx * s + first];
            }
            std::fill(d + hi, d + cols, 0.0f);
          }
        }
      }
    }
  }
};

// The taps of O output rows: their staged offsets, which the rows share,
// and the values, row k's from value + k * stride.
struct Taps {
  const int64_t* offset;
  const float* value;
  int64_t count;
  int64_t stride;
};

// One output plane's epilogue, in conv_epilogue's order: its channel's
// bias, or its per-position bias plane (row pitch ow), or nothing; then
// the ReLU when set. Over O channels, channel k reads bias[k] or the
// plane k planes on.
struct Epilogue {
  const float* bias;
  const float* plane;
  bool relu;
};

// One register tile: R output rows × one vector of columns of O output
// planes (row pitch ow, `spatial` floats apart) whose first element is
// out[at], from the staged sample at `src` (the tile's first row and
// column; row pitch `pitch`). Each element starts at +0.0 and takes one
// multiply-add per tap in ascending order — csr_matmul's arithmetic over
// CSR entries, and the column lowering's over a dense row — then the
// epilogue. Only the first `width` columns are stored.
template <typename V, int R, int O>
[[gnu::always_inline]] inline void direct_tile(const float* src, int64_t pitch, Taps taps,
                                               Epilogue ep, float* out, int64_t spatial,
                                               int64_t at, int64_t ow, int64_t width) {
  constexpr int64_t kLanes = sizeof(V) / sizeof(float);
  V acc[O][R];
  for (int k = 0; k < O; ++k) {
    for (int r = 0; r < R; ++r) acc[k][r] = V{};
  }
  for (int64_t e = 0; e < taps.count; ++e) {
    const float* p = src + taps.offset[e];
    for (int k = 0; k < O; ++k) {
      const float v = taps.value[k * taps.stride + e];
      for (int r = 0; r < R; ++r) {
        V x;
        std::memcpy(&x, p + r * pitch, sizeof(V));
        acc[k][r] += x * v;
      }
    }
  }
  for (int k = 0; k < O; ++k) {
    for (int r = 0; r < R; ++r) {
      const int64_t row = at + r * ow;
      V y = acc[k][r];
      if (ep.bias != nullptr) {
        y += ep.bias[k];
      } else if (ep.plane != nullptr) {
        const float* plane = ep.plane + k * spatial + row;
        V b{};
        if (width == kLanes) {
          std::memcpy(&b, plane, sizeof(V));
        } else {
          for (int64_t j = 0; j < width; ++j) b[j] = plane[j];
        }
        y += b;
      }
      if (ep.relu) y = y < V{} ? V{} : y;
      float* dst = out + k * spatial + row;
      if (width == kLanes) {
        std::memcpy(dst, &y, sizeof(V));
      } else {
        for (int64_t j = 0; j < width; ++j) dst[j] = y[j];
      }
    }
  }
}

// Output rows [y0, oh) of the column strip at x0: tiles of R rows, then
// at most one tile each of R/2, R/4, ... rows for the remainder.
template <typename V, int R, int O>
[[gnu::always_inline]] inline void direct_rows(const float* stage, int64_t pitch, Taps taps,
                                               Epilogue ep, float* out, int64_t spatial,
                                               int64_t ow, int64_t x0, int64_t width, int64_t y0,
                                               int64_t oh) {
  for (; y0 + R <= oh; y0 += R) {
    direct_tile<V, R, O>(stage + y0 * pitch + x0, pitch, taps, ep, out, spatial, y0 * ow + x0,
                         ow, width);
  }
  if constexpr (R > 1) {
    direct_rows<V, R / 2, O>(stage, pitch, taps, ep, out, spatial, ow, x0, width, y0, oh);
  }
}

// Output planes [oh, ow] of O weight rows over the staged sample `stage`.
// The tile levels are forced inline into their caller: left to the
// inliner, the blocked tiles were called out of line and ran slower.
template <typename V, int O>
[[gnu::always_inline]] inline void direct_plane(const float* stage, int64_t pitch, Taps taps,
                                                Epilogue ep, int64_t oh, int64_t ow, float* out) {
  constexpr int64_t kW = sizeof(V) / sizeof(float);
  for (int64_t x0 = 0; x0 < ow; x0 += kW) {
    direct_rows<V, kRowsOf<O>, O>(stage, pitch, taps, ep, out, oh * ow, ow, x0,
                                  std::min(kW, ow - x0), 0, oh);
  }
}

// `channels` consecutive dense output planes, from the first's taps,
// epilogue and plane: blocks of O channels, then at most one block each
// of O/2, O/4, ... channels for the remainder. Kept out of direct_conv's
// loop nest: inlined there, the blocked tile's O weight-row pointers did
// not fit the registers left over and were reloaded from the stack on
// every tap.
template <typename V, int O>
[[gnu::noinline]] void direct_channels(const float* stage, int64_t pitch, Taps taps, Epilogue ep,
                                       int64_t oh, int64_t ow, float* out, int64_t channels) {
  const int64_t spatial = oh * ow;
  for (; channels >= O; channels -= O) {
    direct_plane<V, O>(stage, pitch, taps, ep, oh, ow, out);
    taps.value += O * taps.stride;
    if (ep.bias != nullptr) ep.bias += O;
    if (ep.plane != nullptr) ep.plane += O * spatial;
    out += O * spatial;
  }
  if constexpr (O > 1) direct_channels<V, O / 2>(stage, pitch, taps, ep, oh, ow, out, channels);
}

// The weight rows the direct driver convolves: nnz CSR entries (row o's
// are [row_ptr[o], row_ptr[o + 1]), their column-matrix rows in col_idx),
// or dense [out_c, g.col_rows()] rows whose every tap is taken — a +0
// weight included.
struct DirectRows {
  const float* value;
  const int64_t* row_ptr;
  const int32_t* col_idx;
  int64_t nnz;
};

// The direct convolution of conv2d_csr_eval (kDense false) and
// conv2d_direct_eval: stages each sample's phase planes once per chunk
// and runs every output plane of its channel tiles through direct_tile,
// dense rows kTileChans channels at a time, CSR rows one at a time.
template <bool kDense>
Tensor direct_conv(const Tensor& x, const ConvGeometry& g, int64_t out_c, DirectRows w,
                   ConvBias bias, bool relu) {
  const int64_t n = x.size(0), col_rows = g.col_rows();
  const int64_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  const int64_t image_numel = g.in_c * g.in_h * g.in_w;
  Tensor y({n, out_c, oh, ow});
  const PhasePlanes pp(g);
  // Scratch lives in the thread-local arenas: after warm-up, steady-state
  // forwards perform zero heap allocations. Taps decode to their staged
  // offsets once per call: the table over the column rows serves dense
  // rows as is and CSR entries through their column indices.
  Workspace::Scope scope;
  int64_t* off = static_cast<int64_t*>(
      Workspace::tls().get(static_cast<size_t>(col_rows + w.nnz) * sizeof(int64_t)));
  int64_t* row_offset = off + w.nnz;
  pp.offsets(g, row_offset);
  for (int64_t e = 0; e < w.nnz; ++e) off[e] = row_offset[w.col_idx[e]];
  // A row's last vector may read past the staged planes' end; the slack
  // keeps those (never stored) lanes inside the allocation.
  const int64_t stage_floats = pp.floats(g) + static_cast<int64_t>(sizeof(Vec16) / sizeof(float));
  const bool narrow = ow <= static_cast<int64_t>(sizeof(Vec8) / sizeof(float));
  const auto epilogue = [&](int64_t o) {
    return Epilogue{bias.data != nullptr && !bias.per_position ? bias.data + o : nullptr,
                    bias.per_position ? bias.data + o * spatial : nullptr, relu};
  };
  // Fused (sample × out-channel-tile) grid: every output plane is
  // computed whole by one tile, so y is bit-identical at every thread
  // count.
  const Grid2d grid(n, out_c, 1, kMinOcPerTile, ThreadPool::instance().threads());
  parallel_for(0, grid.tiles(), 1, [&](int64_t t_lo, int64_t t_hi) {
    Workspace::Scope tile_scope;
    float* stage = Workspace::tls().floats(static_cast<size_t>(stage_floats));
    std::fill(stage + pp.floats(g), stage + stage_floats, 0.0f);
    int64_t t = t_lo;
    while (t < t_hi) {
      // Tile ids are channel-fastest: stage each sample of the range once
      // for every channel tile this chunk owns in the row.
      const int64_t i0 = grid.tile0(t);
      const int64_t row_end = std::min(t_hi, (i0 + 1) * grid.tiles1());
      const Grid2d::Range s = grid.range0(i0);
      for (int64_t i = s.lo; i < s.hi; ++i) {
        pp.stage(g, x.data() + i * image_numel, stage);
        for (int64_t u = t; u < row_end; ++u) {
          const Grid2d::Range cr = grid.range1(grid.tile1(u));
          if constexpr (kDense) {
            const Taps taps{row_offset, w.value + cr.lo * col_rows, col_rows, col_rows};
            float* out = y.data() + (i * out_c + cr.lo) * spatial;
            if (narrow) {
              direct_channels<Vec8, kTileChans>(stage, pp.cols, taps, epilogue(cr.lo), oh, ow,
                                                out, cr.hi - cr.lo);
            } else {
              direct_channels<Vec16, kTileChans>(stage, pp.cols, taps, epilogue(cr.lo), oh, ow,
                                                 out, cr.hi - cr.lo);
            }
          } else {
            for (int64_t o = cr.lo; o < cr.hi; ++o) {
              const int64_t begin = w.row_ptr[o];
              const Taps taps{off + begin, w.value + begin, w.row_ptr[o + 1] - begin, 0};
              float* out = y.data() + (i * out_c + o) * spatial;
              if (narrow) {
                direct_plane<Vec8, 1>(stage, pp.cols, taps, epilogue(o), oh, ow, out);
              } else {
                direct_plane<Vec16, 1>(stage, pp.cols, taps, epilogue(o), oh, ow, out);
              }
            }
          }
        }
      }
      t = row_end;
    }
  });
  return y;
}

}  // namespace

Tensor conv2d_csr_eval(const Tensor& x, const ConvGeometry& g, const CsrMatrix& w,
                       const float* bias, bool relu) {
  return direct_conv<false>(x, g, w.rows,
                            {w.values.data(), w.row_ptr.data(), w.col_idx.data(), w.nnz()}, {bias},
                            relu);
}

Tensor conv2d_direct_eval(const Tensor& x, const ConvGeometry& g, const float* weight,
                          int64_t out_c, ConvBias bias, bool relu) {
  return direct_conv<true>(x, g, out_c, {weight, nullptr, nullptr, 0}, bias, relu);
}

Tensor linear_csr_eval(const Tensor& x, const CsrMatrix& w, const float* bias) {
  const int64_t n = x.size(0), in = w.cols;
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  // Transpose x to [in, n] so CSR rows stream over the batch dimension.
  float* xt = ws.floats(static_cast<size_t>(in * n));
  const float* xp = x.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < in; ++j) xt[j * n + i] = xp[i * in + j];
  }
  float* yt = ws.floats(static_cast<size_t>(w.rows * n));
  csr_matmul(w, xt, n, yt);
  Tensor y({n, w.rows});
  float* yp = y.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < w.rows; ++j) {
      yp[i * w.rows + j] = bias != nullptr ? yt[j * n + i] + bias[j] : yt[j * n + i];
    }
  }
  return y;
}

}  // namespace shrinkbench
