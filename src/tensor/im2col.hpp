// Convolution lowering of NCHW images onto a matrix product. Padding is
// implicit zero padding. The column matrix [C*kh*kw, out_h*out_w] (im2col /
// im2col_ld) has one row per (channel, kernel position) and one column
// per output position; Y = W · cols is the conv. No src/ code lowers
// through it: every conv forward and backward reads its input planes
// directly (nn/conv2d, nn/sparse), in the order this lowering
// accumulates. im2col is the tests' reference formulation and the
// BM_Im2col host probe; col2im / col2im_ld are its adjoint scatter, the
// order the direct backward's dX follows. ConvGeometry is the geometry
// every conv kernel shares.
#pragma once

#include <cstdint>

namespace shrinkbench {

struct ConvGeometry {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// Rows of the column matrix: one per (channel, kernel position).
  int64_t col_rows() const { return in_c * kernel_h * kernel_w; }
  /// Columns of the column matrix: one per output spatial position.
  int64_t col_cols() const { return out_h() * out_w(); }
};

/// image: [in_c, in_h, in_w] contiguous; cols: [col_rows, col_cols] contiguous.
void im2col(const ConvGeometry& g, const float* image, float* cols);

/// Inverse scatter-add of im2col: accumulates cols back into image.
/// The caller must zero `image` beforehand if accumulation from a clean
/// slate is desired.
void col2im(const ConvGeometry& g, const float* cols, float* image);

/// Strided variants for batching: one image's columns are written into a
/// wider matrix whose rows are `ld` floats apart (ld >= col_cols), so a
/// block of images becomes one [col_rows, n*col_cols] product operand.
void im2col_ld(const ConvGeometry& g, const float* image, float* cols, int64_t ld);
void col2im_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image);

}  // namespace shrinkbench
