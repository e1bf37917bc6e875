// Convolution lowerings for NCHW images onto GEMM. Padding is implicit
// zero padding. Two layouts of the same patch data exist, and each one
// serves the products whose operand it makes contiguous:
//
// - Column matrix [C*kh*kw, out_h*out_w] (im2col / im2col_ld): one row
//   per (channel, kernel position), one column per output position. It is
//   the B operand of Y = W · cols, so the eval forward (conv2d_eval and
//   conv2d_csr_eval, in cache-sized sample blocks) and nothing else uses
//   it. col2im / col2im_ld / col2im_channels_ld are its adjoint: Conv2d's
//   backward scatters dcols = Wᵀ·dY back into dX with col2im_channels_ld.
//
// - Patch rows [out_h*out_w, C*kh*kw] (im2row): the transpose, one row
//   per output position. Conv2d's backward lowers its cached input into
//   this layout for the weight gradient dW += dY · patches, whose B
//   operand then packs contiguous rows instead of one strided load per
//   float. The values match im2col's element for element, so the GEMM
//   packs, and accumulates, exactly the same numbers.
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
/// block of images becomes one [col_rows, n*col_cols] GEMM operand.
void im2col_ld(const ConvGeometry& g, const float* image, float* cols, int64_t ld);
void col2im_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image);

/// Serial channel-range col2im for fused-grid tiles whose caller owns the
/// parallelism: scatters `channels` consecutive channels' column rows
/// into their image planes. `cols` points at the tile's first row — the
/// (first channel, kh=0, kw=0) row — and `image` at the first channel's
/// plane, so the tile is self-contained and geometry-relative. Each
/// kernel offset's in-bounds output span is computed once per call, so
/// the inner loops are plain (strided) adds; every pixel still
/// accumulates in (c, kh, kw, y, x) order.
void col2im_channels_ld(const ConvGeometry& g, const float* cols, int64_t ld, float* image,
                        int64_t channels);

/// Serial patch-row lowering of one image: rows is [col_cols, col_rows]
/// contiguous, row y*out_w + x holding the (c, kh, kw) patch under output
/// position (y, x) — the transpose of im2col. Consecutive images' rows
/// stack, so image i of a batch starts at rows + i * col_cols * col_rows.
/// A padded geometry first copies the image into a zero-bordered plane
/// stack in the calling thread's arena, so each patch segment is a plain
/// kernel_w-float copy.
void im2row(const ConvGeometry& g, const float* image, float* rows);

}  // namespace shrinkbench
