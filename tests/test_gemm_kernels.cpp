// Linear's register-tiled product, C = C0 + A·B (nn/linear_product.hpp),
// at every lane width a build can pick: 1 lane, 8 lanes (a 256-bit AVX2
// register of floats) and 16 lanes (a 512-bit AVX-512 one), each with the
// tile height Linear uses at that width. A build runs only its own width
// inside Linear; this binary instantiates all three, so each is checked
// on any host. Every element must equal a test-local chain bit for bit:
// from its seed, one multiply-add per p in ascending order, every term
// multiplied. ctest also runs each width alone at SB_THREADS=1, 2 and 4,
// so the row-block fan-out is checked at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "madd.hpp"
#include "nn/linear_product.hpp"
#include "tensor/rng.hpp"

namespace shrinkbench {
namespace {

using linear_product::Product;

// The ways a product can be seeded: its own C0 rows, C0 read from C in
// place (Linear's dW), one row broadcast to every row (the bias), +0.0.
enum class Seed { Rows, InPlace, Broadcast, Zero };

const char* seed_name(Seed s) {
  switch (s) {
    case Seed::Rows: return "rows";
    case Seed::InPlace: return "in place";
    case Seed::Broadcast: return "broadcast";
    case Seed::Zero: return "zero";
  }
  return "?";
}

// Normal values with signed zeros sprinkled in, so a chain that ends on
// zeros keeps or loses its sign exactly as the reference does.
std::vector<float> sprinkled(Rng& rng, int64_t count) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) {
    x = static_cast<float>(rng.normal());
    if (rng.bernoulli(0.2)) x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
  }
  return v;
}

// Runs the product at <Lanes, Rows> for A [m, k] (row-major, or stored
// as its transpose [k, m] when `transposed`) and B [k, n] with padded
// rows, and checks C against the ascending chains.
template <int Lanes, int Rows>
void check(int64_t m, int64_t n, int64_t k, bool transposed, Seed seed, Rng& rng) {
  const int64_t ldb = n + 3, ldc = n + 2;
  const std::vector<float> a = sprinkled(rng, m * k);
  const std::vector<float> b = sprinkled(rng, k * ldb);
  const std::vector<float> c0 = sprinkled(rng, m * ldc);
  const int64_t a_row = transposed ? 1 : k, a_col = transposed ? m : 1;
  std::vector<float> c = seed == Seed::InPlace ? c0 : std::vector<float>(m * ldc, 7.0f);

  std::vector<float> want = c;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      if (seed == Seed::Rows || seed == Seed::InPlace) acc = c0[i * ldc + j];
      if (seed == Seed::Broadcast) acc = c0[j];
      for (int64_t p = 0; p < k; ++p) {
        acc = testing::madd(acc, a[i * a_row + p * a_col], b[p * ldb + j]);
      }
      want[i * ldc + j] = acc;
    }
  }

  Product pr{.m = m, .n = n, .k = k, .a = a.data(), .a_row = a_row, .a_col = a_col,
             .b = b.data(), .ldb = ldb, .c0 = nullptr, .ld0 = 0, .c = c.data(), .ldc = ldc};
  if (seed == Seed::Rows) pr.c0 = c0.data(), pr.ld0 = ldc;
  if (seed == Seed::InPlace) pr.c0 = c.data(), pr.ld0 = ldc;
  if (seed == Seed::Broadcast) pr.c0 = c0.data();
  linear_product::product<Lanes, Rows>(pr);

  // Padding columns past n included: the product writes only [m, n].
  EXPECT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(float)), 0)
      << Lanes << " lanes, " << Rows << " rows: m " << m << " n " << n << " k " << k
      << (transposed ? ", A transposed" : ", A row-major") << ", seed " << seed_name(seed);
}

// m, n and k each run through 1..3*Rows, 1..3*Lanes+1 and 1..33, so the
// products meet every column-vector and row-tile remainder, m = 1 and
// n = 1 included, under each seed and A layout.
template <int Lanes, int Rows>
void generated_shapes() {
  Rng rng(2602 + Lanes);
  const int64_t shapes = std::max<int64_t>(3 * Rows, 3 * Lanes + 1);
  for (int64_t t = 0; t < shapes; ++t) {
    const int64_t m = 1 + t % (3 * Rows), n = 1 + (5 * t) % (3 * Lanes + 1), k = 1 + (7 * t) % 33;
    for (const bool transposed : {false, true}) {
      for (const Seed seed : {Seed::Rows, Seed::InPlace, Seed::Broadcast, Seed::Zero}) {
        check<Lanes, Rows>(m, n, k, transposed, seed, rng);
      }
    }
  }
}

// Large enough that the row blocks split into many chunks, so the pool
// fans them out at every SB_THREADS above 1.
template <int Lanes, int Rows>
void fanned_out() {
  Rng rng(2603 + Lanes);
  for (const bool transposed : {false, true}) {
    for (const Seed seed : {Seed::InPlace, Seed::Broadcast, Seed::Zero}) {
      check<Lanes, Rows>(301, 3 * Lanes + 5, 97, transposed, seed, rng);
    }
  }
}

TEST(GemmKernelScalar, GeneratedShapesMatchAscendingChains) { generated_shapes<1, 8>(); }
TEST(GemmKernelScalar, FannedOutRowBlocksMatchAscendingChains) { fanned_out<1, 8>(); }
TEST(GemmKernelAvx2, GeneratedShapesMatchAscendingChains) { generated_shapes<8, 12>(); }
TEST(GemmKernelAvx2, FannedOutRowBlocksMatchAscendingChains) { fanned_out<8, 12>(); }
TEST(GemmKernelAvx512, GeneratedShapesMatchAscendingChains) { generated_shapes<16, 16>(); }
TEST(GemmKernelAvx512, FannedOutRowBlocksMatchAscendingChains) { fanned_out<16, 16>(); }

// The widths above are the ones the build can pick for Linear.
TEST(GemmKernel, BuildWidthIsOneOfTheCheckedWidths) {
  EXPECT_TRUE((linear_product::kLanes == 8 && linear_product::kRows == 12) ||
              (linear_product::kLanes == 16 && linear_product::kRows == 16));
}

}  // namespace
}  // namespace shrinkbench
