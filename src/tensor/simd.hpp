// The vector instruction tier of this build. Every kernel fixes its
// vector width at compile time (the `#if defined(__AVX512F__)` branches
// in nn/conv2d.cpp, nn/sparse.cpp and nn/linear_product.hpp), so the tier is a
// property of the build flags (-march), not of the host or the
// environment. The run manifest, the telemetry host block and the
// benchmark's host fingerprint record it, so runs of different builds
// are never compared as if they were the same.
#pragma once

namespace shrinkbench::simd {

enum class Level { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Avx512 when the build targets AVX-512F and BW, Avx2 when it targets
/// AVX2 and FMA, else Scalar.
constexpr Level active_level() {
#if defined(__AVX512F__) && defined(__AVX512BW__)
  return Level::Avx512;
#elif defined(__AVX2__) && defined(__FMA__)
  return Level::Avx2;
#else
  return Level::Scalar;
#endif
}

constexpr const char* level_name(Level level) {
  switch (level) {
    case Level::Avx512: return "avx512";
    case Level::Avx2: return "avx2";
    case Level::Scalar: return "scalar";
  }
  return "unknown";
}

}  // namespace shrinkbench::simd
