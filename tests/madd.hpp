// One multiply-add of a test-local reference chain, c + a*b, fused exactly
// when the library's kernels fuse it. The Release flags (-O3 -march=native)
// contract the kernels' a*b + c into one FMA on an FMA host, but a plain
// reference loop may not get the same treatment: the vectorizer can split
// it into vector multiplies and an in-order chain of scalar adds. So the
// references spell the fused case out.
#pragma once

#include <cmath>

namespace shrinkbench::testing {

inline float madd(float c, float a, float b) {
#if defined(__FMA__) && defined(__OPTIMIZE__)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

}  // namespace shrinkbench::testing
