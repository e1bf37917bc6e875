// Workspace arena tests: scope discipline, alignment, buffer reuse,
// growth + consolidation, and the steady-state no-allocation guarantee
// the hot paths rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "nn/linear.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"

namespace shrinkbench {
namespace {

struct WorkspaceFixture : ::testing::Test {
  void SetUp() override { Workspace::tls().release(); }
  void TearDown() override { Workspace::tls().release(); }
};

bool aligned64(const void* p) { return reinterpret_cast<uintptr_t>(p) % 64 == 0; }

TEST_F(WorkspaceFixture, GetOutsideScopeThrows) {
  EXPECT_THROW(Workspace::tls().get(128), std::logic_error);
}

TEST_F(WorkspaceFixture, AllocationsAreAlignedAndDisjoint) {
  Workspace::Scope scope;
  Workspace& ws = Workspace::tls();
  float* a = ws.floats(100);
  float* b = ws.floats(1);
  char* c = static_cast<char*>(ws.get(3));
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(aligned64(a));
  EXPECT_TRUE(aligned64(b));
  EXPECT_TRUE(aligned64(c));
  // 100 floats round up to 448 bytes; b must start past a's block.
  EXPECT_GE(reinterpret_cast<char*>(b), reinterpret_cast<char*>(a) + 100 * sizeof(float));
  EXPECT_GE(c, reinterpret_cast<char*>(b) + sizeof(float));
  EXPECT_GE(ws.in_use(), 100 * sizeof(float) + 64 + 64);
}

TEST_F(WorkspaceFixture, ScopePopReleasesAndReusesMemory) {
  Workspace& ws = Workspace::tls();
  float* first = nullptr;
  {
    Workspace::Scope scope;
    first = ws.floats(1000);
    EXPECT_GT(ws.in_use(), 0u);
  }
  EXPECT_EQ(ws.in_use(), 0u);
  const size_t cap = ws.capacity();
  const int64_t grows = ws.grow_count();
  {
    Workspace::Scope scope;
    // Same-size allocation after pop reuses the same memory: no growth.
    float* again = ws.floats(1000);
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.grow_count(), grows);
}

TEST_F(WorkspaceFixture, NestedScopesRestoreInLifoOrder) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope outer;
  float* a = ws.floats(10);
  const size_t outer_use = ws.in_use();
  float* inner_ptr = nullptr;
  {
    Workspace::Scope inner;
    inner_ptr = ws.floats(10);
    EXPECT_GT(ws.in_use(), outer_use);
  }
  EXPECT_EQ(ws.in_use(), outer_use);
  // The inner slot is free again: the next allocation lands on it.
  float* b = ws.floats(10);
  EXPECT_EQ(b, inner_ptr);
  (void)a;
}

TEST_F(WorkspaceFixture, GrowthConsolidatesToHighWaterSteadyState) {
  Workspace& ws = Workspace::tls();
  // Force multi-chunk growth: each allocation exceeds what's left.
  {
    Workspace::Scope scope;
    ws.floats(1 << 18);
    ws.floats(1 << 20);
    ws.floats(1 << 21);
  }
  const size_t high = ws.high_water();
  EXPECT_GE(ws.capacity(), high);
  const int64_t grows_after_warmup = ws.grow_count();
  // Steady state: repeating the same allocation pattern never grows the
  // arena again and capacity stays put.
  const size_t cap = ws.capacity();
  for (int iter = 0; iter < 3; ++iter) {
    Workspace::Scope scope;
    ws.floats(1 << 18);
    ws.floats(1 << 20);
    ws.floats(1 << 21);
  }
  EXPECT_EQ(ws.grow_count(), grows_after_warmup);
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.high_water(), high);
}

TEST_F(WorkspaceFixture, ReleaseResetsEverything) {
  Workspace& ws = Workspace::tls();
  {
    Workspace::Scope scope;
    ws.floats(4096);
  }
  EXPECT_GT(ws.capacity(), 0u);
  ws.release();
  EXPECT_EQ(ws.capacity(), 0u);
  EXPECT_EQ(ws.high_water(), 0u);
  EXPECT_EQ(ws.grow_count(), 0);
  EXPECT_EQ(ws.in_use(), 0u);
}

TEST_F(WorkspaceFixture, ReleaseWithLiveScopeThrows) {
  Workspace::Scope scope;
  EXPECT_THROW(Workspace::tls().release(), std::logic_error);
}

TEST_F(WorkspaceFixture, RepeatedLinearStepsReachSteadyState) {
  // Linear's forward stages W^T in the arena; its backward reads dY, x and
  // W in place. After one warm-up step, neither may grow or leak.
  Workspace& ws = Workspace::tls();
  Rng rng(11);
  Linear fc("fc", 300, 128);
  rng.fill_normal(fc.weight().data, 0, 1);
  Tensor x({64, 300}), dy({64, 128});
  rng.fill_normal(x, 0, 1);
  rng.fill_normal(dy, 0, 1);
  const auto step = [&] {
    (void)fc.forward(x, /*train=*/true);
    (void)fc.backward(dy);
  };
  step();  // warm-up
  const int64_t grows = ws.grow_count();
  const size_t cap = ws.capacity();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(ws.grow_count(), grows) << "Linear grew the arena after warm-up";
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.in_use(), 0u) << "Linear leaked arena scratch";
}

}  // namespace
}  // namespace shrinkbench
