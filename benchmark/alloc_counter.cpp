// Global operator new/delete for the benchmark binary only: every heap
// allocation made through new by any thread, library code included, bumps
// two relaxed atomic counters, so a workload can report exact allocations
// per request or per batch. Memory comes from malloc/aligned_alloc as usual.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<int64_t> g_calls{0};
std::atomic<int64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  // aligned_alloc wants the size to be a multiple of the alignment.
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

namespace sbbench {

AllocCount alloc_count() {
  return {g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace sbbench

void* operator new(std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new[](std::size_t n) { return alloc_or_throw(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
