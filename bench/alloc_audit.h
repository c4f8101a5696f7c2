// Global counting allocator for steady-state allocation audits.
//
// Replaces ::operator new/delete with malloc/free wrappers that bump an
// atomic counter, optionally gated by a flag so surrounding harness
// machinery (gtest, google-benchmark setup) is not measured. Shared by
// tests/allocation_test.cc, bench_micro, bench_mesh_10k and
// bench_service_churn so the audit has exactly one definition — including
// the C++17 over-aligned overloads, which a per-file copy can silently
// miss.
//
// Include from exactly ONE translation unit per binary: replacement
// operator new/delete definitions must not be inline, so a second
// including TU in the same binary would violate the one-definition rule.
// (Each audit binary is a single .cc; the aspen library never includes
// this header.)

#ifndef ASPEN_BENCH_ALLOC_AUDIT_H_
#define ASPEN_BENCH_ALLOC_AUDIT_H_

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace aspen {
namespace allocaudit {

/// When false (the default), allocations pass through uncounted.
inline std::atomic<bool> g_counting{false};
inline std::atomic<uint64_t> g_allocs{0};

inline void SetCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
inline void ResetCount() { g_allocs.store(0, std::memory_order_relaxed); }
inline uint64_t Count() { return g_allocs.load(std::memory_order_relaxed); }

/// Heap in use, in bytes, summed over every glibc arena: the blocks served
/// from the arenas (uordblks) plus the ones served by mmap (hblkhd — by
/// default every block of 128 KiB or more, such as an n-sized table on a
/// large mesh).
inline size_t HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Counted malloc / aligned_alloc; nullptr on failure (the nothrow forms).
inline void* CountedMalloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

inline void* CountedAlignedAlloc(std::size_t size,
                                 std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::aligned_alloc(static_cast<std::size_t>(align), size);
}

inline void* CountedAlloc(std::size_t size) {
  void* p = CountedMalloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* CountedAllocAligned(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace allocaudit
}  // namespace aspen

void* operator new(std::size_t size) {
  return aspen::allocaudit::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return aspen::allocaudit::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return aspen::allocaudit::CountedAllocAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return aspen::allocaudit::CountedAllocAligned(size, align);
}
// The nothrow forms (std::get_temporary_buffer, used by stable_sort, asks
// for these). Left unreplaced they would bypass the count, and a sanitizer
// that supplies its own would pair them with the free() below as a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return aspen::allocaudit::CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return aspen::allocaudit::CountedMalloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return aspen::allocaudit::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return aspen::allocaudit::CountedAlignedAlloc(size, align);
}

// The replaced operator new above allocates with malloc/aligned_alloc, so
// freeing with free() is correct; GCC's -Wmismatched-new-delete cannot see
// the pairing when these deletes inline into a linked library's static
// initializers, so silence that one diagnostic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // ASPEN_BENCH_ALLOC_AUDIT_H_
