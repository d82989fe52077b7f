#include "alloc_meter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace pipebench::alloc_meter {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void on_alloc(void* p) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void on_free(void* p) {
  if (p == nullptr || !g_enabled.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  on_alloc(p);
  return p;
}

void release(void* p) noexcept {
  on_free(p);
  std::free(p);
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace pipebench::alloc_meter

void* operator new(std::size_t size) {
  return pipebench::alloc_meter::allocate(size);
}
void* operator new[](std::size_t size) {
  return pipebench::alloc_meter::allocate(size);
}
void operator delete(void* p) noexcept { pipebench::alloc_meter::release(p); }
void operator delete[](void* p) noexcept {
  pipebench::alloc_meter::release(p);
}
void operator delete(void* p, std::size_t) noexcept {
  pipebench::alloc_meter::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  pipebench::alloc_meter::release(p);
}
