// The dj_guard object library: the runtime half of the allocation
// discipline (see alloc_guard.h) and the switch of the lock-rank runtime
// (see lock_rank.h). Being an object library, it is linked whole into
// every binary that lists it, so the global operator new/delete
// replacements below always come with it (a strong definition in a linked
// object beats libstdc++'s archive default), and so does the strong
// definition of the lock-rank flag.
#include "util/alloc_guard.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "util/lock_rank.h"
#include "util/metrics.h"

namespace deepjoin {

// Replaces lock_rank.cc's weak `false`: linking dj_guard turns the
// lock-rank hooks on.
std::atomic<bool> lock_rank::internal::g_guard_linked{true};

namespace alloc_guard {
namespace {

// Per-thread guard state. Trivially initialised POD on purpose: the hooks
// run inside operator new, and a thread_local with a dynamic initialiser
// would recurse through the allocator during its own setup.
struct ThreadState {
  int ban_depth;
  const char* ban_why;
  const char* ban_file;
  unsigned ban_line;
  std::uint64_t allocs;
  std::uint64_t bytes;
};
thread_local ThreadState g_tls;

std::atomic<std::uint64_t> g_total_allocs{0};
std::atomic<std::uint64_t> g_total_bytes{0};

// Violation path: no allocation allowed here (we ARE the allocator), so
// plain fprintf + abort, mirroring lock_rank's Die().
[[noreturn]] void DieBannedAlloc(std::size_t size) {
  std::fprintf(stderr,
               "[dj_alloc_guard] FATAL: heap allocation of %zu bytes under "
               "ScopedAllocBan(\"%s\") installed at %s:%u\n",
               size, g_tls.ban_why ? g_tls.ban_why : "?",
               g_tls.ban_file ? g_tls.ban_file : "?", g_tls.ban_line);
  std::abort();
}

// Shared body of every operator new variant.
void* GuardedAlloc(std::size_t size, std::size_t align, bool can_throw) {
  ThreadState& s = g_tls;
  if (s.ban_depth > 0) DieBannedAlloc(size);
  ++s.allocs;
  s.bytes += size;
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes.fetch_add(size, std::memory_order_relaxed);
  // malloc(0) may return nullptr; operator new must return a unique
  // pointer, so allocate at least one byte.
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr && can_throw) throw std::bad_alloc();
  return p;
}

}  // namespace

ScopedAllocBan::ScopedAllocBan(const char* why, std::source_location loc)
    : prev_why_(g_tls.ban_why),
      prev_file_(g_tls.ban_file),
      prev_line_(g_tls.ban_line) {
  ThreadState& s = g_tls;
  ++s.ban_depth;
  s.ban_why = why;
  s.ban_file = loc.file_name();
  s.ban_line = loc.line();
}

ScopedAllocBan::~ScopedAllocBan() {
  ThreadState& s = g_tls;
  --s.ban_depth;
  s.ban_why = prev_why_;
  s.ban_file = prev_file_;
  s.ban_line = prev_line_;
}

ScopedAllocCount::ScopedAllocCount()
    : start_allocs_(g_tls.allocs), start_bytes_(g_tls.bytes) {}

std::uint64_t ScopedAllocCount::allocations() const {
  return g_tls.allocs - start_allocs_;
}

std::uint64_t ScopedAllocCount::bytes() const {
  return g_tls.bytes - start_bytes_;
}

std::uint64_t TotalAllocations() {
  return g_total_allocs.load(std::memory_order_relaxed);
}

std::uint64_t TotalBytes() {
  return g_total_bytes.load(std::memory_order_relaxed);
}

void PublishMetrics() {
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
  reg.GetGauge("dj_alloc_count")
      ->Set(static_cast<double>(TotalAllocations()));
  reg.GetGauge("dj_alloc_bytes")->Set(static_cast<double>(TotalBytes()));
}

}  // namespace alloc_guard
}  // namespace deepjoin

// ---- Global operator new/delete replacements ----
// Deletes are never banned (releasing memory is always legal) and route
// straight to free(): every pointer we hand out came from malloc or
// aligned_alloc, both of which free() accepts.

void* operator new(std::size_t size) {
  return deepjoin::alloc_guard::GuardedAlloc(size, 0, /*can_throw=*/true);
}

void* operator new[](std::size_t size) {
  return deepjoin::alloc_guard::GuardedAlloc(size, 0, /*can_throw=*/true);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return deepjoin::alloc_guard::GuardedAlloc(size, 0, /*can_throw=*/false);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return deepjoin::alloc_guard::GuardedAlloc(size, 0, /*can_throw=*/false);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return deepjoin::alloc_guard::GuardedAlloc(
      size, static_cast<std::size_t>(align), /*can_throw=*/true);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return deepjoin::alloc_guard::GuardedAlloc(
      size, static_cast<std::size_t>(align), /*can_throw=*/true);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return deepjoin::alloc_guard::GuardedAlloc(
      size, static_cast<std::size_t>(align), /*can_throw=*/false);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return deepjoin::alloc_guard::GuardedAlloc(
      size, static_cast<std::size_t>(align), /*can_throw=*/false);
}

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
