// Allocation discipline (DESIGN.md §11): the DJ_NOALLOC source annotation
// consumed by tools/dj_alloc, and the declarations of the runtime guard.
//
// The runtime is switched on by linking, not by a build option. Its
// definitions, together with the global operator new/delete replacements
// that feed it, live in the dj_guard object library (util/alloc_guard.cc),
// which every test binary, tools/dj_stats and tools/dj_lockgraph link and
// nothing else does. A binary that names a ScopedAllocBan therefore always
// has the hook behind it; one that does not link dj_guard keeps the
// standard allocator untouched. Linking dj_guard also turns on the
// lock-rank runtime (util/lock_rank.h).
//
// Two scoped guards:
//
//   alloc_guard::ScopedAllocBan ban("hnsw steady-state search");
//     Any heap allocation on THIS thread while the ban is in scope aborts,
//     printing the ban site (file:line + reason) and the allocation size.
//     Bans nest; the innermost ban site is reported. operator delete is
//     never banned — releasing memory back is always legal.
//
//   alloc_guard::ScopedAllocCount tally;
//     Counts this thread's allocations and allocated bytes between
//     construction and the allocations()/bytes() calls. Used by the
//     steady-state tests to double-check a ban's zero.
//
// DJ_NOALLOC is a pure lexical marker (expands to nothing): placing it on
// a function declaration promises the function performs no heap
// allocation on any path. tools/dj_alloc runs a transitive may-allocate
// fixpoint over the call graph and fails the lint label when an annotated
// function can reach an allocation, printing the witness call chain.
// Header declarations are inherited by their .cc definitions, like
// DJ_REQUIRES in tools/dj_deadlock. Known-cold allocations (one-time pool
// warmup, growth of a capacity-reusing scratch buffer) are suppressed at
// the site with `// dj_alloc: allow(alloc)` plus a justification.
#ifndef DEEPJOIN_UTIL_ALLOC_GUARD_H_
#define DEEPJOIN_UTIL_ALLOC_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <source_location>

// Lexical annotation: "this function allocates nothing on any path".
// Enforced statically by tools/dj_alloc; carries no runtime semantics.
#define DJ_NOALLOC

namespace deepjoin {
namespace alloc_guard {

/// Thread-local allocation ban. While any ban is in scope on a thread,
/// operator new (all variants) aborts with the ban site and the requested
/// size. Nested bans are allowed; violations report the innermost site.
class ScopedAllocBan {
 public:
  explicit ScopedAllocBan(
      const char* why,
      std::source_location loc = std::source_location::current());
  ~ScopedAllocBan();
  ScopedAllocBan(const ScopedAllocBan&) = delete;
  ScopedAllocBan& operator=(const ScopedAllocBan&) = delete;

 private:
  const char* prev_why_;
  const char* prev_file_;
  unsigned prev_line_;
};

/// Tally of this thread's allocations since construction. Scopes nest
/// independently (each snapshot the thread totals at construction).
class ScopedAllocCount {
 public:
  ScopedAllocCount();
  /// Allocation calls on this thread since construction.
  std::uint64_t allocations() const;
  /// Bytes requested on this thread since construction.
  std::uint64_t bytes() const;

 private:
  std::uint64_t start_allocs_;
  std::uint64_t start_bytes_;
};

/// Process-wide totals across all threads.
std::uint64_t TotalAllocations();
std::uint64_t TotalBytes();

/// Copies the process-wide totals into the MetricsRegistry
/// (dj_alloc_count, dj_alloc_bytes) so the snapshot path exports them.
/// Called on demand (dj_stats) rather than from the hooks — the hooks run
/// inside operator new, where touching the registry would recurse — and
/// never under a ban (it allocates registry keys on first use).
void PublishMetrics();

}  // namespace alloc_guard
}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_ALLOC_GUARD_H_
