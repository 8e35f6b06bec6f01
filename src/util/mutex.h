// Concurrency-contract layer: mutex/condvar wrappers carrying Clang
// thread-safety capability attributes, so lock discipline is checked at
// compile time instead of hoped-for at runtime (DESIGN.md §6), plus the
// runtime half of the lock-rank discipline (DESIGN.md §10).
//
// Under Clang, `-DDJ_THREAD_SAFETY=ON` turns `-Wthread-safety` violations
// into build errors; under GCC every annotation macro expands to nothing,
// so the tree stays portable. tools/check.sh runs the Clang leg when a
// clang++ is available, and a negative-compile test
// (tests/tools/thread_safety_negative) proves the annotations are live.
//
// Lock ranking (util/lock_rank.h): long-lived mutexes are declared with a
// name and a rank from deepjoin::rank —
//
//   Mutex mu_{"threadpool.queue", rank::kPool};
//
// In a binary that links the dj_guard object library (every test binary,
// tools/dj_stats and tools/dj_lockgraph) every Lock/Unlock/Wait maintains
// a thread-local held-locks stack: acquiring a lock whose rank is not
// strictly greater than every held rank aborts with both lock names and
// acquisition sites, and each observed acquired-while-holding edge lands
// in the process-wide LockOrderGraph (dumped by tools/dj_lockgraph). The
// static companion, tools/dj_deadlock, derives the same graph from source
// at lint time.
// Elsewhere lock_rank::Enabled() is false and each wrapper call pays one
// load of that link-time flag and a never-taken branch.
//
// Conventions (enforced by dj_lint rule `raw-mutex`: no std::mutex /
// std::lock_guard / std::condition_variable outside this header):
//  - Every shared mutable field is declared with DJ_GUARDED_BY(mu_).
//  - Every long-lived mutex carries a name and a rank; the default ctor is
//    for portability shims and short-lived test-local locks only
//    (tools/dj_deadlock flags unranked mutexes under src/).
//  - Private helpers that assume the lock is already held are named
//    `*Locked()` and annotated DJ_REQUIRES(mu_).
//  - Prefer scoped MutexLock over manual Lock/Unlock pairs.
//  - CondVar waits are written as explicit `while (!cond) cv.Wait(mu);`
//    loops: the analysis sees the guarded reads under the scoped lock,
//    whereas a predicate lambda would be analyzed out of context.
#ifndef DEEPJOIN_UTIL_MUTEX_H_
#define DEEPJOIN_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>

#include "util/lock_rank.h"

// Thread-safety annotations are a Clang extension; GCC (and any compiler
// without the attribute) compiles them away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DJ_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#endif
#endif
#ifndef DJ_THREAD_ANNOTATION_ATTRIBUTE__
#define DJ_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside Clang
#endif

#define DJ_CAPABILITY(x) DJ_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))
#define DJ_SCOPED_CAPABILITY DJ_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Field annotation: reads/writes require holding the named mutex.
#define DJ_GUARDED_BY(x) DJ_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))
/// Pointer-field annotation: the pointee (not the pointer) is guarded.
#define DJ_PT_GUARDED_BY(x) DJ_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Function annotation: caller must hold the named mutex(es). Use on
/// `*Locked()` helpers.
#define DJ_REQUIRES(...) \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
/// Function annotation: caller must NOT hold the named mutex(es); guards
/// against self-deadlock on non-reentrant locks.
#define DJ_EXCLUDES(...) \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define DJ_ACQUIRE(...) \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define DJ_RELEASE(...) \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define DJ_TRY_ACQUIRE(...) \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// Escape hatch for code the analysis cannot follow (e.g. init/teardown
/// where exclusivity is structural). Use sparingly and leave a comment.
#define DJ_NO_THREAD_SAFETY_ANALYSIS \
  DJ_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace deepjoin {

class CondVar;

/// Annotated wrapper over std::mutex. Non-movable (like std::mutex):
/// classes that must stay movable hold it behind a unique_ptr, as
/// HnswIndex does with its VisitedPool.
///
/// The two-argument constructor names and ranks the lock for the lock-rank
/// discipline. The name and rank are always stored; they are registered
/// and enforced when lock_rank::Enabled().
class DJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  Mutex(const char* name, int rank,
        std::source_location loc = std::source_location::current())
      : name_(name), rank_(rank) {
    if (lock_rank::Enabled()) {
      lock_rank::RegisterLock(name, rank, loc.file_name(), loc.line());
    }
  }

  void Lock(std::source_location loc = std::source_location::current())
      DJ_ACQUIRE() {
    // Validate before blocking: an inversion aborts with a report instead
    // of deadlocking inside mu_.lock().
    if (lock_rank::Enabled()) {
      lock_rank::OnAcquire(this, name_, rank_, loc.file_name(), loc.line());
    }
    mu_.lock();
  }

  void Unlock() DJ_RELEASE() {
    if (lock_rank::Enabled()) lock_rank::OnRelease(this);
    mu_.unlock();
  }

  /// Rank order is NOT enforced for TryLock: a try-acquire cannot block,
  /// so it cannot deadlock. The successful acquisition still lands on the
  /// held stack and in the lock-order graph (where the online cycle check
  /// covers what rank validation skipped).
  bool TryLock(std::source_location loc = std::source_location::current())
      DJ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (lock_rank::Enabled()) {
      lock_rank::OnTryAcquire(this, name_, rank_, loc.file_name(),
                              loc.line());
    }
    return true;
  }

 private:
  friend class CondVar;  // Wait() releases/reacquires during the sleep
  std::mutex mu_;
  const char* name_ = nullptr;  // nullptr = unranked (default ctor)
  int rank_ = rank::kUnranked;
};

/// Scoped lock (RAII): acquires in the constructor, releases in the
/// destructor. The scoped_lockable annotation lets the analysis treat the
/// lock as held for exactly the block that contains the MutexLock.
class DJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     std::source_location loc = std::source_location::current())
      DJ_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(loc);
  }
  ~MutexLock() DJ_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to dj Mutex. Wait() requires the mutex held on
/// entry and guarantees it held again on return; write the condition as an
/// explicit loop so guarded reads stay inside the analyzed lock scope:
///
///   MutexLock lock(mu_);
///   while (!ReadyLocked()) cv_.Wait(mu_);
///
/// Waiting while holding a SECOND lock is a hard error when the lock-rank
/// runtime is on (lock_rank::Enabled()):
/// Wait() releases only `mu`, so any other lock stays held across an
/// unbounded sleep — the thread that is supposed to Notify may first need
/// that very lock, which is the canonical condvar deadlock, and no rank
/// order can excuse it (the sleeping thread holds the lock without
/// progressing). Before this check, such a wait would silently pass and
/// only hang under the right interleaving; now it aborts deterministically
/// with both lock names. On wakeup the re-acquisition of `mu` re-enters
/// rank validation like any fresh acquisition, so a wakeup path that
/// somehow holds a higher-ranked lock is reported too.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, sleeps until notified, reacquires `mu`.
  /// Spurious wakeups happen; always re-check the condition in a loop.
  void Wait(Mutex& mu,
            std::source_location loc = std::source_location::current())
      DJ_REQUIRES(mu) {
    // Pop `mu` (aborting if other locks are held — see the class comment),
    // sleep, then re-validate + re-push: the wakeup re-acquisition must
    // obey rank order exactly like a fresh Lock().
    if (lock_rank::Enabled()) {
      lock_rank::OnCondVarWait(&mu, loc.file_name(), loc.line());
    }
    cv_.wait(mu.mu_);
    if (lock_rank::Enabled()) {
      lock_rank::OnAcquire(&mu, mu.name_, mu.rank_, loc.file_name(),
                           loc.line());
    }
  }

  /// Like Wait but gives up after `timeout`. Returns false on timeout,
  /// true when notified (or spuriously woken) before it. Either way `mu`
  /// is reacquired before returning. The serving layer's blocking waits
  /// are all time-bounded through this overload (see dj_lint rule
  /// `untimed-wait-in-serve`).
  bool WaitFor(Mutex& mu, std::chrono::nanoseconds timeout,
               std::source_location loc = std::source_location::current())
      DJ_REQUIRES(mu) {
    if (lock_rank::Enabled()) {
      lock_rank::OnCondVarWait(&mu, loc.file_name(), loc.line());
    }
    const bool notified =
        cv_.wait_for(mu.mu_, timeout) == std::cv_status::no_timeout;
    if (lock_rank::Enabled()) {
      lock_rank::OnAcquire(&mu, mu.name_, mu.rank_, loc.file_name(),
                           loc.line());
    }
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // _any variant: it takes any BasicLockable, letting us wait directly on
  // the wrapped std::mutex without exposing it to callers.
  std::condition_variable_any cv_;
};

}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_MUTEX_H_
