// Clang thread-safety (capability) analysis macros plus the annotated
// synchronization primitives the whole repository funnels through
// (DESIGN.md §5i).
//
// Under Clang the SID_* macros expand to the capability attributes that
// power `-Wthread-safety`: every mutex becomes a declared capability,
// every piece of shared state names the capability that guards it
// (SID_GUARDED_BY), and every function declares what it acquires,
// releases or requires. The compiler then proves — at compile time, on
// every build — that no annotated state is touched without its lock and
// that no lock is acquired twice or released unheld. Under GCC (which
// has no capability analysis) the macros expand to nothing and the
// wrappers cost exactly what std::mutex/std::lock_guard cost.
//
// This header is the single mutex funnel of the repository:
// scripts/lint.py (rule `mutex-funnel`) bans raw std::mutex /
// std::lock_guard / std::unique_lock everywhere else, and
// std::condition_variable everywhere (nothing waits on one), so all
// locking is visible to the analysis. The ThreadSanitizer CI lane
// validates the same discipline dynamically (EXPERIMENTS.md "TSan
// lane").
#pragma once

#include <atomic>
#include <mutex>   // lint:allow mutex-funnel
#include <thread>  // lint:allow thread-funnel

#include "util/check.h"

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define SID_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SID_THREAD_ANNOTATION(x)  // not supported by this compiler
#endif

/// Marks a class as a capability ("mutex", "role", ...). Instances can then
/// appear in SID_GUARDED_BY / SID_REQUIRES expressions.
#define SID_CAPABILITY(x) SID_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability (std::lock_guard shape).
#define SID_SCOPED_CAPABILITY SID_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be read or written while holding `x`.
#define SID_GUARDED_BY(x) SID_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the pointee (not the pointer) is protected by `x`.
#define SID_PT_GUARDED_BY(x) SID_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and exit).
#define SID_REQUIRES(...) \
  SID_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability; it must not be held on entry.
#define SID_ACQUIRE(...) \
  SID_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability; it must be held on entry.
#define SID_RELEASE(...) \
  SID_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define SID_EXCLUDES(...) SID_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held from here on (runtime-checked
/// assertions, e.g. ThreadChecker::check()).
#define SID_ASSERT_CAPABILITY(x) SID_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define SID_RETURN_CAPABILITY(x) SID_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the access is safe.
#define SID_NO_THREAD_SAFETY_ANALYSIS \
  SID_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sid::util {

// ---------------------------------------------------------------------------
// Annotated primitives.
// ---------------------------------------------------------------------------

/// std::mutex with a declared capability. Prefer LockGuard over manual
/// lock()/unlock() pairs.
class SID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SID_ACQUIRE() { mu_.lock(); }
  void unlock() SID_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;  // lint:allow mutex-funnel
};

/// RAII lock for Mutex (std::lock_guard shape, visible to the analysis).
class SID_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) SID_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() SID_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Capability for state that is confined to one thread rather than guarded
/// by a lock (the event-loop state in core/sid_system, for example).
/// Members annotated SID_GUARDED_BY(checker_) can only be touched by
/// functions that called checker_.check() (or declare
/// SID_REQUIRES(checker_)), and check() aborts at runtime if a second
/// thread ever shows up — the dynamic counterpart of the static proof.
///
/// The checker binds to the first thread that calls check(); reset()
/// unbinds it (for objects handed to another thread between runs).
class SID_CAPABILITY("thread role") ThreadChecker {
 public:
  ThreadChecker() = default;

  /// Asserts the calling thread owns this role, binding on first use.
  void check() const SID_ASSERT_CAPABILITY(this) {
    const std::thread::id self =  // lint:allow thread-funnel
        std::this_thread::get_id();
    std::thread::id expected{};  // lint:allow thread-funnel
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first caller: bound
    }
    SID_CHECK(expected == self,
              "ThreadChecker: single-thread state touched from a second "
              "thread");
  }

  /// Unbinds the role so a different thread may take it over. Only safe
  /// when no other thread is concurrently touching the guarded state.
  void reset() SID_ASSERT_CAPABILITY(this) {
    owner_.store(std::thread::id{},  // lint:allow thread-funnel
                 std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::thread::id>  // lint:allow thread-funnel
      owner_{};
};

}  // namespace sid::util
