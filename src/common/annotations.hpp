/**
 * @file
 * Clang thread-safety annotations + annotated synchronization wrappers —
 * the compile-time half of the concurrency contract.
 *
 * Every lock-guarded structure in the tree (MPMC queue, LRU caches,
 * metrics registry, log sink, fault registry, trace rings, worksteal
 * pool, evaluation service) declares *which* mutex guards *which* data
 * with these macros, and Clang's `-Wthread-safety` analysis turns a
 * forgotten lock into a build error instead of a lucky TSan catch. The
 * CI static-analysis job compiles the whole tree with
 * `-Wthread-safety -Werror`; off Clang every macro expands to nothing,
 * so GCC builds (and the TSan/ASan jobs) are unaffected.
 *
 * The wrappers exist because the analysis is intra-procedural: it does
 * not see through `std::lock_guard`'s constructor, so annotated code
 * uses
 *
 *  - `MutexCap` — a capability-annotated mutex. It satisfies
 *    Lockable, so `std::lock_guard` and `std::unique_lock` still work
 *    on it in un-analyzed code;
 *  - `MutexLock` — the SCOPED_CAPABILITY RAII guard the analysis
 *    tracks exactly;
 *  - `CondVarCap` — a condition variable whose waits are annotated
 *    `REQUIRES(m)`. Predicate waits become explicit while-loops in the
 *    caller (which holds the capability), the one place the std
 *    predicate-lambda shape and the analysis disagree.
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define BITWAVE_TSA(x) __attribute__((x))
#else
#define BITWAVE_TSA(x)  // no-op off Clang
#endif

/// Marks a class as a lockable capability ("mutex").
#define CAPABILITY(x) BITWAVE_TSA(capability(x))

/// Marks an RAII class whose ctor acquires and dtor releases a
/// capability.
#define SCOPED_CAPABILITY BITWAVE_TSA(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define GUARDED_BY(x) BITWAVE_TSA(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define PT_GUARDED_BY(x) BITWAVE_TSA(pt_guarded_by(x))

/// Function requires the capability held (exclusive) on entry and exit.
#define REQUIRES(...) BITWAVE_TSA(requires_capability(__VA_ARGS__))

/// Function acquires the capability (exclusive) and does not release it.
#define ACQUIRE(...) BITWAVE_TSA(acquire_capability(__VA_ARGS__))

/// Function releases the capability (exclusive).
#define RELEASE(...) BITWAVE_TSA(release_capability(__VA_ARGS__))

/// Function releases the capability whether held shared or exclusive
/// (the right annotation for a scoped guard's destructor).
#define RELEASE_GENERIC(...) \
    BITWAVE_TSA(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success value.
#define TRY_ACQUIRE(...) BITWAVE_TSA(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability
/// (non-reentrancy / deadlock documentation).
#define EXCLUDES(...) BITWAVE_TSA(locks_excluded(__VA_ARGS__))

/// Asserts (at analysis level) that the capability is already held.
#define ASSERT_CAPABILITY(x) BITWAVE_TSA(assert_capability(x))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) BITWAVE_TSA(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use
/// carries a comment justifying why (e.g. a deliberately lock-free
/// read of a published-once slot).
#define NO_THREAD_SAFETY_ANALYSIS BITWAVE_TSA(no_thread_safety_analysis)

namespace bitwave {

/**
 * `std::mutex` with the capability annotation. Lockable, so std lock
 * guards work on it; annotated code uses MutexLock so the analysis
 * tracks the critical section.
 */
class CAPABILITY("mutex") MutexCap
{
  public:
    MutexCap() = default;
    MutexCap(const MutexCap &) = delete;
    MutexCap &operator=(const MutexCap &) = delete;

    void lock() ACQUIRE() { mutex_.lock(); }
    void unlock() RELEASE() { mutex_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

    /// The underlying std::mutex — the seam CondVarCap waits through
    /// (std::condition_variable only accepts std::mutex).
    std::mutex &native() { return mutex_; }

  private:
    std::mutex mutex_;
};

/// RAII exclusive lock on a MutexCap (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(MutexCap &mutex) ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }
    ~MutexLock() RELEASE_GENERIC() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    MutexCap &mutex_;
};

/**
 * Condition variable for MutexCap critical sections. Waits are
 * annotated REQUIRES(m) — the capability is held on entry, released
 * for the duration of the block, and re-held on return — so guarded
 * predicates are checked in the *caller's* while-loop:
 *
 *     MutexLock lock(mutex_);
 *     while (!ready_) {          // ready_ GUARDED_BY(mutex_): checked
 *         cv_.wait(mutex_);
 *     }
 */
class CondVarCap
{
  public:
    void wait(MutexCap &mutex) REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        cv_.wait(lock);
        lock.release();  // ownership stays with the caller's guard
    }

    /// Bounded wait; std::cv_status::timeout when @p deadline passed.
    template <typename Clock, typename Duration>
    std::cv_status
    wait_until(MutexCap &mutex,
               const std::chrono::time_point<Clock, Duration> &deadline)
        REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        const std::cv_status status = cv_.wait_until(lock, deadline);
        lock.release();
        return status;
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

}  // namespace bitwave
