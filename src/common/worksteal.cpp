#include "common/worksteal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"

namespace bitwave {

int
parallel_threads(std::size_t n)
{
    int threads = static_cast<int>(env_positive_int("BITWAVE_THREADS", 0));
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    threads = std::max(threads, 1);
    return static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads),
                              std::max<std::size_t>(n, 1)));
}

int &
detail::parallel_depth()
{
    thread_local int depth = 0;
    return depth;
}

namespace {

/// Marks this thread's frame for one scope (@p mark) and restores the
/// previous depth on exit, exceptions included.
class FrameMark
{
  public:
    explicit FrameMark(bool mark) : saved_(detail::parallel_depth())
    {
        if (mark) {
            detail::parallel_depth() = 1;
        }
    }
    ~FrameMark() { detail::parallel_depth() = saved_; }
    FrameMark(const FrameMark &) = delete;
    FrameMark &operator=(const FrameMark &) = delete;

  private:
    int saved_;
};

/// A [begin, end) range packed into one lock-free word (32 bits each;
/// the impl falls back to inline execution before n can overflow).
std::uint64_t
pack_range(std::size_t begin, std::size_t end)
{
    return (static_cast<std::uint64_t>(begin) << 32) |
           static_cast<std::uint64_t>(end);
}

void
unpack_range(std::uint64_t packed, std::size_t *begin, std::size_t *end)
{
    *begin = static_cast<std::size_t>(packed >> 32);
    *end = static_cast<std::size_t>(packed & 0xFFFFFFFFULL);
}

/**
 * Chase–Lev work-stealing deque of packed ranges with a fixed circular
 * buffer. The owner pushes and pops at the bottom; thieves steal from
 * the top. Index loads/stores use seq_cst ordering (the original
 * sequentially-consistent formulation) rather than standalone fences —
 * marginally more synchronization on the owner's path, but every
 * ordering is expressed on an atomic access, which ThreadSanitizer
 * models exactly (standalone atomic_thread_fence is not instrumented),
 * so the CI TSan job verifies the real protocol. Slots are atomics as
 * well: a thief may read a slot the owner is concurrently recycling,
 * and the subsequent CAS on top_ discards the stale value.
 */
class RangeDeque
{
  public:
    static constexpr std::size_t kCapacity = 1024;  // power of two

    /// Owner-only (or pre-start seeding). False when full — the caller
    /// must then execute the range itself instead of queueing it.
    bool push_bottom(std::uint64_t v)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        if (b - t >= static_cast<std::int64_t>(kCapacity)) {
            return false;
        }
        slots_[static_cast<std::size_t>(b) & kMask].store(
            v, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_seq_cst);
        return true;
    }

    /// Owner-only: LIFO pop from the bottom.
    bool pop_bottom(std::uint64_t *out)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        bottom_.store(b, std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        if (t <= b) {
            *out = slots_[static_cast<std::size_t>(b) & kMask].load(
                std::memory_order_relaxed);
            if (t == b) {
                // Last element: race the thieves for it via top_.
                const bool won = top_.compare_exchange_strong(
                    t, t + 1, std::memory_order_seq_cst,
                    std::memory_order_seq_cst);
                bottom_.store(b + 1, std::memory_order_seq_cst);
                return won;
            }
            return true;
        }
        bottom_.store(b + 1, std::memory_order_seq_cst);
        return false;
    }

    /// Any thread: FIFO steal from the top.
    bool steal_top(std::uint64_t *out)
    {
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b) {
            return false;
        }
        const std::uint64_t v =
            slots_[static_cast<std::size_t>(t) & kMask].load(
                std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
            return false;  // lost the race; the value read is stale
        }
        *out = v;
        return true;
    }

  private:
    static constexpr std::size_t kMask = kCapacity - 1;

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<std::uint64_t> slots_[kCapacity];
};

/// Shared state of one worksteal_run() call.
struct Pool
{
    const std::function<void(std::size_t, std::size_t)> *body = nullptr;
    std::size_t grain = 1;
    int threads = 1;
    std::uint64_t chaos_seed = 0;

    std::vector<std::unique_ptr<RangeDeque>> deques;
    std::atomic<std::size_t> remaining{0};  ///< Items not yet executed.
    std::atomic<bool> cancel{false};
    MutexCap error_mutex;
    std::exception_ptr first_error GUARDED_BY(error_mutex);
    std::atomic<std::int64_t> chunks{0};
    std::atomic<std::int64_t> steals{0};

    /// Run body(begin, begin+chunk) guarding the cancel protocol.
    /// Returns false when the pool is cancelled.
    bool run_chunk(std::size_t begin, std::size_t end)
    {
        if (cancel.load(std::memory_order_relaxed)) {
            return false;
        }
        try {
            (*body)(begin, end);
        } catch (...) {
            {
                MutexLock lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
            cancel.store(true, std::memory_order_relaxed);
            return false;
        }
        chunks.fetch_add(1, std::memory_order_relaxed);
        remaining.fetch_sub(end - begin, std::memory_order_relaxed);
        return true;
    }

    /// Execute a range one grain chunk at a time, re-pushing the tail
    /// onto the worker's own deque so it stays stealable. When the
    /// deque is full the tail executes inline — correctness never
    /// depends on queueing.
    void execute_range(int worker, std::size_t begin, std::size_t end)
    {
        while (begin < end) {
            const std::size_t chunk_end =
                std::min(end, begin + grain);
            if (chunk_end < end &&
                deques[static_cast<std::size_t>(worker)]->push_bottom(
                    pack_range(chunk_end, end))) {
                run_chunk(begin, chunk_end);
                return;  // tail queued; resume from the scheduler loop
            }
            if (!run_chunk(begin, chunk_end)) {
                return;
            }
            begin = chunk_end;
        }
    }

    /// Steal one range for @p worker, splitting large ranges in half so
    /// coarse tasks spread in O(log n) steals. @p rng orders victims
    /// when the adversarial scheduler is active.
    bool try_steal(int worker, Rng *rng, std::size_t *begin,
                   std::size_t *end)
    {
        for (int probe = 1; probe < threads; ++probe) {
            int victim;
            if (rng != nullptr) {
                victim = static_cast<int>(
                    rng->uniform_int(0, threads - 1));
                if (victim == worker) {
                    continue;
                }
            } else {
                victim = (worker + probe) % threads;
            }
            std::uint64_t packed = 0;
            if (!deques[static_cast<std::size_t>(victim)]->steal_top(
                    &packed)) {
                continue;
            }
            steals.fetch_add(1, std::memory_order_relaxed);
            unpack_range(packed, begin, end);
            if (*end - *begin > grain) {
                // Keep the front half; the back half becomes stealable
                // from this worker's own deque.
                const std::size_t mid =
                    *begin + (*end - *begin + 1) / 2;
                if (deques[static_cast<std::size_t>(worker)]->push_bottom(
                        pack_range(mid, *end))) {
                    *end = mid;
                }
            }
            return true;
        }
        return false;
    }

    void run_worker(int worker)
    {
        detail::parallel_depth() = 1;  // nested loops run inline
        RangeDeque &own = *deques[static_cast<std::size_t>(worker)];
        std::unique_ptr<Rng> chaos;
        if (chaos_seed != 0) {
            chaos = std::make_unique<Rng>(
                chaos_seed * 0x9E3779B97F4A7C15ULL +
                static_cast<std::uint64_t>(worker));
        }
        while (!cancel.load(std::memory_order_relaxed) &&
               remaining.load(std::memory_order_relaxed) > 0) {
            std::size_t begin = 0, end = 0;
            bool got = false;
            // Adversarial mode steals *before* draining the own deque
            // half the time, forcing the cross-worker paths.
            if (chaos && chaos->bernoulli(0.5)) {
                got = try_steal(worker, chaos.get(), &begin, &end);
            }
            if (!got) {
                std::uint64_t packed = 0;
                if (own.pop_bottom(&packed)) {
                    unpack_range(packed, &begin, &end);
                    got = true;
                }
            }
            if (!got) {
                got = try_steal(worker, chaos.get(), &begin, &end);
            }
            if (got) {
                execute_range(worker, begin, end);
            } else {
                std::this_thread::yield();
            }
        }
    }
};

}  // namespace

WorkstealStats
detail::worksteal_run_impl(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &body,
    const WorkstealOptions &options)
{
    WorkstealStats stats;
    if (n == 0) {
        return stats;
    }
    int threads = options.threads;
    if (threads <= 0) {
        threads = parallel_threads(n);
    }
    const std::size_t grain = std::max<std::size_t>(options.grain, 1);

    // Inline paths: nested frames, a single effective worker
    // (BITWAVE_THREADS=1 lands here), nothing to split, or an index
    // space too large for the packed ranges. No thread, deque, or
    // allocation is constructed — the caller's thread runs the loop. A
    // single worker marks its frame as pool workers do, so loops nested
    // in the body stay on this thread too: one worker is one core.
    if (parallel_depth() > 0 || threads <= 1 || n <= grain ||
        n > 0xFFFFFFFFULL) {
        const FrameMark frame(threads <= 1);
        body(0, n);
        stats.chunks = 1;
        return stats;
    }

    Pool pool;
    pool.body = &body;
    pool.grain = grain;
    pool.threads = threads;
    pool.chaos_seed = options.chaos_seed;
    pool.remaining.store(n, std::memory_order_relaxed);
    pool.deques.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        pool.deques.push_back(std::make_unique<RangeDeque>());
    }
    // Seed each worker with one coarse contiguous slice; stealing and
    // split-on-steal redistribute whatever turns out to be uneven. The
    // adversarial scheduler hands the slices out in reversed worker
    // order so every index also runs under a different initial owner.
    const std::size_t per =
        (n + static_cast<std::size_t>(threads) - 1) /
        static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
        const std::size_t begin = static_cast<std::size_t>(t) * per;
        const std::size_t end = std::min(n, begin + per);
        const int owner =
            options.chaos_seed != 0 ? threads - 1 - t : t;
        if (begin < end) {
            pool.deques[static_cast<std::size_t>(owner)]->push_bottom(
                pack_range(begin, end));
        }
    }

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads) - 1);
    for (int t = 1; t < threads; ++t) {
        workers.emplace_back([&pool, t] { pool.run_worker(t); });
    }
    {
        // The caller is worker 0; restore its frame depth afterwards.
        const FrameMark frame(true);
        pool.run_worker(0);
    }
    for (auto &w : workers) {
        w.join();
    }
    {
        // Workers have joined, but the analysis (rightly) wants the
        // guarded slot read under its mutex.
        MutexLock lock(pool.error_mutex);
        if (pool.first_error) {
            std::rethrow_exception(pool.first_error);
        }
    }
    stats.threads_used = threads;
    stats.chunks = pool.chunks.load(std::memory_order_relaxed);
    stats.steals = pool.steals.load(std::memory_order_relaxed);
    return stats;
}

}  // namespace bitwave
