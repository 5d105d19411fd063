#include "common/worksteal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <numeric>
#include <thread>
#include <utility>
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

/// Shared state of one worksteal_run() call: the chunk cursor, the
/// cancel flag and the first error.
struct Pool
{
    const std::function<void(std::size_t, std::size_t)> *body = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    /// Chunk handed out at each cursor position; empty = index order.
    std::vector<std::size_t> order;

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancel{false};
    MutexCap error_mutex;
    std::exception_ptr first_error GUARDED_BY(error_mutex);

    /// Claim chunks until the cursor passes the last one or a body
    /// throws; the first exception cancels every worker's next claim.
    void run_worker()
    {
        while (!cancel.load(std::memory_order_relaxed)) {
            const std::size_t c =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks) {
                return;
            }
            const std::size_t begin = (order.empty() ? c : order[c]) * grain;
            try {
                (*body)(begin, std::min(n, begin + grain));
            } catch (...) {
                {
                    MutexLock lock(error_mutex);
                    if (!first_error) {
                        first_error = std::current_exception();
                    }
                }
                cancel.store(true, std::memory_order_relaxed);
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
    // (BITWAVE_THREADS=1 lands here), or nothing to split. No thread or
    // allocation is constructed — the caller's thread runs the loop. A
    // single worker marks its frame as pool workers do, so loops nested
    // in the body stay on this thread too: one worker is one core.
    if (parallel_depth() > 0 || threads <= 1 || n <= grain) {
        const FrameMark frame(threads <= 1);
        body(0, n);
        stats.chunks = 1;
        return stats;
    }

    Pool pool;
    pool.body = &body;
    pool.n = n;
    pool.grain = grain;
    pool.chunks = (n + grain - 1) / grain;
    threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads), pool.chunks));
    if (options.chaos_seed != 0) {
        // The chaos scheduler hands the chunks out in a seeded
        // Fisher–Yates permutation instead of index order.
        pool.order.resize(pool.chunks);
        std::iota(pool.order.begin(), pool.order.end(), std::size_t{0});
        Rng rng(options.chaos_seed);
        for (std::size_t i = pool.chunks - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(i)));
            std::swap(pool.order[i], pool.order[j]);
        }
    }

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads) - 1);
    for (int t = 1; t < threads; ++t) {
        workers.emplace_back([&pool] {
            detail::parallel_depth() = 1;  // nested loops run inline
            pool.run_worker();
        });
    }
    {
        // The caller is a worker too; restore its frame depth afterwards.
        const FrameMark frame(true);
        pool.run_worker();
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
    stats.chunks = static_cast<std::int64_t>(pool.chunks);
    return stats;
}

}  // namespace bitwave
