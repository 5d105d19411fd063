/**
 * @file
 * Work-stealing execution core: per-worker Chase–Lev range deques with
 * steal-on-empty and split-on-steal, the engine under every
 * data-parallel loop in the tree (`worksteal_for`) and the
 * ScenarioRunner's splittable scenario × layer-range tasks.
 *
 * The unit of work is an index range [begin, end) over a flat item
 * space. Owners pop ranges LIFO from the bottom of their own deque and
 * execute them one `grain`-sized chunk at a time (re-pushing the tail),
 * so a worker stays on its own cache-warm items; idle workers steal
 * FIFO from the top of a victim's deque and split the stolen range in
 * half, so one coarse task (a BERT ffn behind a bag of tiny convs)
 * spreads across the machine in O(log n) steals instead of pinning the
 * batch tail to a single worker.
 *
 * Determinism contract: the core only decides *which worker* runs a
 * chunk and in *what order* — callers must make every item's result a
 * pure function of its index (the repo-wide seeds-from-position rule),
 * and then an N-worker run is bit-identical to an inline one under any
 * steal order (pinned by the adversarial-scheduler tests).
 *
 * The first exception thrown wins and flips a relaxed cancel flag that
 * every worker checks per chunk, so siblings stop at the next chunk
 * boundary instead of draining their remaining ranges.
 *
 * With 1 effective worker (including `BITWAVE_THREADS=1`) or a body
 * already running inside a worker (nesting), the loop runs inline on
 * the caller — no thread, deque, or allocation is constructed. A
 * single-worker loop marks the caller's frame as a pool marks its
 * workers', so loops nested in its body run inline too: a loop bounded
 * to one worker uses one core, however deep its body nests.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace bitwave {

/// Worker threads to use for @p n independent items; respects the
/// BITWAVE_THREADS environment override, else hardware concurrency.
int parallel_threads(std::size_t n);

/// Scheduling knobs of one worksteal_run() call.
struct WorkstealOptions
{
    /// Worker threads; 0 = parallel_threads(n), 1 = inline on caller
    /// (nested loops included).
    int threads = 0;
    /// Maximum items executed per chunk between scheduler checks.
    std::size_t grain = 1;
    /**
     * Adversarial test scheduler: when non-zero, every worker draws
     * from a deterministic (seed, worker) stream and randomly steals
     * *before* emptying its own deque and visits victims in seeded
     * order, forcing steal/split paths that a quiet machine would
     * rarely take. Results must be bit-identical for any seed — that
     * is the determinism contract the tests pin. Never set outside
     * tests.
     */
    std::uint64_t chaos_seed = 0;
};

/// Scheduling diagnostics of one worksteal_run() call.
struct WorkstealStats
{
    int threads_used = 1;
    std::int64_t chunks = 0;  ///< Body invocations (grain-sized).
    std::int64_t steals = 0;  ///< Successful cross-worker steals.
};

namespace detail {

/// Depth of parallel frames on this thread: workers and single-worker
/// callers hold depth 1 so nested loops run inline instead of
/// oversubscribing the machine.
int &parallel_depth();

WorkstealStats
worksteal_run_impl(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)> &body,
                   const WorkstealOptions &options);

}  // namespace detail

/**
 * Execute `body(begin, end)` over disjoint chunks covering [0, n), each
 * at most `options.grain` items, on a work-stealing pool of
 * `options.threads` workers. Chunk boundaries and execution order are
 * scheduling details; the body must make results independent of both.
 * The first exception is rethrown on the caller after all workers stop.
 */
template <typename Body>
WorkstealStats
worksteal_run(std::size_t n, Body &&body, const WorkstealOptions &options = {})
{
    return detail::worksteal_run_impl(
        n, std::function<void(std::size_t, std::size_t)>(body), options);
}

/**
 * Run `fn(i)` for every i in [0, n) on up to @p threads workers
 * (0 = parallel_threads(n)). Iterations must be independent — results
 * must not depend on which worker runs an index. The first exception is
 * rethrown on the caller after all workers stop; a call reached from
 * inside a worker runs inline, so parallelism belongs to the outermost
 * loop.
 */
template <typename Fn>
WorkstealStats
worksteal_for(std::size_t n, Fn &&fn, int threads = 0, std::size_t grain = 1)
{
    WorkstealOptions options;
    options.threads = threads;
    options.grain = grain;
    return worksteal_run(
        n,
        [&fn](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                fn(i);
            }
        },
        options);
}

}  // namespace bitwave
