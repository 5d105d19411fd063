/**
 * @file
 * Chunk-cursor execution core: the engine under every data-parallel
 * loop in the tree (`worksteal_for`) and the ScenarioRunner's
 * (scenario, layer) units.
 *
 * The unit of work is an index range [begin, end) over a flat item
 * space, cut into `grain`-sized chunks. Every worker, the caller
 * included, claims the next chunk with one relaxed `fetch_add` on a
 * shared cursor and returns once the cursor passes the last chunk: an
 * idle worker joins instead of spinning, and a worker that draws a
 * slow chunk simply claims fewer. Callers size their chunks so one is
 * worth far more than the atomic it costs (the runner's is a layer
 * evaluation).
 *
 * Determinism contract: the core only decides *which worker* runs a
 * chunk and in *what order* — callers must make every item's result a
 * pure function of its index (the repo-wide seeds-from-position rule),
 * and then an N-worker run is bit-identical to an inline one under any
 * chunk order (pinned by the chaos-scheduler tests, which hand the
 * chunks out in a seeded permutation).
 *
 * The first exception thrown wins and flips a relaxed cancel flag that
 * every worker checks before each chunk, so siblings stop at their
 * next chunk boundary instead of draining the cursor.
 *
 * With 1 effective worker (including `BITWAVE_THREADS=1`) or a body
 * already running inside a worker (nesting), the loop runs inline on
 * the caller — no thread or allocation is constructed. A single-worker
 * loop marks the caller's frame as a pool marks its workers', so loops
 * nested in its body run inline too: a loop bounded to one worker uses
 * one core, however deep its body nests.
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
     * Chaos test scheduler: when non-zero, the cursor hands the chunks
     * out in a Fisher–Yates permutation drawn from Rng(chaos_seed)
     * instead of index order, so each worker runs its chunks out of
     * order, beside chunks it would not otherwise meet. Results must be
     * bit-identical for any seed — that is the determinism contract the
     * tests pin. Never set outside tests.
     */
    std::uint64_t chaos_seed = 0;
};

/// Scheduling diagnostics of one worksteal_run() call.
struct WorkstealStats
{
    int threads_used = 1;     ///< Workers started, the caller included.
    /// Body invocations: ceil(n / grain) on a pool, 1 inline.
    std::int64_t chunks = 0;
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
 * at most `options.grain` items, on up to `options.threads` workers
 * that claim chunks from one shared cursor. Chunk boundaries and
 * execution order are scheduling details; the body must make results
 * independent of both. The first exception is rethrown on the caller
 * after all workers stop.
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
