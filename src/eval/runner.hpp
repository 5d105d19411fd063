/**
 * @file
 * ScenarioRunner — evaluates a batch of Scenarios on worker threads and
 * returns results in batch order.
 *
 * One phase, one pool. The calling thread first plans every scenario
 * (seed, layer selection, flip set — a private `workload_seed` as an
 * unsynthesized skeleton), then one pool drains the batch's units: a
 * unit is one selected layer of one scenario, which synthesizes that
 * layer if its workload is private, builds its Bit-Flip twin and
 * evaluates it. Workers claim `RunnerOptions::shard_layers`-sized
 * chunks of the flat unit space from one shared cursor, so one
 * BERT-class scenario — or ResNet18's five heavy last layers — fans
 * out across the whole pool instead of pinning the batch's wall clock
 * to a single worker, and no worker waits at a preparation barrier.
 *
 * Thread bound: `threads = 1` uses one core — planning and the pool
 * run in a single-worker frame, so every nested loop (synthesis,
 * Bit-Flip) stays on the calling thread. At `threads = k > 1` nested
 * loops run inline on the k workers; only a shared workload's first
 * touch, built while planning, fans out over every core, once per
 * network per process.
 *
 * Determinism contract: every scenario's result is a pure function of
 * the scenario — every layer is synthesized from (workload seed, layer
 * index) and no engine draws from the per-scenario RNG seed, which is
 * derived from the batch position and only recorded in the result —
 * never of thread identity or chunk boundaries, so an N-thread run is
 * bit-identical to a 1-thread run, under any chunk order (modulo the
 * `wall_seconds` diagnostics). The chaos-scheduler tests pin this with
 * seeded chunk permutations (`RunnerOptions::chaos_seed`).
 *
 * Failure contract: every scenario ends with its own outcome — its
 * result, or the exception that ended it. A layer range (one scenario's
 * slice of a chunk) that throws kTransient is re-run in place under the
 * caller's RetryPolicy; because a layer is a pure function of
 * (scenario, layer index), the re-run is bit-identical to a fault-free one.
 * Any other error, or the last attempt's, ends that scenario alone: its
 * remaining ranges are skipped and its siblings finish normally.
 * Cancellation ends scenarios at the same points, before a piece
 * starts, and is never retried.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

#include "eval/engine.hpp"
#include "eval/scenario.hpp"

namespace bitwave::eval {

/**
 * The error of a scenario that `RunnerOptions::cancel` ended before it
 * finished: its remaining layer ranges are skipped (partial results are
 * discarded) and the flag's owner — e.g. a service request whose
 * deadline expired — decides what to tell its clients.
 */
class BatchCancelled : public std::runtime_error
{
  public:
    BatchCancelled() : std::runtime_error("evaluation batch cancelled") {}
};

/// Runner knobs.
struct RunnerOptions
{
    /// Worker threads; 0 = hardware concurrency (BITWAVE_THREADS).
    int threads = 0;
    /**
     * Intra-scenario splitting: maximum selected layers per executed
     * chunk (the pool's grain). The default of 1 makes every
     * (scenario, layer) unit its own chunk, so any idle worker can
     * claim any single layer. <= 0 runs the whole batch as one chunk
     * on the calling thread.
     */
    int shard_layers = 1;
    /**
     * Chaos test scheduler seed (see WorkstealOptions): non-zero hands
     * the chunks out in a seeded permutation instead of unit order.
     * Results must stay bit-identical — never needed outside tests.
     */
    std::uint64_t chaos_seed = 0;
    /**
     * Cooperative abort flag, polled before every scenario preparation
     * and layer range. Once the pointed-to flag becomes true, every
     * scenario that has not finished ends with BatchCancelled; finished
     * ones keep their results. The flag must outlive the run call;
     * nullptr (default) disables cancellation. The evaluation service
     * sets this per batch to implement request deadlines and client
     * cancels.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * In-place retry of a failing layer range (or scenario preparation):
 * only kTransient errors retry, up to max_attempts tries in total.
 * Before retry k (k = 1 for the second try) the worker sleeps
 * min(backoff_seconds * 2^(k-1), max_backoff_seconds).
 */
struct RetryPolicy
{
    int max_attempts = 3;  ///< Total attempts including the first.
    double backoff_seconds = 0.01;     ///< Sleep before the first retry.
    double max_backoff_seconds = 1.0;  ///< Cap on any one sleep.
};

/// One scenario's outcome in a batch.
struct ScenarioOutcome
{
    ScenarioResult result;     ///< Valid when `error` is null.
    std::exception_ptr error;  ///< The exception that ended the scenario.
};

/// Aggregate diagnostics of one run() call.
struct RunnerReport
{
    int threads_used = 0;  ///< Workers started, the caller included.
    /// Executed chunks: ceil(units / shard_layers) on a pool, 1 when
    /// the batch runs inline.
    std::int64_t chunks = 0;
    /// Always 0: workers claim chunks from one cursor, so nothing is
    /// stolen. Kept so existing readers of the field still build.
    std::int64_t steals = 0;
    std::int64_t retries = 0;  ///< In-place retries of transient
                               ///< failures (RetryPolicy).
    double wall_seconds = 0.0;          ///< End-to-end batch wall time.
    double scenario_seconds_sum = 0.0;  ///< Sum of per-scenario costs.

    /// Parallel efficiency proxy: total scenario work / batch wall time.
    double speedup() const
    {
        return wall_seconds > 0 ? scenario_seconds_sum / wall_seconds
                                : 1.0;
    }
};

/// Parallel evaluator for scenario batches.
class ScenarioRunner
{
  public:
    explicit ScenarioRunner(RunnerOptions options = {});

    /**
     * Evaluate @p scenarios and return their results in batch order.
     * One attempt per layer range; once the batch has finished, the
     * first failed scenario's error (in batch order) is rethrown.
     * @p report, when non-null, receives the run diagnostics.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios,
                                    RunnerReport *report = nullptr) const;

    /**
     * run() with caller-supplied per-scenario RNG seeds instead of
     * seeds derived from the batch position. A batch composer that
     * coalesces requests submitted at different times pins each
     * request's seed to its *standalone* value
     * (`scenario_rng_seed(s, 0)`), which keeps every coalesced result
     * bit-identical to a direct per-request evaluation regardless of
     * where it landed in the batch. @p seeds must match @p scenarios in
     * size.
     */
    std::vector<ScenarioResult> run_seeded(
        const std::vector<Scenario> &scenarios,
        const std::vector<std::uint64_t> &seeds,
        RunnerReport *report = nullptr) const;

    /**
     * The batch call behind run() and run_seeded(): one outcome per
     * scenario, in batch order, retrying transient layer-range failures
     * in place under @p retry (see the file comment). Empty @p seeds
     * derives them from the batch position like run(). Never throws for
     * a scenario's failure. Safe to call from multiple service
     * dispatcher threads at once — the runner holds no mutable state
     * across calls.
     */
    std::vector<ScenarioOutcome> run_outcomes(
        const std::vector<Scenario> &scenarios,
        const std::vector<std::uint64_t> &seeds, const RetryPolicy &retry,
        RunnerReport *report = nullptr) const;

    /// Threads run() will use for @p work_items parallel work items.
    int effective_threads(std::size_t work_items) const;

  private:
    RunnerOptions options_;
};

}  // namespace bitwave::eval
