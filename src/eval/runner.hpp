/**
 * @file
 * ScenarioRunner — evaluates a batch of Scenarios on work-stealing
 * worker threads and returns results in batch order.
 *
 * Work splits at two levels: across scenarios, and *inside* each
 * scenario by layer ranges. Each scenario enters the pool as one
 * coarse splittable task over its selected layers; owners execute
 * `RunnerOptions::shard_layers`-sized chunks LIFO from their own deque
 * and idle workers steal the far end of a task FIFO (halving it per
 * steal), so one BERT-class scenario fans out across the whole pool
 * instead of pinning the batch's wall clock to a single worker — and
 * nothing sits pre-chopped behind a bag of tiny convs.
 *
 * Determinism contract: every scenario's result is a pure function of
 * (scenario, batch index) — the per-scenario RNG seed is derived from the
 * batch position and per-layer streams from (seed, layer index), never
 * from thread identity or chunk boundaries — so an N-thread run is
 * bit-identical to a 1-thread run, under any steal order (modulo the
 * `wall_seconds` diagnostics). The adversarial-scheduler tests pin this
 * with forced steals (`RunnerOptions::chaos_seed`).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "eval/engine.hpp"
#include "eval/scenario.hpp"

namespace bitwave::eval {

/**
 * Thrown out of run()/run_seeded() when `RunnerOptions::cancel` flips
 * mid-batch: the batch aborts at the next chunk boundary (partial
 * results are discarded) and the flag's owner — e.g. a service request
 * whose deadline expired — decides what to tell its clients.
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
     * chunk (the work-stealing grain). BERT-Base (72 layers) fans out
     * into 72/shard_layers chunks. <= 0 evaluates each scenario as a
     * single unsplittable task.
     */
    int shard_layers = 8;
    /**
     * Adversarial test scheduler seed (see WorkstealOptions): non-zero
     * forces seeded steal-first scheduling and reverses the initial
     * task order. Results must stay bit-identical — never needed
     * outside tests.
     */
    std::uint64_t chaos_seed = 0;
    /**
     * Cooperative batch-abort flag, polled at chunk boundaries (and
     * between scenario preparations). When the pointed-to flag becomes
     * true, the batch stops issuing work and run() throws
     * BatchCancelled. The flag must outlive the run() call; nullptr
     * (default) disables cancellation. The evaluation service sets this
     * per batch to implement request deadlines and client cancels.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/// Aggregate diagnostics of one run() call.
struct RunnerReport
{
    int threads_used = 0;
    int shards = 0;            ///< Evaluation chunks (grain-sized).
    std::int64_t chunks = 0;   ///< Executed body chunks (scheduler view:
                               ///< includes split-on-steal fragments).
    std::int64_t steals = 0;   ///< Cross-worker steals.
    double wall_seconds = 0.0;          ///< End-to-end batch wall time.
    double scenario_seconds_sum = 0.0;  ///< Sum of per-scenario costs.

    /// Parallel efficiency proxy: total scenario work / batch wall time.
    double speedup() const
    {
        return wall_seconds > 0 ? scenario_seconds_sum / wall_seconds
                                : 1.0;
    }
};

/// Work-stealing evaluator for scenario batches.
class ScenarioRunner
{
  public:
    explicit ScenarioRunner(RunnerOptions options = {});

    /**
     * Evaluate @p scenarios and return their results in batch order.
     * @p report, when non-null, receives the run diagnostics.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios,
                                    RunnerReport *report = nullptr) const;

    /**
     * Re-entrant seeded submission path for batch composers: evaluate
     * @p scenarios with caller-supplied per-scenario RNG seeds instead
     * of deriving them from the batch position. The evaluation service
     * coalesces requests submitted at different times into one batch;
     * pinning each request's seed to its *standalone* value
     * (`scenario_rng_seed(s, 0)`) keeps every coalesced result
     * bit-identical to a direct per-request evaluation regardless of
     * where the batcher placed it. @p seeds must match @p scenarios in
     * size. Safe to call from multiple service dispatcher threads at
     * once — the runner holds no mutable state across calls.
     */
    std::vector<ScenarioResult> run_seeded(
        const std::vector<Scenario> &scenarios,
        const std::vector<std::uint64_t> &seeds,
        RunnerReport *report = nullptr) const;

    /// Threads run() will use for @p work_items parallel work items.
    int effective_threads(std::size_t work_items) const;

  private:
    RunnerOptions options_;
};

}  // namespace bitwave::eval
