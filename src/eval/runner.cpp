#include "eval/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/worksteal.hpp"
#include "eval/error.hpp"

namespace bitwave::eval {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

/// Registry handles, resolved once: the runner mirrors its per-batch
/// report counters into runner.* so a metrics snapshot sees scheduler
/// behavior without holding a RunnerReport.
struct RunnerMetrics
{
    metrics::Counter &batches = metrics::counter("runner.batches");
    metrics::Counter &chunks = metrics::counter("runner.chunks");
    metrics::Counter &retries = metrics::counter("runner.retries");
    metrics::Histogram &chunk_ns = metrics::histogram("runner.chunk_ns");
    metrics::Histogram &batch_wall_ns =
        metrics::histogram("runner.batch_wall_ns");
};

RunnerMetrics &
runner_metrics()
{
    static RunnerMetrics m;
    return m;
}

/**
 * The batch's flat evaluation-unit space: unit u is one selected layer
 * of one scenario, scenarios laid out contiguously in batch order.
 * Chunk boundaries are free to land anywhere — the executor walks the
 * per-scenario sub-ranges of a chunk, and every layer is a pure
 * function of (scenario, layer index), so the cut is pure scheduling.
 */
struct UnitSpace
{
    std::vector<std::size_t> offsets;  ///< Size n+1; scenario i owns
                                       ///< units [offsets[i], offsets[i+1]).

    std::size_t total() const { return offsets.back(); }

    /// Scenario owning @p unit (offsets is sorted; the hot path is a
    /// cached linear walk from the previous hit inside the executor).
    std::size_t scenario_of(std::size_t unit) const
    {
        const auto it = std::upper_bound(offsets.begin(), offsets.end(),
                                         unit);
        return static_cast<std::size_t>(it - offsets.begin()) - 1;
    }
};

}  // namespace

ScenarioRunner::ScenarioRunner(RunnerOptions options) : options_(options)
{
}

int
ScenarioRunner::effective_threads(std::size_t work_items) const
{
    if (options_.threads > 0) {
        return static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(options_.threads),
            std::max<std::size_t>(work_items, 1)));
    }
    // 0 = hardware concurrency, overridable via BITWAVE_THREADS.
    return parallel_threads(std::max<std::size_t>(work_items, 1));
}

std::vector<ScenarioResult>
ScenarioRunner::run(const std::vector<Scenario> &scenarios,
                    RunnerReport *report) const
{
    return run_seeded(scenarios, {}, report);
}

std::vector<ScenarioResult>
ScenarioRunner::run_seeded(const std::vector<Scenario> &scenarios,
                           const std::vector<std::uint64_t> &seeds,
                           RunnerReport *report) const
{
    auto outcomes =
        run_outcomes(scenarios, seeds, RetryPolicy{.max_attempts = 1},
                     report);
    std::vector<ScenarioResult> results;
    results.reserve(outcomes.size());
    for (auto &outcome : outcomes) {
        if (outcome.error) {
            std::rethrow_exception(outcome.error);
        }
        results.push_back(std::move(outcome.result));
    }
    return results;
}

std::vector<ScenarioOutcome>
ScenarioRunner::run_outcomes(const std::vector<Scenario> &scenarios,
                             const std::vector<std::uint64_t> &seed_overrides,
                             const RetryPolicy &retry,
                             RunnerReport *report) const
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = scenarios.size();
    if (!seed_overrides.empty() && seed_overrides.size() != n) {
        panic("run_outcomes: %zu seeds for %zu scenarios",
              seed_overrides.size(), n);
    }

    // Per-scenario failure state. The first error to end a scenario
    // wins its slot (the exchange elects one writer); every later piece
    // of that scenario sees the flag and is skipped. `errors` is read
    // only after the worker pools have joined.
    std::vector<std::atomic<bool>> failed(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::int64_t> retries{0};
    const std::atomic<bool> *cancel = options_.cancel;

    // Run one piece of scenario i's work — its preparation or one layer
    // range — re-running it in place while it throws kTransient and
    // attempts remain. Skipped once the scenario has ended; cancellation
    // ends it before the piece starts.
    const auto attempt = [&](std::size_t i, const auto &body) {
        for (int k = 1;; ++k) {
            if (failed[i].load(std::memory_order_relaxed)) {
                return;
            }
            std::exception_ptr error;
            bool transient = false;
            if (cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) {
                error = std::make_exception_ptr(BatchCancelled());
            } else {
                try {
                    body();
                    return;
                } catch (const FaultError &e) {
                    error = std::current_exception();
                    transient = e.kind() == ErrorKind::kTransient;
                } catch (...) {
                    error = std::current_exception();
                }
            }
            if (!transient || k >= retry.max_attempts) {
                if (!failed[i].exchange(true, std::memory_order_relaxed)) {
                    errors[i] = error;
                }
                return;
            }
            retries.fetch_add(1, std::memory_order_relaxed);
            runner_metrics().retries.inc();
            trace::instant("runner.retry", "runner", "scenario", i,
                           "attempt", static_cast<std::uint64_t>(k + 1));
            const double backoff =
                std::min(std::ldexp(retry.backoff_seconds, k - 1),
                         retry.max_backoff_seconds);
            if (backoff > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
            }
        }
    };

    // Plan every scenario on this thread: its seed and its preparation
    // (layer selection, flip set, a private workload's skeleton). Cheap,
    // except a shared workload's first touch, which builds it here and
    // fans out over every core — once per network per process. A batch
    // bounded to one thread plans in a single-worker frame instead, so
    // that build too stays on this thread.
    std::vector<ScenarioPrep> preps(n);
    std::vector<std::uint64_t> seeds(n);
    std::vector<double> prep_seconds(n, 0.0);
    const auto plan = [&](std::size_t i) {
        trace::Span span("runner.prepare", "runner");
        span.arg("scenario", i);
        const auto p0 = std::chrono::steady_clock::now();
        seeds[i] = seed_overrides.empty()
            ? scenario_rng_seed(scenarios[i], i)
            : seed_overrides[i];
        attempt(i, [&] { preps[i] = prepare_scenario(scenarios[i]); });
        prep_seconds[i] = seconds_since(p0);
    };
    if (options_.threads == 1) {
        worksteal_for(n, plan, 1);
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            plan(i);
        }
    }

    // One pool drains the flat unit space: a unit is one selected layer
    // of one scenario, synthesized (private workloads) and evaluated in
    // place. Workers claim shard_layers-sized chunks from one cursor.
    // Chunk boundaries only affect scheduling, never results: every
    // layer draws its weights from (workload seed, layer index), and no
    // engine draws from a seed of its own. A scenario whose preparation
    // failed has no units.
    UnitSpace units;
    units.offsets.resize(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        units.offsets[i + 1] = units.offsets[i] + preps[i].layers.size();
    }
    const std::size_t total_units = units.total();
    const std::size_t grain = options_.shard_layers > 0
        ? static_cast<std::size_t>(options_.shard_layers)
        : std::max<std::size_t>(total_units, 1);

    std::vector<std::vector<LayerEval>> layer_results(n);
    for (std::size_t i = 0; i < n; ++i) {
        layer_results[i].resize(preps[i].layers.size());
    }
    // Per-scenario evaluation cost, accumulated lock-free across the
    // chunks that touched the scenario (diagnostics only).
    std::vector<std::atomic<std::int64_t>> eval_nanos(n);

    // One layer range [local_begin, local_end) of scenario i: evaluate
    // it and scatter the records into place. Disjoint ranges write
    // disjoint slots, and a retried range overwrites its own.
    const auto evaluate_range = [&](std::size_t i, std::size_t local_begin,
                                    std::size_t local_end) {
        // Context-tagged by scenario label so a chaos test can poison
        // exactly one job of a coalesced batch
        // (`runner.chunk@<label>=1:transient`).
        BITWAVE_FAULT_POINT_CTX("runner.chunk",
                                fault::context_tag(scenarios[i].label));
        const std::uint64_t tr0 = trace::enabled() ? trace::now_ns() : 0;
        const auto s0 = std::chrono::steady_clock::now();
        auto evals = evaluate_layer_range(scenarios[i], preps[i], seeds[i],
                                          local_begin, local_end, i);
        const std::int64_t chunk_nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - s0).count();
        eval_nanos[i].fetch_add(chunk_nanos, std::memory_order_relaxed);
        runner_metrics().chunk_ns.record(
            static_cast<std::uint64_t>(chunk_nanos));
        if (tr0 != 0) {
            trace::emit_complete("runner.chunk", "runner", tr0,
                                 trace::now_ns() - tr0, "scenario", i,
                                 "layers", local_end - local_begin);
        }
        auto &slot = layer_results[i];
        for (std::size_t k = 0; k < evals.size(); ++k) {
            slot[local_begin + k] = std::move(evals[k]);
        }
    };

    // One chunk [begin, end) of the unit space: its per-scenario layer
    // ranges, each attempted on its own.
    const auto execute = [&](std::size_t begin, std::size_t end) {
        std::size_t i = units.scenario_of(begin);
        while (begin < end) {
            while (units.offsets[i + 1] <= begin) {
                ++i;
            }
            const std::size_t local_begin = begin - units.offsets[i];
            const std::size_t local_end =
                std::min(end, units.offsets[i + 1]) - units.offsets[i];
            attempt(i, [&] { evaluate_range(i, local_begin, local_end); });
            begin = units.offsets[i] + local_end;
        }
    };

    WorkstealOptions wopts;
    wopts.threads = effective_threads(total_units);
    wopts.grain = grain;
    wopts.chaos_seed = options_.chaos_seed;
    const WorkstealStats sched = worksteal_run(total_units, execute, wopts);

    // Deterministic reduction: totals accumulate in layer order inside
    // finalize_scenario, independent of chunk boundaries.
    trace::Span finalize_span("runner.finalize", "runner");
    finalize_span.arg("scenarios", n);
    std::vector<ScenarioOutcome> outcomes(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i]) {
            outcomes[i].error = errors[i];
            continue;
        }
        auto &result = outcomes[i].result;
        result = finalize_scenario(scenarios[i], preps[i], seeds[i],
                                   std::move(layer_results[i]));
        result.wall_seconds = prep_seconds[i] +
            static_cast<double>(
                eval_nanos[i].load(std::memory_order_relaxed)) * 1e-9;
    }

    const double wall_seconds = seconds_since(t0);
    RunnerMetrics &rm = runner_metrics();
    rm.batches.inc();
    rm.chunks.inc(static_cast<std::uint64_t>(std::max<std::int64_t>(
        sched.chunks, 0)));
    rm.batch_wall_ns.record(
        static_cast<std::uint64_t>(wall_seconds * 1e9));

    if (report != nullptr) {
        report->threads_used = sched.threads_used;
        report->chunks = sched.chunks;
        report->retries = retries.load(std::memory_order_relaxed);
        report->wall_seconds = wall_seconds;
        report->scenario_seconds_sum = 0.0;
        for (const auto &o : outcomes) {
            report->scenario_seconds_sum += o.result.wall_seconds;
        }
    }
    return outcomes;
}

}  // namespace bitwave::eval
