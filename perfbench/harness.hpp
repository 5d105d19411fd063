/**
 * @file
 * Shared pieces of the reproduction benchmark: the run options, the
 * metric sink every workload fills, the output checks (direct serial
 * goldens, fig14 anchors, sim-vs-model agreement) and the per-module
 * attribution of one serial pass. Everything here drives the library
 * through its public entry points only; nothing under src/ is
 * instrumented for the benchmark.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since @p t0.
double seconds_since(Clock::time_point t0);

/// Command-line options of one workload process.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test size: CNN-LSTM only, so every workload runs in seconds.
    bool tiny = false;
    /// Corrupt one golden on purpose; the output check must trip.
    bool perturb_golden = false;
    /// Stop after the warm-up pass and report only `setup_s` (run.py
    /// samples set-up time in extra processes).
    bool setup_only = false;
    /// Wall-clock (epoch seconds) at which the process was spawned;
    /// set-up time is measured from it. 0 = from entry to main().
    double spawn_epoch = 0.0;
};

/// Seconds from process spawn to now (see Options::spawn_epoch).
double seconds_since_spawn(const Options &options);

/// What a workload reports: the result object run.py checks, plus
/// informational lines (sample counts, span self times).
struct Report
{
    bool correct = true;
    std::int64_t attempted = 0;
    /// Operations whose outcome was wrong: result mismatches and
    /// unexpected terminal states.
    std::int64_t failed = 0;
    /// (name, (value, unit)) in print order.
    using Metrics =
        std::vector<std::pair<std::string, std::pair<double, std::string>>>;
    Metrics metrics;
    std::vector<std::pair<std::string, std::string>> info;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /// Record a failed check (printed to stderr, clears `correct`).
    void problem(const std::string &what);
};

/// `ok_frac` (end to end) and `failed_frac` (per layer): @p failures
/// over the operations attempted.
void report_failures(Report &report, double failures);

/// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

/// Median of @p values (0 when empty).
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Goldens and output checks
// ---------------------------------------------------------------------------

/// Indices of @p scenarios grouped by network (stable within a network),
/// the order serial passes walk so the workload cache sees one network
/// at a time.
std::vector<std::size_t> network_order(
    const std::vector<bitwave::eval::Scenario> &scenarios);

/**
 * Direct serial evaluations: each scenario alone in a one-thread
 * ScenarioRunner under its own seed. @p workers such evaluations run
 * side by side, one network at a time; with one worker this is a plain
 * serial pass in network_order().
 */
std::vector<bitwave::eval::ScenarioResult> direct_results(
    const std::vector<bitwave::eval::Scenario> &scenarios,
    const std::vector<std::uint64_t> &seeds, int workers);

/// Worker count for direct_results() outside the timed section.
int golden_workers();

/// The per-scenario seeds ScenarioRunner::run() derives for a batch.
std::vector<std::uint64_t> batch_seeds(
    const std::vector<bitwave::eval::Scenario> &scenarios);

/**
 * Compare @p results against @p goldens pairwise (bench::
 * identical_result); every mismatch is a failed operation. Returns the
 * mismatch count.
 */
std::int64_t check_results(
    Report &report, const std::string &what,
    const std::vector<bitwave::eval::ScenarioResult> &results,
    const std::vector<bitwave::eval::ScenarioResult> &goldens);

/// Flip one bit of a golden's cycle count (the self-test's perturbation).
void perturb(bitwave::eval::ScenarioResult &golden);

/// Networks a workload touches at the given size.
std::vector<bitwave::WorkloadId> networks(bool tiny);

/**
 * The scenarios the accuracy figures read: SCNN and the BitWave
 * flagship under the analytical model, and the flagship under the
 * cycle-level simulator, on each network.
 */
std::vector<bitwave::eval::Scenario> accuracy_scenarios(bool tiny);

/**
 * Fill `anchor_err_max` (BitWave's fig14 speedup over SCNN against the
 * paper's 10.1x CNN-LSTM / 13.25x Bert-Base) and `sim_model_err_max`
 * (flagship total_cycles, sim vs model) from evaluated scenarios; an
 * anchor off by more than 20 % fails the run.
 */
void report_accuracy(Report &report,
                     const std::vector<bitwave::eval::Scenario> &scenarios,
                     const std::vector<bitwave::eval::ScenarioResult> &results);

// ---------------------------------------------------------------------------
// Attribution (the traced run)
// ---------------------------------------------------------------------------

/// Host seconds of one serial pass, split by the public call that did
/// the work.
struct Attribution
{
    double workload_s = 0.0;   ///< nn: shared_workload / build_workload.
    double prepare_s = 0.0;    ///< eval: prepare_scenario.
    double twin_s = 0.0;       ///< bitflip: cached_bitflip.
    double pack_s = 0.0;       ///< tensor: shared_bitplanes.
    double evaluate_s = 0.0;   ///< eval: evaluate_layer_range, all engines.
    double finalize_s = 0.0;   ///< eval: finalize_scenario.
    double model_baseline_s = 0.0;  ///< evaluate, analytical baselines.
    double model_bitwave_s = 0.0;   ///< evaluate, analytical BitWave.
    double sim_s = 0.0;             ///< evaluate, cycle-level sim.
    double sim_cycles = 0.0;        ///< Simulated cycles of sim_s.
    std::vector<bitwave::eval::ScenarioResult> results;

    double module_sum() const
    {
        return workload_s + prepare_s + twin_s + pack_s + evaluate_s +
            finalize_s;
    }
};

/**
 * Replay one pass serially in network_order(), calling each module's
 * public entry point separately and timing it: the workload fetch, then
 * prepare_scenario, the Bit-Flip twins, the bit-plane packs the engine
 * will read, evaluate_layer_range and finalize_scenario. The results
 * must equal the goldens; the module times must add up to a plain
 * serial pass.
 */
Attribution attribute_serial_pass(
    const std::vector<bitwave::eval::Scenario> &scenarios,
    const std::vector<std::uint64_t> &seeds);

/// Report the module split of @p attribution, and `eval.attr_gap_frac`:
/// 1 - @p module_sum_s / @p serial_wall_s, the module times of the
/// replays against the walls of plain serial passes over comparable
/// scenarios.
void report_attribution(Report &report, const Attribution &attribution,
                        double module_sum_s, double serial_wall_s);

/// Self time (span duration minus child spans on the same thread) per
/// span name, in seconds.
std::map<std::string, double> self_seconds_by_span(
    const std::vector<bitwave::trace::Event> &events);

/// Arm span tracing and histogram metrics around one call of @p body;
/// returns the self time per span name recorded meanwhile.
template <typename Body>
std::map<std::string, double>
traced(Report &report, Body &&body)
{
    namespace trace = bitwave::trace;
    trace::clear();
    trace::start();
    bitwave::metrics::set_enabled(true);
    body();
    bitwave::metrics::set_enabled(false);
    trace::stop();
    const auto events = trace::snapshot_events();
    report.info.emplace_back(
        "trace_events",
        std::to_string(events.size()) + ", dropped " +
            std::to_string(trace::dropped_events()));
    return self_seconds_by_span(events);
}

/// Print the span self times as one info line.
void report_spans(Report &report,
                  const std::map<std::string, double> &self_seconds);

/// `eval.runner_prepare_frac` from span self times.
double prepare_frac(const std::map<std::string, double> &self_seconds);

// ---------------------------------------------------------------------------
// Cache counters
// ---------------------------------------------------------------------------

/// The metrics registry's counters at one instant.
struct CounterSnapshot
{
    std::map<std::string, std::uint64_t> values;

    static CounterSnapshot take();
    /// Counter @p name increase from @p before to this snapshot.
    double delta(const CounterSnapshot &before,
                 const std::string &name) const;
};

/// Report the cache.* per-layer metrics as deltas between snapshots.
void report_caches(Report &report, const CounterSnapshot &before,
                   const CounterSnapshot &after);

/// Every per-layer metric name with its unit, in BENCHMARK.json order;
/// the traced run prints each one (0 where the workload never reaches
/// the layer).
const std::vector<std::pair<std::string, std::string>> &per_layer_units();

/// Print @p report: info lines, then the JSON result as the last line.
void print(const Report &report);

}  // namespace perfbench
