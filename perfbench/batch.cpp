/**
 * @file
 * The two ScenarioRunner-batch workloads.
 *
 *  - grid: the fig14 paper grid (5 baselines + the BitWave flagship on
 *    each network, analytical model) plus the flagship on the
 *    cycle-level simulator per network — one batch per pass, timed on
 *    warm caches after an untimed warm-up pass.
 *  - cold_sweep: a DSE-style batch (ResNet18, MobileNetV2, CNN-LSTM,
 *    each with and without uniform Bit-Flip g16/z4) whose scenarios get
 *    fresh private workload seeds on every pass, so preparation runs
 *    cold every time and the content caches only fill and evict.
 */
#include "workloads.hpp"

#include <functional>

#include "common/hash.hpp"

namespace perfbench {

using namespace bitwave;

namespace {

/// Passes of one batch workload: pass k's scenarios.
using PassFactory = std::function<std::vector<eval::Scenario>(int)>;

std::vector<eval::Scenario>
grid_batch(const Options &options)
{
    const auto baselines = bench::paper_baselines();
    std::vector<eval::Scenario> batch;
    for (WorkloadId id : networks(options.tiny)) {
        for (const auto &cfg : baselines) {
            eval::Scenario s;
            s.accel = cfg;
            s.workload = id;
            batch.push_back(s);
        }
        eval::Scenario flagship = bench::bitwave_flagship_scenario(id);
        batch.push_back(flagship);
        flagship.engine = eval::EngineKind::kCycleSim;
        batch.push_back(flagship);
    }
    // The seed salts every scenario's RNG stream (the simulator's
    // synthetic activations); weights stay the shared synthesis.
    for (auto &s : batch) {
        s.seed = options.seed;
    }
    return batch;
}

std::vector<eval::Scenario>
cold_batch(const Options &options, int pass)
{
    std::vector<WorkloadId> ids = {WorkloadId::kResNet18,
                                   WorkloadId::kMobileNetV2,
                                   WorkloadId::kCnnLstm};
    if (options.tiny) {
        ids = {WorkloadId::kCnnLstm};
    }
    std::vector<eval::Scenario> batch;
    for (WorkloadId id : ids) {
        for (bool flip : {false, true}) {
            eval::Scenario s;
            s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
            s.workload = id;
            if (flip) {
                s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
                s.bitflip.group_size = 16;
                s.bitflip.zero_columns = 4;
            }
            // A private synthesis no earlier pass has seen.
            s.workload_seed = hash_combine(
                hash_combine(options.seed, static_cast<std::uint64_t>(pass)),
                batch.size());
            if (s.workload_seed == eval::kCachedWorkloadSeed) {
                ++s.workload_seed;
            }
            batch.push_back(s);
        }
    }
    return batch;
}

/// One evaluated pass, kept for the untimed output check.
struct Pass
{
    std::vector<eval::Scenario> scenarios;
    std::vector<eval::ScenarioResult> results;
    eval::RunnerReport runner;
    double wall_s = 0.0;
};

Pass
run_pass(const PassFactory &make, int index)
{
    Pass pass;
    pass.scenarios = make(index);
    const auto t0 = Clock::now();
    pass.results = eval::ScenarioRunner().run(pass.scenarios, &pass.runner);
    pass.wall_s = seconds_since(t0);
    return pass;
}

/// Check every pass against direct serial evaluations of its scenarios.
/// Passes of one fixed batch (@p fixed) share one set of @p goldens
/// (computed here when empty); cold passes are evaluated all at once.
void
check_passes(Report &report, const Options &options,
             const std::vector<Pass> &passes, bool fixed,
             std::vector<eval::ScenarioResult> goldens = {})
{
    if (goldens.empty()) {
        std::vector<eval::Scenario> scenarios;
        std::vector<std::uint64_t> seeds;
        for (const auto &pass : passes) {
            const auto pass_seeds = batch_seeds(pass.scenarios);
            scenarios.insert(scenarios.end(), pass.scenarios.begin(),
                             pass.scenarios.end());
            seeds.insert(seeds.end(), pass_seeds.begin(), pass_seeds.end());
            if (fixed) {
                break;
            }
        }
        goldens = direct_results(scenarios, seeds, golden_workers());
    }
    if (options.perturb_golden) {
        perturb(goldens.front());
    }
    std::size_t offset = 0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const auto &results = passes[p].results;
        const std::vector<eval::ScenarioResult> expected(
            goldens.begin() + static_cast<std::ptrdiff_t>(offset),
            goldens.begin() +
                static_cast<std::ptrdiff_t>(offset + results.size()));
        report.attempted += static_cast<std::int64_t>(results.size());
        check_results(report, "pass " + std::to_string(p), results,
                      expected);
        offset = fixed ? 0 : offset + results.size();
    }
}

void
report_end_to_end(Report &report, const std::vector<Pass> &timed)
{
    std::vector<double> walls;
    for (const auto &pass : timed) {
        walls.push_back(pass.wall_s);
    }
    const double batch = static_cast<double>(timed.front().results.size());
    report.metric("eval_per_s", batch / median(walls), "1/s");
    // A batch is the unit a user waits on: latency is per pass.
    report.metric("latency_p50_ms", median(walls) * 1e3, "ms");
    report.metric("latency_p99_ms", bench::percentile(walls, 0.99) * 1e3,
                  "ms");
    std::string line = std::to_string(timed.size()) +
        " (latency samples, one per pass), wall s:";
    for (double wall : walls) {
        line += ' ';
        line += std::to_string(wall);
    }
    report.info.emplace_back("timed_passes", line);
}

/**
 * The traced run: one untraced pass (runner report, cache deltas), one
 * traced pass (span self times, overhead), then plain serial passes
 * against their module-by-module replays (attribution). A fixed batch
 * replays the very batch its plain pass ran, on the same warm caches;
 * cold batches need fresh seeds on both sides. Pairs run in alternating
 * order — at least two, and plain passes of at least 30 % of the run
 * length — and the gap compares their totals, so pass-to-pass noise
 * averages out.
 */
void
traced_run(Report &report, const Options &options, const PassFactory &make,
           bool fixed, int next_pass)
{
    std::vector<Pass> checked;
    checked.reserve(2);  // `untraced` below stays valid
    const auto before = CounterSnapshot::take();
    checked.push_back(run_pass(make, next_pass++));
    const auto after = CounterSnapshot::take();
    const Pass &untraced = checked.back();

    Pass traced_pass;
    const auto spans = traced(report, [&] {
        traced_pass = run_pass(make, next_pass++);
    });
    checked.push_back(std::move(traced_pass));

    double plain_wall = 0.0;
    double replay_sum = 0.0;
    Attribution attribution;
    std::vector<eval::ScenarioResult> plain;
    for (int pair = 0; pair < 2 || plain_wall < 0.3 * options.seconds;
         ++pair) {
        const auto plain_batch = make(next_pass++);
        const auto replay_batch = fixed ? plain_batch : make(next_pass++);
        const auto replay_seeds = batch_seeds(replay_batch);
        const auto plain_pass = [&] {
            // Start from the workload-cache state a serial pass leaves
            // behind, the state the replay starts from after it, so
            // neither side pays synthesis misses the other does not.
            for (std::size_t i : network_order(plain_batch)) {
                if (plain_batch[i].workload_seed ==
                    eval::kCachedWorkloadSeed) {
                    shared_workload(plain_batch[i].workload);
                }
            }
            const auto t0 = Clock::now();
            plain = direct_results(plain_batch, batch_seeds(plain_batch), 1);
            plain_wall += seconds_since(t0);
        };
        const auto replay = [&] {
            attribution = attribute_serial_pass(replay_batch, replay_seeds);
            replay_sum += attribution.module_sum();
        };
        if (pair % 2 == 0) {
            plain_pass();
            replay();
        } else {
            replay();
            plain_pass();
        }
        report.attempted += static_cast<std::int64_t>(replay_batch.size());
        check_results(report, "serial replay", attribution.results,
                      fixed ? plain
                            : direct_results(replay_batch, replay_seeds,
                                             golden_workers()));
    }
    check_passes(report, options, checked, fixed,
                 fixed ? plain : std::vector<eval::ScenarioResult>{});

    report_attribution(report, attribution, replay_sum, plain_wall);
    report_caches(report, before, after);
    report_spans(report, spans);
    report.metric("eval.runner_wall_s", untraced.runner.wall_seconds, "s");
    report.metric("eval.runner_parallel_eff",
                  untraced.runner.speedup() /
                      std::max(1, untraced.runner.threads_used),
                  "frac");
    report.metric("eval.runner_prepare_frac", prepare_frac(spans), "frac");
    report.metric("eval.runner_steals",
                  static_cast<double>(untraced.runner.steals), "count");
    report.metric("eval.runner_chunks",
                  static_cast<double>(untraced.runner.chunks), "count");
    report.metric("trace.overhead_frac",
                  checked.back().wall_s / untraced.wall_s - 1.0, "frac");
    if (!fixed) {
        // The service's layers are measured in this workload's traced
        // run, the shorter of the two (see report_service_layers).
        report_service_layers(report, options);
    }
}

void
run_batch_workload(Report &report, const Options &options,
                   const PassFactory &make, bool fixed)
{
    // Untimed warm-up pass: synthesis and every cache fill land here.
    std::vector<Pass> passes;
    passes.push_back(run_pass(make, 0));
    report.metric("setup_s", seconds_since_spawn(options), "s");
    if (options.setup_only) {
        return;
    }

    if (options.trace) {
        traced_run(report, options, make, fixed, 1);
    } else {
        std::vector<Pass> timed;
        const auto start = Clock::now();
        int index = 1;
        do {
            timed.push_back(run_pass(make, index++));
        } while (seconds_since(start) < options.seconds);
        passes.insert(passes.end(), timed.begin(), timed.end());
        check_passes(report, options, passes, fixed);
        report_end_to_end(report, timed);
    }
    report_failures(report, static_cast<double>(report.failed));

    // The accuracy figures: the grid batch holds every scenario they
    // read; other batches evaluate them separately, untimed.
    if (fixed) {
        report_accuracy(report, passes.back().scenarios,
                        passes.back().results);
    } else {
        const auto scenarios = accuracy_scenarios(options.tiny);
        report_accuracy(report, scenarios,
                        eval::ScenarioRunner().run(scenarios));
    }
}

}  // namespace

void
run_grid(Report &report, const Options &options)
{
    run_batch_workload(report, options,
                       [&](int) { return grid_batch(options); }, true);
}

void
run_cold_sweep(Report &report, const Options &options)
{
    run_batch_workload(report, options,
                       [&](int pass) { return cold_batch(options, pass); },
                       false);
}

}  // namespace perfbench
