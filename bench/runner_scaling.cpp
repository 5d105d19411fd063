/**
 * @file
 * Runner scaling bench — strong-scaling sweep of the ScenarioRunner's
 * chunk-cursor pool.
 *
 * Two sweeps share one thread grid (1/2/4/8/hw):
 *
 *  - Identity: a warm mixed batch (analytical BitWave grid over every
 *    workload with and without heavy-layer Bit-Flip, one statistics
 *    scenario, one cycle-sim probe) re-runs at every sweep point and
 *    must reproduce the 1-thread golden results bit for bit — the
 *    determinism contract the adversarial tests enforce, measured here
 *    on a real batch.
 *  - Timing: the content-addressed caches make a repeated batch free,
 *    so each sweep point times a *fresh* batch instead — privately
 *    synthesized workloads (distinct `workload_seed` per point) with
 *    identical shapes, so every point pays the same synthesis and
 *    evaluation cost and nothing is served from a previous point's
 *    cache entries.
 *
 * The 1-thread reference is serial: a runner bounded to one thread
 * keeps every nested loop (synthesis, Bit-Flip) on the calling thread,
 * so speedups are against one core. Every point runs at the runner's
 * default grain.
 *
 * Emits BENCH_runner_scaling.json; CI validates the row keys and
 * bit-identity always, and gates the parallel efficiency of each
 * sweep point the runner machine has the cores for: the 4-thread point
 * on >= 4 hardware threads, the 8-thread point on >= 8.  `--metrics`
 * arms the registry and prints the Prometheus snapshot after the sweep;
 * `--trace <path>` records runner spans and writes Chrome trace JSON.
 */
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

using namespace bitwave;

namespace {

using bench::identical_results;

/// Warm identity batch: long analytical scenarios (BERT-Base dominates),
/// a bag of short ones, one stats scenario and one cycle-sim probe —
/// an imbalanced shape only layer-grain chunks spread evenly.
std::vector<eval::Scenario>
make_identity_batch()
{
    std::vector<eval::Scenario> batch;
    for (WorkloadId id : kAllWorkloads) {
        eval::Scenario s;
        s.engine = eval::EngineKind::kAnalytical;
        s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
        s.workload = id;
        batch.push_back(s);

        eval::Scenario flipped = s;
        flipped.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
        flipped.bitflip.weight_share = 0.8;
        flipped.bitflip.group_size = 16;
        flipped.bitflip.zero_columns = 5;
        batch.push_back(std::move(flipped));
    }
    eval::Scenario stats;
    stats.engine = eval::EngineKind::kStats;
    stats.workload = WorkloadId::kMobileNetV2;
    batch.push_back(std::move(stats));

    eval::Scenario sim;
    sim.engine = eval::EngineKind::kCycleSim;
    sim.workload = WorkloadId::kCnnLstm;
    sim.layer_filter = {"LSTM.0"};
    batch.push_back(std::move(sim));
    return batch;
}

/// Timed batch for sweep point @p point: same shapes at every point,
/// but privately synthesized weights (per-scenario seeds) so no point
/// hits the content caches a previous point filled. BERT-Base is left
/// out — private synthesis of it would swamp the evaluation being
/// timed.
std::vector<eval::Scenario>
make_timed_batch(std::uint64_t point)
{
    std::vector<eval::Scenario> batch;
    std::uint64_t slot = 0;
    for (WorkloadId id : {WorkloadId::kResNet18, WorkloadId::kMobileNetV2,
                          WorkloadId::kCnnLstm}) {
        eval::Scenario s;
        s.engine = eval::EngineKind::kAnalytical;
        s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
        s.workload = id;
        s.workload_seed = 0xB17A0000ULL + point * 64 + slot++;
        batch.push_back(s);

        eval::Scenario flipped = s;
        flipped.workload_seed = 0xB17A0000ULL + point * 64 + slot++;
        flipped.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
        flipped.bitflip.group_size = 16;
        flipped.bitflip.zero_columns = 4;
        batch.push_back(std::move(flipped));
    }
    return batch;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool print_metrics = false;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--metrics") {
            print_metrics = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[i + 1];
            ++i;
        }
    }
    if (print_metrics) {
        metrics::set_enabled(true);
    }
    if (!trace_path.empty() && !trace::enabled()) {
        trace::start();
    }
    bench::banner("Runner scaling",
                  "chunk-cursor strong scaling, bit-identity across "
                  "thread counts");
    bench::JsonReport json("runner_scaling");

    const auto identity_batch = make_identity_batch();
    const auto run_identity = [&](int threads) {
        eval::RunnerOptions options;
        options.threads = threads;
        return eval::ScenarioRunner(options).run(identity_batch);
    };
    // Warms every cache and pins the golden results each sweep point
    // must reproduce.
    const auto golden = run_identity(1);

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<int> sweep = {1, 2, 4, 8};
    if (std::find(sweep.begin(), sweep.end(), static_cast<int>(hw)) ==
        sweep.end()) {
        sweep.push_back(static_cast<int>(hw));
    }
    std::sort(sweep.begin(), sweep.end());

    // Serial timing reference: point 0's batch at one thread.
    double wall_1t = 0.0;
    {
        eval::RunnerReport report;
        eval::RunnerOptions options;
        options.threads = 1;
        eval::ScenarioRunner(options).run(make_timed_batch(0), &report);
        wall_1t = report.wall_seconds;
    }

    Table t({"threads", "wall", "speedup", "efficiency", "identical"});
    double efficiency_at_max = 1.0;
    bool all_identical = true;
    std::uint64_t point = 1;
    for (const int threads : sweep) {
        const bool identical =
            identical_results(golden, run_identity(threads));

        eval::RunnerReport report;
        eval::RunnerOptions options;
        options.threads = threads;
        eval::ScenarioRunner(options).run(make_timed_batch(point++),
                                          &report);
        const double wall = report.wall_seconds;
        const double speedup = wall > 0.0 ? wall_1t / wall : 0.0;
        const double efficiency = speedup / threads;
        if (threads == sweep.back()) {
            efficiency_at_max = efficiency;
        }
        all_identical = all_identical && identical;
        t.add_row({strprintf("%d", threads), strprintf("%.3fs", wall),
                   fmt_ratio(speedup), fmt_percent(efficiency, 1),
                   identical ? "yes" : "NO"});
        json.add_row({{"threads", threads},
                      {"wall_s", wall},
                      {"speedup_vs_1t", speedup},
                      {"efficiency", efficiency},
                      {"identical", identical}});
    }

    json.param("hardware_concurrency", hw);
    json.param("identity_scenarios", identity_batch.size());
    json.param("timed_scenarios", make_timed_batch(0).size());
    json.param("serial_wall_s", wall_1t);
    json.param("max_threads", sweep.back());
    json.param("scaling_efficiency", efficiency_at_max);
    json.param("bit_identical", all_identical);

    std::printf("%s", t.render().c_str());
    std::printf("\nhardware_concurrency=%u; every sweep point re-ran the "
                "warm identity batch bit-identically to the 1-thread "
                "golden run. Timed walls use fresh privately-synthesized "
                "batches so the content caches cannot serve a previous "
                "point's work. Thread counts above the core count "
                "measure oversubscription, not scaling.\n", hw);
    if (!trace_path.empty()) {
        const std::size_t written = trace::write_json(trace_path);
        std::printf("\nwrote %zu trace events to %s\n", written,
                    trace_path.c_str());
    }
    if (print_metrics) {
        std::printf("\n%s",
                    metrics::render_prometheus(metrics::snapshot())
                        .c_str());
    }
    return all_identical ? 0 : 1;
}
