#include "core/pipeline.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "common/table.hpp"
#include "compress/bcs.hpp"
#include "eval/runner.hpp"
#include "nn/accuracy.hpp"

namespace bitwave {

std::string
PipelineReport::to_string() const
{
    std::ostringstream out;
    out << "BitWave deployment: " << workload << "\n";
    Table t({"layer", "SU", "util", "CR", "nz cols", "speedup"});
    for (const auto &l : layers) {
        t.add_row({l.name, l.su, fmt_percent(l.utilization),
                   fmt_ratio(l.compression_ratio),
                   fmt_double(l.mean_nonzero_columns),
                   fmt_ratio(l.speedup_vs_dense)});
    }
    out << t.render();
    out << "weight CR " << fmt_ratio(weight_compression_ratio)
        << ", speedup vs dense " << fmt_ratio(speedup_vs_dense)
        << ", energy gain " << fmt_ratio(energy_ratio_vs_dense)
        << ", metric " << fmt_double(estimated_metric) << " (base "
        << fmt_double(base_metric) << "), runtime "
        << fmt_double(runtime_ms) << " ms, energy "
        << fmt_double(energy_mj, 3) << " mJ\n";
    return out.str();
}

PipelineReport
deploy(const Workload &workload, const PipelineOptions &options)
{
    PipelineReport report;
    report.workload = workload.name;
    report.base_metric = workload.base_metric;
    report.estimated_metric = workload.base_metric;

    // Optional Bit-Flip under the metric budget.
    auto weights = std::make_shared<std::vector<Int8Tensor>>();
    if (options.use_bitflip) {
        AccuracyProxy proxy(workload);
        FlipSearch search(workload, proxy);
        GreedySearchOptions opts;
        opts.min_metric = workload.base_metric - options.max_metric_drop;
        opts.group_sizes = options.group_sizes;
        const auto trajectory =
            search.greedy_search(search.untouched_strategy(), opts);
        const auto &best = trajectory.back();
        *weights = search.apply_strategy(best.strategy);
        report.estimated_metric = best.metric;
    } else {
        for (const auto &l : workload.layers) {
            weights->push_back(l.weights);
        }
    }

    // Evaluate BitWave and the dense baseline as one scenario batch
    // through the shared evaluation engine (in parallel when the host
    // has the cores for it). Scenarios own their workload, so the batch
    // stays valid even if the runner ever retains scenarios beyond this
    // frame.
    const auto shared_workload = std::make_shared<const Workload>(workload);
    eval::Scenario bitwave_scenario;
    bitwave_scenario.accel =
        make_bitwave(options.use_bitflip ? BitWaveVariant::kDfSmBf
                                         : BitWaveVariant::kDfSm);
    bitwave_scenario.custom_workload = shared_workload;
    bitwave_scenario.weight_override = weights;
    eval::Scenario dense_scenario;
    dense_scenario.accel = make_bitwave(BitWaveVariant::kDenseSu);
    dense_scenario.custom_workload = shared_workload;

    eval::RunnerOptions runner_options;
    runner_options.threads = options.threads;
    const auto results = eval::ScenarioRunner(runner_options)
        .run({bitwave_scenario, dense_scenario});
    const eval::ScenarioResult &bw = results[0];
    const eval::ScenarioResult &dense = results[1];

    report.speedup_vs_dense = dense.total_cycles / bw.total_cycles;
    report.energy_ratio_vs_dense =
        dense.energy.total_pj / bw.energy.total_pj;
    report.runtime_ms = bw.runtime_ms();
    report.energy_mj = bw.energy.total_pj * 1e-9;

    std::int64_t original_bits = 0;
    double compressed_bits = 0.0;
    for (std::size_t l = 0; l < workload.layers.size(); ++l) {
        const auto &layer = workload.layers[l];
        const auto columns = analyze_bit_columns(
            (*weights)[l], best_hardware_group_size(
                               (*weights)[l],
                               Representation::kSignMagnitude),
            Representation::kSignMagnitude);
        PipelineLayerReport lr;
        lr.name = layer.desc.name;
        lr.su = bw.layers[l].su_name;
        lr.utilization = bw.layers[l].utilization;
        lr.compression_ratio = columns.bcs_compression_ratio();
        lr.mean_nonzero_columns = bw.layers[l].cycles_per_group;
        lr.speedup_vs_dense =
            dense.layers[l].total_cycles / bw.layers[l].total_cycles;
        report.layers.push_back(std::move(lr));
        original_bits += columns.elements * kWordBits;
        compressed_bits += static_cast<double>(columns.bcs_bits());
    }
    report.weight_compression_ratio =
        compressed_bits > 0
        ? static_cast<double>(original_bits) / compressed_bits : 1.0;
    return report;
}

}  // namespace bitwave
