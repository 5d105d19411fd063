#include "bitflip/strategy.hpp"

#include <limits>

#include "bitflip/bitflip.hpp"
#include "common/logging.hpp"
#include "sparsity/bitcolumn.hpp"

namespace bitwave {

FlipSearch::FlipSearch(const Workload &workload, const AccuracyProxy &proxy)
    : workload_(workload), proxy_(proxy)
{
    if (&proxy.workload() != &workload) {
        fatal("FlipSearch: proxy was built for a different workload");
    }
}

const Int8Tensor &
FlipSearch::flipped_layer(std::size_t layer_idx, LayerFlipConfig config)
{
    const Key key{layer_idx, config.group_size, config.zero_columns};
    auto it = flipped_.find(key);
    if (it == flipped_.end()) {
        const auto &original = workload_.layers[layer_idx].weights;
        Int8Tensor flipped = config.zero_columns == 0
            ? original
            : bitflip_tensor(original, config.group_size,
                             config.zero_columns);
        it = flipped_.emplace(key, std::move(flipped)).first;
    }
    return it->second;
}

double
FlipSearch::layer_error(std::size_t layer_idx, LayerFlipConfig config)
{
    if (config.zero_columns == 0) {
        return 0.0;
    }
    const Key key{layer_idx, config.group_size, config.zero_columns};
    auto it = errors_.find(key);
    if (it == errors_.end()) {
        const double err = proxy_.layer_rel_error(
            layer_idx, flipped_layer(layer_idx, config));
        it = errors_.emplace(key, err).first;
    }
    return it->second;
}

double
FlipSearch::strategy_compression_ratio(const FlipStrategy &strategy)
{
    if (strategy.size() != workload_.layers.size()) {
        fatal("strategy has %zu entries, workload has %zu layers",
              strategy.size(), workload_.layers.size());
    }
    std::int64_t original_bits = 0;
    double compressed_bits = 0.0;
    for (std::size_t l = 0; l < strategy.size(); ++l) {
        const auto &cfg = strategy[l];
        const Key key{l, cfg.group_size, cfg.zero_columns};
        auto it = ratios_.find(key);
        if (it == ratios_.end()) {
            // Sizes from the column histogram — bit-identical to
            // materializing the compression, at a fraction of the cost.
            const auto columns = analyze_bit_columns(
                flipped_layer(l, cfg), cfg.group_size,
                Representation::kSignMagnitude);
            it = ratios_
                     .emplace(key,
                              static_cast<double>(columns.bcs_bits()))
                     .first;
        }
        original_bits += workload_.layers[l].weights.numel() * 8;
        compressed_bits += it->second;
    }
    return compressed_bits > 0
        ? static_cast<double>(original_bits) / compressed_bits : 1.0;
}

double
FlipSearch::strategy_metric(const FlipStrategy &strategy)
{
    if (strategy.size() != workload_.layers.size()) {
        fatal("strategy has %zu entries, workload has %zu layers",
              strategy.size(), workload_.layers.size());
    }
    double weighted = 0.0;
    for (std::size_t l = 0; l < strategy.size(); ++l) {
        if (strategy[l].zero_columns == 0) {
            continue;
        }
        weighted += proxy_.depth_weight(l) * layer_error(l, strategy[l]);
    }
    return workload_.base_metric - workload_.error_sensitivity * weighted;
}

FlipStrategy
FlipSearch::untouched_strategy() const
{
    return FlipStrategy(workload_.layers.size(), LayerFlipConfig{});
}

std::vector<Int8Tensor>
FlipSearch::apply_strategy(const FlipStrategy &strategy)
{
    std::vector<Int8Tensor> out;
    out.reserve(strategy.size());
    for (std::size_t l = 0; l < strategy.size(); ++l) {
        out.push_back(flipped_layer(l, strategy[l]));
    }
    return out;
}

std::vector<ParetoPoint>
FlipSearch::greedy_search(const FlipStrategy &initial,
                          const GreedySearchOptions &opts)
{
    FlipStrategy strategy = initial;
    if (strategy.size() != workload_.layers.size()) {
        fatal("greedy_search: initial strategy arity mismatch");
    }

    std::vector<ParetoPoint> trajectory;
    trajectory.push_back({strategy, strategy_compression_ratio(strategy),
                          strategy_metric(strategy)});

    while (true) {
        // Algorithm 1 inner loops: best single-increment move.
        double best_metric = -std::numeric_limits<double>::infinity();
        std::size_t best_layer = 0;
        LayerFlipConfig best_cfg;
        bool found = false;

        for (std::size_t l = 0; l < strategy.size(); ++l) {
            for (int gs : opts.group_sizes) {
                const int z = strategy[l].zero_columns;
                if (z + 1 > opts.max_zero_columns) {
                    continue;
                }
                FlipStrategy tmp = strategy;
                tmp[l] = LayerFlipConfig{gs, z + 1};
                const double metric = strategy_metric(tmp);
                if (metric > best_metric) {
                    best_metric = metric;
                    best_layer = l;
                    best_cfg = tmp[l];
                    found = true;
                }
            }
        }

        if (!found || best_metric < opts.min_metric) {
            break;  // "if bacc <= macc: Break"
        }
        strategy[best_layer] = best_cfg;
        trajectory.push_back({strategy,
                              strategy_compression_ratio(strategy),
                              best_metric});
    }
    return trajectory;
}

}  // namespace bitwave
