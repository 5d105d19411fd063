/**
 * @file
 * Fig. 6 — Bit-Flip sensitivity and the CR/accuracy trade-off:
 *  (a-d) layer-wise flipping sensitivity: metric estimate when a single
 *        layer is forced to z zero columns,
 *  (e-h) CR vs metric for Int8+PTQ, Int8+SM (lossless), and
 *        Int8+SM+Bit-Flip applied to the weight-heavy layers.
 *
 * Compression ratios come from kStats scenarios (one per Bit-Flip
 * operating point) run as a ScenarioRunner batch; all flipped tensors —
 * the per-layer probes of (a-d) and the heavy-layer sets of (e-h) —
 * share the process-wide Bit-Flip preparation cache.
 */
#include "bench_util.hpp"
#include "nn/accuracy.hpp"
#include "tensor/quantize.hpp"

using namespace bitwave;

int
main()
{
    bench::JsonReport json("fig06_bitflip");

    // ---- (a-d): layer-wise flip sensitivity ------------------------------
    bench::banner("Fig. 6(a-d)", "layer-wise weight-flip sensitivity");
    struct Probe { WorkloadId id; std::vector<const char *> layers; };
    const Probe probes[] = {
        {WorkloadId::kResNet18, {"l1.0.conv1", "l2.1.conv2", "l4.1.conv2"}},
        {WorkloadId::kMobileNetV2, {"L.2.pw_proj", "L.27.pw_exp", "fc"}},
        {WorkloadId::kCnnLstm, {"conv2", "LSTM.0", "LSTM.1"}},
        {WorkloadId::kBertBase,
         {"layer.1.ffn_in", "layer.6.ffn_in", "layer.11.ffn_in"}},
    };
    for (const auto &probe : probes) {
        const auto &w = get_workload(probe.id);
        AccuracyProxy proxy(w);
        std::printf("%s (%s, base %.2f):\n", w.name.c_str(),
                    w.metric_name.c_str(), w.base_metric);
        Table t({"layer \\ zero columns", "z=2", "z=4", "z=6", "z=7"});
        for (const char *name : probe.layers) {
            const std::size_t idx = w.layer_index(name);
            std::vector<std::string> row{name};
            for (int z : {2, 4, 6, 7}) {
                const auto flipped = eval::cached_bitflip(
                    w.layers[idx].weights, w.layers[idx].weights_hash, 16,
                    z);
                const double metric =
                    proxy.metric_with_layer(idx, *flipped);
                row.push_back(fmt_double(metric));
                json.add_row({{"panel", "sensitivity"},
                              {"workload", w.name},
                              {"layer", name},
                              {"zero_columns", z},
                              {"metric", metric}});
            }
            t.add_row(std::move(row));
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("expected shape: early / weight-light layers lose more "
                "metric at the same z than late / heavy layers.\n");

    // ---- (e-h): CR vs accuracy Pareto ------------------------------------
    bench::banner("Fig. 6(e-h)",
                  "CR vs metric: Int8+PTQ vs Int8+SM vs Int8+SM+Bit-Flip");

    // One kStats scenario per (workload, operating point): the lossless
    // SM baseline plus the heavy-layer Bit-Flip points.
    const int flip_targets[] = {0, 4, 5, 6};  // 0 = lossless
    const double kHeavyShare = 0.75;
    std::vector<eval::Scenario> scenarios;
    for (auto id : kAllWorkloads) {
        for (int z : flip_targets) {
            eval::Scenario s;
            s.engine = eval::EngineKind::kStats;
            s.workload = id;
            if (z > 0) {
                s.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
                s.bitflip.weight_share = kHeavyShare;
                s.bitflip.group_size = 16;
                s.bitflip.zero_columns = z;
            }
            scenarios.push_back(std::move(s));
        }
    }
    eval::RunnerReport report;
    const auto results = eval::ScenarioRunner().run(scenarios, &report);

    const auto workload_cr = [](const eval::ScenarioResult &r) {
        double orig = 0.0, comp = 0.0;
        for (const auto &l : r.layers) {
            orig += static_cast<double>(l.stats->weight_bits);
            comp += static_cast<double>(l.stats->columns_sm.bcs_bits());
        }
        return orig / comp;
    };

    const std::size_t per_workload = std::size(flip_targets);
    for (std::size_t wi = 0; wi < std::size(kAllWorkloads); ++wi) {
        const auto id = kAllWorkloads[wi];
        const auto &w = get_workload(id);
        AccuracyProxy proxy(w);
        std::printf("%s (%s, base %.2f):\n", w.name.c_str(),
                    w.metric_name.c_str(), w.base_metric);
        Table t({"scheme", "CR", w.metric_name});
        const auto *rows = &results[wi * per_workload];

        t.add_row({"Int8+SM (lossless)", fmt_ratio(workload_cr(rows[0])),
                   fmt_double(w.base_metric)});
        json.add_row({{"panel", "pareto"}, {"workload", w.name},
                      {"scheme", "Int8+SM"},
                      {"cr", workload_cr(rows[0])},
                      {"metric", w.base_metric}});

        // PTQ baseline: cut LSBs across every tensor.
        for (int bits : {6, 5, 4}) {
            double weighted = 0.0;
            for (std::size_t l = 0; l < w.layers.size(); ++l) {
                const auto ptq =
                    requantize_to_bits(w.layers[l].weights, bits);
                weighted += proxy.depth_weight(l) *
                    proxy.layer_rel_error(l, ptq);
            }
            const double metric =
                w.base_metric - w.error_sensitivity * weighted;
            t.add_row({strprintf("Int8+PTQ (%db)", bits),
                       fmt_ratio(ptq_compression_ratio(bits)),
                       fmt_double(metric)});
            json.add_row({{"panel", "pareto"}, {"workload", w.name},
                          {"scheme", strprintf("Int8+PTQ (%db)", bits)},
                          {"cr", ptq_compression_ratio(bits)},
                          {"metric", metric}});
        }

        // Bit-Flip on the heavy layers (paper protocol: ~70-80 % of the
        // weights flipped to 4..6 zero columns). Tensors come from the
        // same cache the scenarios above used.
        for (std::size_t zi = 1; zi < per_workload; ++zi) {
            const int z = flip_targets[zi];
            const auto flipped =
                eval::cached_flip_heavy_layers(w, kHeavyShare, 16, z);
            double weighted = 0.0;
            for (std::size_t l = 0; l < w.layers.size(); ++l) {
                if (flipped[l]) {
                    weighted += proxy.depth_weight(l) *
                        proxy.layer_rel_error(l, *flipped[l]);
                }
            }
            const double metric =
                w.base_metric - w.error_sensitivity * weighted;
            t.add_row({strprintf("Int8+SM+BF (z=%d)", z),
                       fmt_ratio(workload_cr(rows[zi])),
                       fmt_double(metric)});
            json.add_row({{"panel", "pareto"}, {"workload", w.name},
                          {"scheme", strprintf("Int8+SM+BF (z=%d)", z)},
                          {"cr", workload_cr(rows[zi])},
                          {"metric", metric}});
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("paper anchors: ResNet18 2.04x CR @ <0.5%% drop; "
                "CNN-LSTM 3.45x @ ~0.5 PESQ; MobileNetV2 1.81x @ 0.8%%; "
                "Bert 1.46x lossless-accuracy / 2.47x @ <0.5 F1. "
                "Bit-Flip should dominate PTQ at matched CR.\n");
    bench::print_runner_report(report);
    return 0;
}
