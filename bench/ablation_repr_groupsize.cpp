/**
 * @file
 * Ablations — two design choices DESIGN.md calls out:
 *  (1) representation: BCS with two's complement instead of
 *      sign-magnitude (the Section III-A vs III-B contrast at system
 *      level);
 *  (2) group size: fixed G = 8/16/32 vs per-layer best, in real
 *      compression ratio.
 * One kStats+compression scenario per (workload, group size), run as a
 * parallel ScenarioRunner batch; both ablations read off that grid.
 */
#include <algorithm>

#include "bench_util.hpp"

using namespace bitwave;

int
main()
{
    bench::JsonReport json("ablation_repr_groupsize");

    const int group_sizes[] = {8, 16, 32};
    std::vector<eval::Scenario> scenarios;
    for (auto id : kAllWorkloads) {
        for (int g : group_sizes) {
            eval::Scenario s;
            s.engine = eval::EngineKind::kStats;
            s.workload = id;
            s.stats.group_size = g;
            scenarios.push_back(std::move(s));
        }
    }
    eval::RunnerReport report;
    const auto results = eval::ScenarioRunner().run(scenarios, &report);
    const std::size_t per_workload = std::size(group_sizes);

    bench::banner("Ablation: representation",
                  "bit-column sparsity and CR, 2C vs SM (G = 16)");
    Table t({"network", "col sparsity 2C", "col sparsity SM", "CR 2C",
             "CR SM"});
    for (std::size_t w = 0; w * per_workload < results.size(); ++w) {
        // group_sizes[1] == 16 is the representation-ablation point.
        const auto &r = results[w * per_workload + 1];
        BitColumnStats s2c, ssm;
        double orig = 0.0, c2c = 0.0, csm = 0.0;
        for (const auto &l : r.layers) {
            s2c.merge(l.stats->columns_2c);
            ssm.merge(l.stats->columns_sm);
            orig += static_cast<double>(l.stats->weight_bits);
            c2c += static_cast<double>(l.stats->columns_2c.bcs_bits());
            csm += static_cast<double>(l.stats->columns_sm.bcs_bits());
        }
        t.add_row({r.workload, fmt_percent(s2c.column_sparsity()),
                   fmt_percent(ssm.column_sparsity()),
                   fmt_ratio(orig / c2c), fmt_ratio(orig / csm)});
        json.add_row({{"ablation", "representation"},
                      {"workload", r.workload},
                      {"col_sparsity_2c", s2c.column_sparsity()},
                      {"col_sparsity_sm", ssm.column_sparsity()},
                      {"cr_2c", orig / c2c},
                      {"cr_sm", orig / csm}});
    }
    std::printf("%s", t.render().c_str());

    bench::banner("Ablation: group size",
                  "real CR under fixed vs per-layer-best group size");
    Table g({"network", "G=8", "G=16", "G=32", "per-layer best"});
    for (std::size_t w = 0; w * per_workload < results.size(); ++w) {
        const auto *r = &results[w * per_workload];
        double comp[3] = {};
        double best = 0.0, orig = 0.0;
        const std::size_t layers = r[0].layers.size();
        for (std::size_t l = 0; l < layers; ++l) {
            double layer_best = 0.0;
            for (std::size_t i = 0; i < per_workload; ++i) {
                const auto bits = static_cast<double>(
                    r[i].layers[l].stats->columns_sm.bcs_bits());
                comp[i] += bits;
                layer_best =
                    layer_best == 0.0 ? bits : std::min(layer_best, bits);
            }
            best += layer_best;
            orig += static_cast<double>(r[0].layers[l].stats->weight_bits);
        }
        g.add_row({r[0].workload, fmt_ratio(orig / comp[0]),
                   fmt_ratio(orig / comp[1]), fmt_ratio(orig / comp[2]),
                   fmt_ratio(orig / best)});
        json.add_row({{"ablation", "group_size"},
                      {"workload", r[0].workload},
                      {"cr_g8", orig / comp[0]},
                      {"cr_g16", orig / comp[1]},
                      {"cr_g32", orig / comp[2]},
                      {"cr_best", orig / best}});
    }
    std::printf("%s", g.render().c_str());
    std::printf("\nexpected shape: SM dominates 2C everywhere; layer-wise "
                "tunable G (the hardware feature) beats any fixed G.\n");
    bench::print_runner_report(report);
    return 0;
}
