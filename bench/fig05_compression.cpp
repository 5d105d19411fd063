/**
 * @file
 * Fig. 5 — compression ratio of ZRE, CSR, and BCS for the last four conv
 * layers of ResNet18, with BCS swept over group sizes 1..64; each codec
 * reported with ("real") and without ("ideal") index overhead. One
 * kStats+compression scenario per group size (restricted to the four
 * layers), run as a parallel ScenarioRunner batch; codec bit counts
 * aggregate across the layers.
 */
#include "bench_util.hpp"

using namespace bitwave;

namespace {

/// Sum a codec's (real, ideal) bits over the scenario's layers.
struct CodecBits
{
    double real = 0.0;
    double ideal = 0.0;
    std::int64_t original = 0;

    void add(std::int64_t real_bits, std::int64_t ideal_bits,
             std::int64_t original_bits)
    {
        real += static_cast<double>(real_bits);
        ideal += static_cast<double>(ideal_bits);
        original += original_bits;
    }
    double real_cr() const
    {
        return static_cast<double>(original) / real;
    }
    double ideal_cr() const
    {
        return static_cast<double>(original) / ideal;
    }
};

}  // namespace

int
main()
{
    bench::banner("Fig. 5",
                  "CR of ZRE / CSR / BCS(G) on ResNet18's last 4 conv "
                  "layers (>= 50% of weights)");
    bench::JsonReport json("fig05_compression");

    const std::vector<std::string> layers = {"l4.0.conv1", "l4.0.conv2",
                                             "l4.1.conv1", "l4.1.conv2"};
    const int group_sizes[] = {1, 2, 4, 8, 16, 32, 64};
    std::vector<eval::Scenario> scenarios;
    for (int g : group_sizes) {
        eval::Scenario s;
        s.engine = eval::EngineKind::kStats;
        s.workload = WorkloadId::kResNet18;
        s.layer_filter = layers;
        s.stats.group_size = g;
        // ZRE/CSR are group-size independent; measure them once.
        s.stats.reference_codecs = scenarios.empty();
        scenarios.push_back(std::move(s));
    }
    eval::RunnerReport report;
    const auto results = eval::ScenarioRunner().run(scenarios, &report);

    Table t({"codec", "real CR", "ideal CR"});
    // ZRE / CSR are group-size independent: read them off the first
    // scenario.
    CodecBits zre, csr;
    for (const auto &l : results[0].layers) {
        zre.add(l.stats->zre_bits, l.stats->zre_ideal_bits,
                l.stats->weight_bits);
        csr.add(l.stats->csr_bits, l.stats->csr_ideal_bits,
                l.stats->weight_bits);
    }
    t.add_row({"ZRE", fmt_ratio(zre.real_cr()), fmt_ratio(zre.ideal_cr())});
    t.add_row({"CSR", fmt_ratio(csr.real_cr()), fmt_ratio(csr.ideal_cr())});
    json.add_row({{"codec", "ZRE"}, {"real_cr", zre.real_cr()},
                  {"ideal_cr", zre.ideal_cr()}});
    json.add_row({{"codec", "CSR"}, {"real_cr", csr.real_cr()},
                  {"ideal_cr", csr.ideal_cr()}});
    for (std::size_t i = 0; i < results.size(); ++i) {
        CodecBits bcs;
        for (const auto &l : results[i].layers) {
            bcs.add(l.stats->columns_sm.bcs_bits(),
                    l.stats->columns_sm.bcs_payload_bits(),
                    l.stats->weight_bits);
        }
        t.add_row({strprintf("BCS G=%d", group_sizes[i]),
                   fmt_ratio(bcs.real_cr()), fmt_ratio(bcs.ideal_cr())});
        json.add_row({{"codec", strprintf("BCS G=%d", group_sizes[i])},
                      {"group_size", group_sizes[i]},
                      {"real_cr", bcs.real_cr()},
                      {"ideal_cr", bcs.ideal_cr()}});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: ideal CR falls as G grows; real CR "
                "peaks at moderate G (index overhead dominates G = 1); "
                "BCS beats ZRE/CSR at this low value sparsity.\n");
    bench::print_runner_report(report);
    return 0;
}
