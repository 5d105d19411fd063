/**
 * @file
 * Tests for the analytical accelerator models: configuration invariants,
 * Eq. (1)-(5) behaviour, and the paper's headline orderings (Figs. 13-17)
 * as *shape* assertions on the four benchmark networks.
 */
#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <map>
#include <string>

#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "eval/runner.hpp"
#include "eval/scenario.hpp"
#include "model/accelerator.hpp"
#include "model/performance.hpp"
#include "nn/synthesis.hpp"
#include "nn/workloads.hpp"

namespace bitwave {
namespace {

/// Bit-Flip every layer to @p zero_cols zero columns per group of 16.
eval::BitflipSpec
uniform_flip(int zero_cols)
{
    eval::BitflipSpec spec;
    spec.mode = eval::BitflipSpec::Mode::kUniform;
    spec.group_size = 16;
    spec.zero_columns = zero_cols;
    return spec;
}

/// The paper's Fig. 14/15 protocol: Bit-Flip the weight-heaviest layers
/// covering 80 % of the parameters, G = 16, 5 zero columns.
eval::BitflipSpec
heavy_flip()
{
    eval::BitflipSpec spec;
    spec.mode = eval::BitflipSpec::Mode::kHeavyLayers;
    spec.weight_share = 0.8;
    spec.group_size = 16;
    spec.zero_columns = 5;
    return spec;
}

/// Model a workload on an accelerator through the scenario engine, the
/// path the benches run. Bit-Flipped twins come from the process-wide
/// preparation cache, so the many figure tests sharing one (net, flip)
/// pair flip each tensor once per process.
eval::ScenarioResult
run(const AcceleratorConfig &cfg, WorkloadId id, eval::BitflipSpec flip = {})
{
    eval::Scenario s;
    s.accel = cfg;
    s.workload = id;
    s.bitflip = flip;
    return eval::ScenarioRunner().run({s}).front();
}

TEST(Config, PeakThroughputEquivalence)
{
    // All baselines are normalized to 512 8bx8b MAC/cycle.
    EXPECT_EQ(make_huaa().peak_macs_per_cycle(), 512);
    EXPECT_EQ(make_stripes().peak_macs_per_cycle(), 512);
    EXPECT_EQ(make_pragmatic().peak_macs_per_cycle(), 512);
    EXPECT_EQ(make_bitlet().peak_macs_per_cycle(), 512);
    EXPECT_EQ(make_scnn().peak_macs_per_cycle(), 512);
    EXPECT_EQ(
        make_bitwave(BitWaveVariant::kDfSm).peak_macs_per_cycle(), 512);
}

TEST(Config, VariantsDifferOnlyAsDocumented)
{
    const auto df = make_bitwave(BitWaveVariant::kDynamicDf);
    const auto sm = make_bitwave(BitWaveVariant::kDfSm);
    EXPECT_EQ(df.sparsity, SparsityMode::kNone);
    EXPECT_EQ(sm.sparsity, SparsityMode::kWeightBitColumn);
    EXPECT_FALSE(df.compress_weights);
    EXPECT_TRUE(sm.compress_weights);
    EXPECT_EQ(df.dataflows.size(), 7u);
}

TEST(Model, EnergyComponentsSumToTotal)
{
    const auto r = run(make_bitwave(BitWaveVariant::kDfSm),
                       WorkloadId::kCnnLstm);
    EXPECT_NEAR(r.energy.total_pj,
                r.energy.mac_pj + r.energy.sram_pj + r.energy.reg_pj +
                    r.energy.dram_pj + r.energy.static_pj,
                r.energy.total_pj * 1e-9);
    EXPECT_EQ(r.layers.size(),
              get_workload(WorkloadId::kCnnLstm).layers.size());
}

TEST(Model, TotalCyclesAtLeastComputeCycles)
{
    const auto r = run(make_bitwave(BitWaveVariant::kDfSm),
                       WorkloadId::kCnnLstm);
    for (const auto &l : r.layers) {
        EXPECT_GE(l.total_cycles, l.compute_cycles) << l.layer_name;
    }
}

TEST(Model, CompressionShrinksBitwaveWeightTraffic)
{
    const AcceleratorModel sm(make_bitwave(BitWaveVariant::kDfSm));
    for (const auto &layer : get_workload(WorkloadId::kCnnLstm).layers) {
        EXPECT_LT(sm.model_layer(layer).weight_fetch_ratio, 1.0)
            << layer.desc.name;
    }
}

// ----- Fig. 13: incremental speedup breakdown ---------------------------

class Fig13Shape : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(Fig13Shape, EachTechniqueHelpsOrIsNeutral)
{
    const auto id = GetParam();
    const auto dense = run(make_bitwave(BitWaveVariant::kDenseSu), id);
    const auto df = run(make_bitwave(BitWaveVariant::kDynamicDf), id);
    const auto sm = run(make_bitwave(BitWaveVariant::kDfSm), id);
    const auto bf =
        run(make_bitwave(BitWaveVariant::kDfSmBf), id, uniform_flip(4));

    EXPECT_GE(dense.total_cycles / df.total_cycles, 0.98)
        << "DF should not hurt";
    EXPECT_GE(df.total_cycles / sm.total_cycles, 0.95)
        << "SM should not hurt";
    EXPECT_GT(sm.total_cycles / bf.total_cycles, 1.0)
        << "BF must add speedup";
    EXPECT_GT(dense.total_cycles / bf.total_cycles, 1.2)
        << "combined speedup must be material";
}

INSTANTIATE_TEST_SUITE_P(AllNets, Fig13Shape,
                         ::testing::ValuesIn(kAllWorkloads));

TEST(Fig13, DynamicDataflowHelpsMobileNetMost)
{
    // Paper: MobileNetV2's diverse layer shapes benefit most from DF.
    auto gain = [](WorkloadId id) {
        return run(make_bitwave(BitWaveVariant::kDenseSu), id).total_cycles /
            run(make_bitwave(BitWaveVariant::kDynamicDf), id).total_cycles;
    };
    EXPECT_GT(gain(WorkloadId::kMobileNetV2),
              gain(WorkloadId::kBertBase));
    EXPECT_GT(gain(WorkloadId::kMobileNetV2),
              gain(WorkloadId::kResNet18));
}

TEST(Fig13, SignMagnitudeHelpsCnnLstmMostAndBertLeast)
{
    auto gain = [](WorkloadId id) {
        return run(make_bitwave(BitWaveVariant::kDynamicDf), id)
                   .total_cycles /
            run(make_bitwave(BitWaveVariant::kDfSm), id).total_cycles;
    };
    const double lstm = gain(WorkloadId::kCnnLstm);
    const double bert = gain(WorkloadId::kBertBase);
    EXPECT_GT(lstm, 1.4);  // paper: 1.75x
    EXPECT_LT(bert, 1.2);  // paper: 1.06x
    EXPECT_GT(lstm, bert);
}

TEST(Fig13, BitFlipRescuesBert)
{
    // BERT gains little from SM alone but substantially from Bit-Flip
    // (paper: 1.06x vs +2.67x).
    const auto id = WorkloadId::kBertBase;
    const auto sm = run(make_bitwave(BitWaveVariant::kDfSm), id);
    const auto bf =
        run(make_bitwave(BitWaveVariant::kDfSmBf), id, uniform_flip(5));
    EXPECT_GT(sm.total_cycles / bf.total_cycles, 1.5);
}

// ----- Fig. 14/15/17: cross-accelerator orderings ------------------------

class SotaOrdering : public ::testing::TestWithParam<WorkloadId>
{
  protected:
    struct All
    {
        eval::ScenarioResult scnn, stripes, pragmatic, bitlet, huaa,
            bitwave;
    };

    static All run_all(WorkloadId id)
    {
        All a{run(make_scnn(), id),
              run(make_stripes(), id),
              run(make_pragmatic(), id),
              run(make_bitlet(), id),
              run(make_huaa(), id),
              run(make_bitwave(BitWaveVariant::kDfSmBf), id,
                  uniform_flip(4))};
        return a;
    }
};

TEST_P(SotaOrdering, BitwaveIsFastest)
{
    const auto a = run_all(GetParam());
    EXPECT_LT(a.bitwave.total_cycles, a.scnn.total_cycles);
    EXPECT_LT(a.bitwave.total_cycles, a.stripes.total_cycles);
    EXPECT_LT(a.bitwave.total_cycles, a.pragmatic.total_cycles);
    EXPECT_LT(a.bitwave.total_cycles, a.bitlet.total_cycles);
    EXPECT_LT(a.bitwave.total_cycles, a.huaa.total_cycles);
}

TEST_P(SotaOrdering, BitwaveIsMostEnergyEfficient)
{
    const auto a = run_all(GetParam());
    EXPECT_LT(a.bitwave.energy.total_pj, a.scnn.energy.total_pj);
    EXPECT_LT(a.bitwave.energy.total_pj, a.stripes.energy.total_pj);
    EXPECT_LT(a.bitwave.energy.total_pj, a.pragmatic.energy.total_pj);
    EXPECT_LT(a.bitwave.energy.total_pj, a.bitlet.energy.total_pj);
    EXPECT_LT(a.bitwave.energy.total_pj, a.huaa.energy.total_pj);
}

TEST_P(SotaOrdering, BitSparsityBeatsNoSparsityAmongBitSerial)
{
    // Pragmatic/Bitlet (bit skipping) never lose to Stripes (no skip).
    const auto a = run_all(GetParam());
    EXPECT_LE(a.pragmatic.total_cycles, a.stripes.total_cycles * 1.001);
    EXPECT_LE(a.bitlet.total_cycles, a.stripes.total_cycles * 1.001);
}

INSTANTIATE_TEST_SUITE_P(AllNets, SotaOrdering,
                         ::testing::ValuesIn(kAllWorkloads));

TEST(Fig14, SpeedupOverScnnMatchesPaperAnchors)
{
    // The headline Fig. 14 bars under the paper's protocol (Bit-Flip on
    // the weight-heaviest 80 % of parameters, G = 16, 5 zero columns):
    // BitWave 10.1x over SCNN on CNN-LSTM and 13.25x on Bert-Base. The
    // SCNN calibration (value_imbalance, planar-crossbar starvation) is
    // pinned to these anchors within a +-20 % reproduction tolerance.
    struct Anchor { WorkloadId id; double speedup; };
    const Anchor anchors[] = {{WorkloadId::kCnnLstm, 10.1},
                              {WorkloadId::kBertBase, 13.25}};
    for (const auto &anchor : anchors) {
        const auto bw = run(make_bitwave(BitWaveVariant::kDfSmBf),
                            anchor.id, heavy_flip());
        const auto scnn = run(make_scnn(), anchor.id);
        const double speedup = scnn.total_cycles / bw.total_cycles;
        EXPECT_NEAR(speedup / anchor.speedup, 1.0, 0.20)
            << workload_name(anchor.id) << ": " << speedup << "x vs paper "
            << anchor.speedup << "x";
    }
}

TEST(Fig14, ScnnCollapsesOnLowValueSparsityNetworks)
{
    // Paper: 10.1x / 13.25x over SCNN on CNN-LSTM / BERT — the headline
    // result. Require at least ~5x in the reproduction.
    for (auto id : {WorkloadId::kCnnLstm, WorkloadId::kBertBase}) {
        const auto bw =
            run(make_bitwave(BitWaveVariant::kDfSmBf), id, uniform_flip(4));
        const auto scnn = run(make_scnn(), id);
        EXPECT_GT(scnn.total_cycles / bw.total_cycles, 5.0)
            << workload_name(id);
    }
}

TEST(Fig15, EnergyVsBitwaveMatchesPaperAnchors)
{
    // The headline Fig. 15 bars under the paper's protocol (the same
    // heavy-layer Bit-Flip configuration the Fig. 14 anchors use):
    // SCNN burns 13.23x BitWave's energy on Bert-Base, every baseline
    // lands in 4.09-5.04x on MobileNetV2, and HUAA averages 2.41x
    // across the benchmark networks. The energy-side calibration
    // (accumulator-bank RMW, crossbar-conflict replays, layer-
    // sequential spills, lane overheads) is pinned to these anchors
    // within the same +-20 % reproduction tolerance as Fig. 14.
    // One BitWave denominator per workload, reused by every anchor.
    std::map<WorkloadId, double> bw_energy;
    for (auto id : kAllWorkloads) {
        bw_energy[id] =
            run(make_bitwave(BitWaveVariant::kDfSmBf), id, heavy_flip())
                .energy.total_pj;
    }

    const double scnn_bert =
        run(make_scnn(), WorkloadId::kBertBase).energy.total_pj /
        bw_energy[WorkloadId::kBertBase];
    EXPECT_NEAR(scnn_bert / 13.23, 1.0, 0.20)
        << "SCNN/Bert-Base: " << scnn_bert << "x vs paper 13.23x";

    const AcceleratorConfig baselines[] = {make_scnn(), make_stripes(),
                                           make_pragmatic(), make_bitlet(),
                                           make_huaa()};
    for (const auto &cfg : baselines) {
        const double ratio =
            run(cfg, WorkloadId::kMobileNetV2).energy.total_pj /
            bw_energy[WorkloadId::kMobileNetV2];
        EXPECT_GT(ratio, 4.09 * 0.80) << cfg.name << " on MobileNetV2";
        EXPECT_LT(ratio, 5.04 * 1.20) << cfg.name << " on MobileNetV2";
    }

    double huaa_sum = 0.0;
    for (auto id : kAllWorkloads) {
        huaa_sum +=
            run(make_huaa(), id).energy.total_pj / bw_energy[id];
    }
    const double huaa_avg = huaa_sum / std::size(kAllWorkloads);
    EXPECT_NEAR(huaa_avg / 2.41, 1.0, 0.20)
        << "HUAA average: " << huaa_avg << "x vs paper 2.41x";
}

TEST(Fig16, BreakdownShapesMatchPaper)
{
    // Breakdown shapes after the energy recalibration: the uncompressed
    // baselines stream every weight bit through DRAM, which stays their
    // single dominant component on the weight-heavy net; SCNN's Bert
    // blowup is on-chip churn (crossbar replays + accumulator banks),
    // not DRAM; and BitWave's on-chip energy is MAC+SRAM-dominated
    // (datapath and stream traffic, not registers or idle clocks).
    for (const auto &cfg : {make_stripes(), make_huaa()}) {
        const auto r = run(cfg, WorkloadId::kBertBase);
        EXPECT_GT(r.energy.dram_pj, 0.5 * r.energy.total_pj) << cfg.name;
    }
    const auto scnn = run(make_scnn(), WorkloadId::kBertBase);
    EXPECT_GT(scnn.energy.mac_pj + scnn.energy.sram_pj,
              scnn.energy.dram_pj);
    const auto bw = run(make_bitwave(BitWaveVariant::kDfSm),
                        WorkloadId::kResNet18);
    EXPECT_GT(bw.energy.mac_pj + bw.energy.sram_pj,
              bw.energy.reg_pj + bw.energy.static_pj);
}

TEST(Fig15, ScnnIsLeastEnergyEfficientOnWeightHeavyNets)
{
    const auto id = WorkloadId::kBertBase;
    const auto scnn = run(make_scnn(), id);
    const auto stripes = run(make_stripes(), id);
    const auto huaa = run(make_huaa(), id);
    EXPECT_GT(scnn.energy.total_pj, stripes.energy.total_pj);
    EXPECT_GT(scnn.energy.total_pj, huaa.energy.total_pj);
}

TEST(Fig16, DramDominatesWeightHeavyNetworks)
{
    const auto r = run(make_bitwave(BitWaveVariant::kDfSm),
                       WorkloadId::kBertBase);
    EXPECT_GT(r.energy.dram_pj / r.energy.total_pj, 0.5);
}

TEST(Fig17, EfficiencyOrderingMatchesPaper)
{
    // BitWave has the best TOPS/W on every benchmark (Fig. 17).
    for (auto id : kAllWorkloads) {
        const auto bw =
            run(make_bitwave(BitWaveVariant::kDfSmBf), id, uniform_flip(4));
        for (const auto &other :
             {run(make_scnn(), id), run(make_stripes(), id),
              run(make_pragmatic(), id), run(make_bitlet(), id),
              run(make_huaa(), id)}) {
            EXPECT_GT(bw.tops_per_watt(), other.tops_per_watt())
                << workload_name(id) << " vs " << other.accelerator;
        }
    }
}

// ----- Exact pins ---------------------------------------------------------

TEST(Model, BitWaveGridIsPinned)
{
    // The figure anchors have +-20 % bands and the DSE front a 1e-9
    // tolerance, so neither sees a moved ULP. This pins the bit patterns
    // of every BitWave variant's network totals, and of the five paper
    // baselines' (the rest of the fig14 grid). Past synthesis (pinned
    // by test_nn's Workloads.SynthesisIsPinned) the BitWave path calls
    // only exact functions such as std::ceil. The baselines' energy
    // sums are where a contracted a*b + c first moves a bit: an FMA
    // build (-march=native) fails this pin unless the build passes
    // -ffp-contract=off, as CMakeLists.txt does.
    std::vector<eval::Scenario> batch;
    for (auto id : kAllWorkloads) {
        for (auto variant :
             {BitWaveVariant::kDenseSu, BitWaveVariant::kDynamicDf,
              BitWaveVariant::kDfSm, BitWaveVariant::kDfSmBf}) {
            eval::Scenario s;
            s.accel = make_bitwave(variant);
            s.workload = id;
            if (variant == BitWaveVariant::kDfSmBf) {
                s.bitflip = heavy_flip();
            }
            batch.push_back(s);
        }
    }
    const std::size_t bitwave_count = batch.size();
    for (auto id : kAllWorkloads) {
        for (const auto &cfg : {make_scnn(), make_stripes(),
                                make_pragmatic(), make_bitlet(),
                                make_huaa()}) {
            eval::Scenario s;
            s.accel = cfg;
            s.workload = id;
            batch.push_back(s);
        }
    }
    const auto results = eval::ScenarioRunner().run(batch);
    std::map<WorkloadId, std::uint64_t> pins, baseline_pins;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        auto &table = i < bitwave_count ? pins : baseline_pins;
        std::uint64_t &h = table[batch[i].workload];
        h = hash_combine(
            h, std::bit_cast<std::uint64_t>(results[i].total_cycles));
        h = hash_combine(
            h, std::bit_cast<std::uint64_t>(results[i].energy.total_pj));
    }
    EXPECT_EQ(pins[WorkloadId::kResNet18], 0xf2cc0f610102bb44ULL);
    EXPECT_EQ(pins[WorkloadId::kMobileNetV2], 0xd28606c16ee01946ULL);
    EXPECT_EQ(pins[WorkloadId::kCnnLstm], 0xe0b76b7f39996677ULL);
    EXPECT_EQ(pins[WorkloadId::kBertBase], 0x2da86320fb3627edULL);
    EXPECT_EQ(baseline_pins[WorkloadId::kResNet18], 0xe62825b58a5373b1ULL);
    EXPECT_EQ(baseline_pins[WorkloadId::kMobileNetV2], 0x163b9309788aa01eULL);
    EXPECT_EQ(baseline_pins[WorkloadId::kCnnLstm], 0x6f1b696a8e3f6972ULL);
    EXPECT_EQ(baseline_pins[WorkloadId::kBertBase], 0x3a842da4e6d02eeeULL);
}

// ----- Process caches -----------------------------------------------------

TEST(Caches, BaselineStatsKeyOnEveryKernelArgument)
{
    // The default SCNN, Pragmatic and Bitlet configs fill the
    // baseline_stats memo for one layer. Each variant then differs
    // from a filled entry in one kernel argument only — Pragmatic's
    // sync lanes, Bitlet's interleave window, or the representation
    // (2C runs first, so the SM variant finds its 2C twin resident).
    // A key that drops that argument serves the wrong entry, and the
    // memoized result leaves the uncached one.
    Rng rng(2024);
    WorkloadLayer layer;
    layer.desc = make_conv("probe", 64, 32, 8, 8, 3, 3);
    layer.weights = synthesize_weights(layer.desc, WeightProfile{}, rng);
    layer.activation_sparsity = 0.3;
    layer.weights_hash = layer.compute_weights_hash();

    // Memoized (the layer's own hash) vs uncached (hash 0).
    const auto check = [&](const AcceleratorConfig &cfg) {
        const AcceleratorModel model(cfg);
        const LayerResult memo = model.model_layer(layer);
        const LayerResult direct =
            model.model_layer(layer, &layer.weights, {}, 0);
        const std::string what = cfg.name + " lanes " +
            std::to_string(cfg.sync_lanes) + " window " +
            std::to_string(cfg.interleave_window) + " " +
            representation_name(cfg.weight_repr);
        EXPECT_EQ(memo.total_cycles, direct.total_cycles) << what;
        EXPECT_EQ(memo.compute_cycles, direct.compute_cycles) << what;
        EXPECT_EQ(memo.energy.total_pj, direct.energy.total_pj) << what;
    };
    for (const auto &cfg : {make_scnn(), make_pragmatic(), make_bitlet()}) {
        check(cfg);
    }
    for (const auto repr : {Representation::kTwosComplement,
                            Representation::kSignMagnitude}) {
        for (const std::int64_t lanes : {4, 16}) {
            auto cfg = make_pragmatic();
            cfg.sync_lanes = lanes;
            cfg.weight_repr = repr;
            check(cfg);
        }
        for (const std::int64_t window : {32, 128}) {
            auto cfg = make_bitlet();
            cfg.interleave_window = window;
            cfg.weight_repr = repr;
            check(cfg);
        }
    }
}

TEST(Caches, WarmBatchEvictsNothingAtAnyThreadCount)
{
    // A batch that reads every content cache — the Fig. 14 grid on all
    // four networks: the BitWave flagship (workloads, Bit-Flip twins,
    // bit planes, mapping statistics) and the five paper baselines
    // (baseline weight statistics), plus a stats scenario — re-run
    // warm must be served from resident entries only, whatever the
    // thread count. A cache too small for the batch's working set
    // evicts here on every pass.
    std::vector<eval::Scenario> batch;
    for (auto id : kAllWorkloads) {
        eval::Scenario s;
        s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
        s.workload = id;
        s.bitflip = heavy_flip();
        batch.push_back(s);
        for (const auto &baseline : {make_scnn(), make_stripes(),
                                     make_pragmatic(), make_bitlet(),
                                     make_huaa()}) {
            eval::Scenario b;
            b.accel = baseline;
            b.workload = id;
            batch.push_back(b);
        }
    }
    eval::Scenario stats;
    stats.engine = eval::EngineKind::kStats;
    stats.workload = WorkloadId::kCnnLstm;
    batch.push_back(stats);

    const auto counters = [] {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, value] : metrics::snapshot().counters) {
            if (name.starts_with("cache.")) {
                out[name] = value;
            }
        }
        return out;
    };
    const auto golden = eval::ScenarioRunner().run(batch);  // Fills.
    auto cold = counters();
    EXPECT_LE(cold["cache.workloads.misses"], std::size(kAllWorkloads));
    for (const int threads : {1, 2, 4, 8}) {
        eval::RunnerOptions options;
        options.threads = threads;
        const auto warm = eval::ScenarioRunner(options).run(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(warm[i].total_cycles, golden[i].total_cycles);
        }
        for (const auto &[name, value] : counters()) {
            if (name.ends_with(".misses") || name.ends_with(".evictions")) {
                EXPECT_EQ(value, cold[name])
                    << name << " at " << threads << " threads";
            }
        }
    }
}

}  // namespace
}  // namespace bitwave
