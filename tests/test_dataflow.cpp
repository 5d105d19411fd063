/**
 * @file
 * Tests for spatial unrollings (Table I), utilization math (Fig. 9),
 * column-cycle statistics, and the access-count model.
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/mapping.hpp"
#include "dataflow/su.hpp"
#include "nn/workloads.hpp"
#include "search/cost.hpp"

namespace bitwave {
namespace {

// ------------------------------------------------------------ Table I ---

TEST(Su, TableOneBandwidths)
{
    // W BW (bits/cycle) and Act BW must reproduce Table I exactly.
    const auto &sus = bitwave_sus();
    ASSERT_EQ(sus.size(), 7u);
    const std::int64_t expect_wbw[] = {256, 512, 1024, 1024, 1024, 1024, 64};
    const std::int64_t expect_abw[] = {1024, 1024, 1024, 64, 128, 256, 1024};
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(sus[i].weight_bandwidth_bits(), expect_wbw[i])
            << sus[i].name;
        EXPECT_EQ(sus[i].activation_bandwidth_bits(), expect_abw[i])
            << sus[i].name;
    }
}

TEST(Su, AllBitwaveSusUseFullArray)
{
    // Every SU keeps the 4096-SMM budget busy (positions x bit columns),
    // except the depthwise SU7 which trades lanes for per-weight
    // bit-column parallelism.
    for (const auto &su : bitwave_sus()) {
        if (su.name == "SU7") {
            EXPECT_EQ(su.total_lanes(), 1024);
            continue;
        }
        EXPECT_EQ(su.total_lanes(), 4096) << su.name;
    }
}

TEST(Su, GroupSizesMatchHardwareSet)
{
    // SU1-SU6 imply the layer-wise tunable column sizes {8, 16, 32}.
    for (const auto &su : bitwave_sus()) {
        if (su.depthwise_only) {
            continue;
        }
        const auto g = su.group_size();
        EXPECT_TRUE(g == 8 || g == 16 || g == 32) << su.name;
    }
}

// -------------------------------------------------------- utilization ---

TEST(Utilization, PerfectFitGivesFullUtilization)
{
    const auto d = make_conv("c", 64, 32, 32, 32, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 32}, {Dim::kC, 16},
                                    {Dim::kOX, 8}}};
    EXPECT_DOUBLE_EQ(spatial_utilization(d, su), 1.0);
}

TEST(Utilization, MisfitPenalizesCeilPadding)
{
    const auto d = make_conv("c", 48, 32, 32, 32, 3, 3);  // K=48 vs Ku=32
    const SpatialUnrolling su{"t", {{Dim::kK, 32}}};
    EXPECT_DOUBLE_EQ(spatial_utilization(d, su), 48.0 / 64.0);
}

TEST(Utilization, DepthwiseStarvesChannelUnrolledSus)
{
    // The Fig. 9 effect: a Cu-heavy SU collapses on depthwise layers.
    const auto dw = make_depthwise("dw", 96, 56, 56, 3);
    const SpatialUnrolling ck{"CK", {{Dim::kC, 64}, {Dim::kK, 64}}};
    EXPECT_LT(spatial_utilization(dw, ck), 0.05);
}

TEST(Utilization, NoFixedSuWinsEverywhere)
{
    // Fig. 9's conclusion: none of the fixed SUs exceeds 80 % utilization
    // on all four workload cases, on either array size.
    const LayerDesc cases[] = {
        make_conv("early", 64, 3, 112, 112, 7, 7, 2),
        make_conv("late", 512, 512, 7, 7, 3, 3),
        make_depthwise("dwcv", 96, 56, 56, 3),
        make_pointwise("pwcv", 96, 16, 112, 112),
    };
    for (std::int64_t lanes : {4096LL, 512LL}) {
        for (const auto &su : fixed_su_baselines(lanes)) {
            double worst = 1.0;
            for (const auto &layer : cases) {
                worst = std::min(worst, spatial_utilization(layer, su));
            }
            EXPECT_LT(worst, 0.8) << su.name << " lanes " << lanes;
        }
    }
}

TEST(Utilization, DynamicSelectionBeatsEveryFixedSusWorstCase)
{
    // The Fig. 9 claim, stated precisely: across the four workload cases
    // the dynamic selection's WORST utilization beats every fixed SU's
    // worst utilization by a wide margin.
    const LayerDesc cases[] = {
        make_conv("early", 64, 3, 112, 112, 7, 7, 2),
        make_conv("late", 512, 512, 7, 7, 3, 3),
        make_depthwise("dwcv", 96, 56, 56, 3),
        make_pointwise("pwcv", 96, 16, 112, 112),
    };
    double dyn_worst = 1.0;
    for (const auto &layer : cases) {
        dyn_worst = std::min(
            dyn_worst,
            spatial_utilization(layer, select_su(layer, bitwave_sus())));
    }
    for (const auto &fixed : fixed_su_baselines(4096)) {
        double fixed_worst = 1.0;
        for (const auto &layer : cases) {
            fixed_worst =
                std::min(fixed_worst, spatial_utilization(layer, fixed));
        }
        EXPECT_GT(dyn_worst, fixed_worst * 2.0) << fixed.name;
    }
}

TEST(Utilization, Su7SelectedForDepthwise)
{
    const auto dw = make_depthwise("dw", 96, 56, 56, 3);
    EXPECT_EQ(select_su(dw, bitwave_sus()).name, "SU7");
}

TEST(Utilization, NormalizedMappingExposesTokensAsOx)
{
    const auto fc = make_linear("fc", 768, 768, 16);
    const auto norm = normalized_for_mapping(fc);
    EXPECT_EQ(norm.ox, 16);
    EXPECT_EQ(norm.batch, 1);
    // Convolutions are unchanged.
    const auto conv = make_conv("c", 8, 8, 4, 4, 3, 3);
    EXPECT_EQ(normalized_for_mapping(conv).ox, conv.ox);
}

TEST(TemporalIterations, MatchesHandComputation)
{
    const auto d = make_conv("c", 64, 32, 28, 28, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 32}, {Dim::kC, 8},
                                    {Dim::kOX, 16}}};
    // ceil(64/32) * ceil(32/8) * ceil(28/16) * 28 * 3 * 3 = 2*4*2*28*9.
    EXPECT_EQ(temporal_iterations(d, su), 2LL * 4 * 2 * 28 * 9);
}

// ----------------------------------------------------- column cycles ---

TEST(ColumnCycles, DenseWeightsTakeEightCycles)
{
    Int8Tensor w({16, 1, 1, 8});
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        w[i] = static_cast<std::int8_t>((i % 2) ? 127 : -127);
    }
    const auto d = make_conv("c", 16, 8, 4, 4, 1, 1);
    const auto cc = search::cached_cycle_stats(
        pack_bitplanes(w, Representation::kSignMagnitude), 8,
        weight_row_geometry(d).row_len, 0);
    EXPECT_DOUBLE_EQ(cc->mean_nonzero_columns(), 8.0);
    // Four columns per cycle: every dense group takes two cycles.
    EXPECT_DOUBLE_EQ(cc->mean_ceil_cycles(4), 2.0);
}

TEST(BitSerialCycles, DenseIsEight)
{
    Int8Tensor w({4}, {-1, -1, -1, -1});  // 0xFF in 2C
    EXPECT_DOUBLE_EQ(
        bit_serial_sync_cycles(w, 4, Representation::kTwosComplement), 8.0);
}

TEST(BitSerialCycles, SyncLanesRaiseCycles)
{
    Rng rng(8);
    Int8Tensor w({4096});
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        w[i] = static_cast<std::int8_t>(rng.laplacian(8.0));
    }
    const double solo =
        bit_serial_sync_cycles(w, 1, Representation::kTwosComplement);
    const double sync16 =
        bit_serial_sync_cycles(w, 16, Representation::kTwosComplement);
    EXPECT_GT(sync16, solo);
}

TEST(BitInterleave, BoundedByWindowDensity)
{
    Rng rng(9);
    Int8Tensor w({4096});
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        w[i] = static_cast<std::int8_t>(rng.laplacian(10.0));
    }
    const double cycles =
        bit_interleave_cycles(w, 64, Representation::kTwosComplement);
    EXPECT_GT(cycles, 0.0);
    EXPECT_LE(cycles, 64.0);
}

// -------------------------------------------------------- access model ---

TEST(AccessCounts, DramCarriesCompressedWeightsOnce)
{
    const auto d = make_conv("c", 64, 64, 28, 28, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 32}, {Dim::kC, 16}}};
    MemoryHierarchy mem;
    CompressionFactors cf;
    cf.weight_fetch_ratio = 0.5;
    ExecutionProfile exec;
    exec.utilization = 1.0;
    exec.compute_cycles = 1000.0;
    exec.weight_port_active_bits = 512.0;
    exec.input_dram_fraction = 0.0;
    exec.output_dram_fraction = 0.0;
    const auto ac = compute_access_counts(d, su, mem, cf, exec);
    EXPECT_DOUBLE_EQ(ac.dram_read_weight_bits,
                     static_cast<double>(d.weight_count()) * 8 * 0.5);
    EXPECT_DOUBLE_EQ(ac.dram_read_act_bits, 0.0);
    EXPECT_DOUBLE_EQ(ac.dram_write_act_bits, 0.0);
}

TEST(AccessCounts, FirstAndLastLayerActivationsCrossDram)
{
    const auto d = make_conv("c", 8, 3, 8, 8, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 8}}};
    MemoryHierarchy mem;
    CompressionFactors cf;
    ExecutionProfile exec;
    exec.input_dram_fraction = 1.0;
    exec.output_dram_fraction = 1.0;
    exec.compute_cycles = 10.0;
    exec.weight_port_active_bits = 64.0;
    const auto ac = compute_access_counts(d, su, mem, cf, exec);
    EXPECT_DOUBLE_EQ(ac.dram_read_act_bits,
                     static_cast<double>(d.input_count()) * 8);
    EXPECT_DOUBLE_EQ(ac.dram_write_act_bits,
                     static_cast<double>(d.output_count()) * 8);
}

TEST(AccessCounts, LowUtilizationInflatesActReads)
{
    const auto d = make_conv("c", 64, 64, 28, 28, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 32}}};
    MemoryHierarchy mem;
    CompressionFactors cf;
    ExecutionProfile high, low;
    high.utilization = 1.0;
    low.utilization = 0.25;
    const auto ac_high = compute_access_counts(d, su, mem, cf, high);
    const auto ac_low = compute_access_counts(d, su, mem, cf, low);
    EXPECT_NEAR(ac_low.sram_read_act_bits / ac_high.sram_read_act_bits,
                4.0, 1e-9);
}

TEST(AccessCounts, WeightStationarySwapsStreamingForPsumSpills)
{
    const auto d = make_conv("c", 64, 64, 28, 28, 3, 3);
    const SpatialUnrolling su{"t", {{Dim::kK, 32}, {Dim::kC, 16}}};
    MemoryHierarchy mem;
    CompressionFactors cf;
    ExecutionProfile serial, stationary;
    serial.compute_cycles = 1e6;
    serial.weight_port_active_bits = 512.0;
    stationary = serial;
    stationary.weight_stationary = true;
    stationary.c_tiles = 4;
    const auto ac_s = compute_access_counts(d, su, mem, cf, serial);
    const auto ac_w = compute_access_counts(d, su, mem, cf, stationary);
    EXPECT_DOUBLE_EQ(ac_s.sram_read_weight_bits, 1e6 * 512.0);
    EXPECT_DOUBLE_EQ(ac_w.sram_read_weight_bits,
                     static_cast<double>(d.weight_count()) * 8);
    EXPECT_GT(ac_w.sram_write_act_bits, ac_s.sram_write_act_bits);
}

}  // namespace
}  // namespace bitwave
