/**
 * @file
 * Tests for the Bit-Flip group transform and the Algorithm 1 greedy
 * search, including the paper's Fig. 4(c) worked example, and the bit
 * pin over the Fig. 6 metrics.
 */
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "bitflip/bitflip.hpp"
#include "bitflip/strategy.hpp"
#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "eval/scenario.hpp"
#include "nn/workloads.hpp"
#include "sparsity/bitcolumn.hpp"
#include "tensor/quantize.hpp"

namespace bitwave {
namespace {

int
sm_zero_cols(std::span<const std::int8_t> group)
{
    return zero_column_count(group, Representation::kSignMagnitude);
}

TEST(NearestMagnitude, FullMaskIsIdentity)
{
    for (int m = 0; m < 128; ++m) {
        EXPECT_EQ(nearest_magnitude_under_mask(m, 0x7F), m);
    }
}

TEST(NearestMagnitude, EmptyMaskMapsToZero)
{
    EXPECT_EQ(nearest_magnitude_under_mask(100, 0), 0);
    EXPECT_EQ(nearest_magnitude_under_mask(0, 0), 0);
}

TEST(NearestMagnitude, SingleBitMask)
{
    // Only bit 2 (value 4) available: nearest to 3 is 4, to 1 is 0.
    EXPECT_EQ(nearest_magnitude_under_mask(3, 0b0000100), 4);
    EXPECT_EQ(nearest_magnitude_under_mask(1, 0b0000100), 0);
    EXPECT_EQ(nearest_magnitude_under_mask(127, 0b0000100), 4);
}

TEST(NearestMagnitude, ResultAlwaysRepresentable)
{
    for (int mask = 0; mask < 128; mask += 7) {
        for (int m = 0; m < 128; m += 3) {
            const int nm = nearest_magnitude_under_mask(m, mask);
            EXPECT_EQ(nm & ~mask, 0);
        }
    }
}

TEST(BitflipGroup, Fig4cExampleMinusThreeBecomesMinusFour)
{
    // Fig. 4(c): targeting five zero columns turns -3 into -4
    // (1000'0011 -> 1000'0100), distance 1.
    std::vector<std::int8_t> group = {-3, 4, -4, 4};
    const auto result = bitflip_group({group.data(), group.size()}, 5);
    EXPECT_GE(result.zero_columns, 5);
    EXPECT_EQ(group[0], -4);
    EXPECT_EQ(group[1], 4);
    EXPECT_EQ(group[2], -4);
    EXPECT_EQ(group[3], 4);
    EXPECT_DOUBLE_EQ(result.squared_error, 1.0);
}

TEST(BitflipGroup, AlreadySatisfiedIsNoOp)
{
    std::vector<std::int8_t> group = {1, 1, 1, 1};  // 7 zero columns
    const auto before = group;
    const auto result = bitflip_group({group.data(), group.size()}, 7);
    EXPECT_EQ(group, before);
    EXPECT_DOUBLE_EQ(result.squared_error, 0.0);
}

TEST(BitflipGroup, TargetEightZeroesEverything)
{
    std::vector<std::int8_t> group = {17, -99, 3, 127};
    bitflip_group({group.data(), group.size()}, 8);
    for (auto v : group) {
        EXPECT_EQ(v, 0);
    }
}

TEST(BitflipGroup, TargetZeroNeverModifies)
{
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::int8_t> group(16);
        for (auto &v : group) {
            v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        }
        const auto before = group;
        bitflip_group({group.data(), group.size()}, 0);
        EXPECT_EQ(group, before);
    }
}

TEST(BitflipGroup, SignColumnClearedWhenCheapest)
{
    // A single small negative among positives: clearing the sign column
    // (cost 1) beats clearing the heavily-used bit0 column.
    std::vector<std::int8_t> group = {-1, 1, 1, 1, 1, 1, 1, 1};
    EXPECT_EQ(sm_zero_cols({group.data(), group.size()}), 6);
    const auto result = bitflip_group({group.data(), group.size()}, 7);
    EXPECT_GE(result.zero_columns, 7);
    EXPECT_DOUBLE_EQ(result.squared_error, 1.0);
    EXPECT_EQ(group[0], 0);
}

class BitflipProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BitflipProperty, AlwaysReachesTargetWithBoundedError)
{
    const auto [g_size, target] = GetParam();
    Rng rng(static_cast<std::uint64_t>(g_size * 100 + target));
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::int8_t> group(static_cast<std::size_t>(g_size));
        for (auto &v : group) {
            v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        }
        const auto before = group;
        const auto result = bitflip_group({group.data(), group.size()},
                                          target);
        // Constraint met.
        EXPECT_GE(result.zero_columns, target);
        EXPECT_GE(sm_zero_cols({group.data(), group.size()}), target);
        // Worst case is zeroing everything.
        double zero_cost = 0.0;
        for (auto v : before) {
            zero_cost += static_cast<double>(v) * static_cast<double>(v);
        }
        EXPECT_LE(result.squared_error, zero_cost + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitflipProperty,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Values(1, 3, 5, 7, 8)));

TEST(BitflipGroup, ProfileScoringMatchesScalarOracleBitExactly)
{
    // The profile-scored greedy must reproduce the element-at-a-time
    // oracle exactly: same flipped values, same column selections, same
    // reported error — on random groups of every size and target, in
    // both dense and zero-heavy regimes, including the -128 clamp.
    Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const int g_size = 1 + static_cast<int>(rng.uniform_int(0, 63));
        const int target = static_cast<int>(rng.uniform_int(0, 8));
        const double zero_prob = rng.bernoulli(0.5) ? 0.0 : 0.4;
        std::vector<std::int8_t> fast(static_cast<std::size_t>(g_size));
        for (auto &v : fast) {
            v = rng.bernoulli(zero_prob)
                ? 0
                : static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        std::vector<std::int8_t> scalar = fast;
        const auto rf = bitflip_group({fast.data(), fast.size()}, target);
        const auto rs =
            bitflip_group_scalar({scalar.data(), scalar.size()}, target);
        ASSERT_EQ(fast, scalar)
            << "trial " << trial << " g=" << g_size << " z=" << target;
        EXPECT_EQ(rf.zero_columns, rs.zero_columns);
        EXPECT_DOUBLE_EQ(rf.squared_error, rs.squared_error);
    }
}

TEST(BitflipGroup, GreedyCloseToExhaustive)
{
    // The greedy column choice should rarely be far from the exhaustive
    // optimum; verify the gap on random groups.
    Rng rng(77);
    double greedy_total = 0.0, best_total = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int8_t> g1(8), g2(8);
        for (std::size_t i = 0; i < 8; ++i) {
            g1[i] = g2[i] =
                static_cast<std::int8_t>(rng.uniform_int(-60, 60));
        }
        const auto r1 = bitflip_group({g1.data(), g1.size()}, 5);
        const auto r2 = bitflip_group_exhaustive({g2.data(), g2.size()}, 5);
        EXPECT_GE(r1.squared_error, r2.squared_error - 1e-9);
        greedy_total += r1.squared_error;
        best_total += r2.squared_error;
    }
    EXPECT_LT(greedy_total, best_total * 1.5);
}

TEST(BitflipTensor, EveryGroupMeetsTarget)
{
    Rng rng(5);
    Int8Tensor t({1000});
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    }
    const auto flipped = bitflip_tensor(t, 16, 4);
    for (std::int64_t start = 0; start < t.numel(); start += 16) {
        const auto len = std::min<std::int64_t>(16, t.numel() - start);
        EXPECT_GE(sm_zero_cols({flipped.data() + start,
                                static_cast<std::size_t>(len)}),
                  4);
    }
}

TEST(BitflipTensor, IncreasingTargetIncreasesCompression)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    const auto &weights = w.layers[w.layer_index("LSTM.0")].weights;
    double prev_sparsity = -1.0;
    for (int z : {0, 2, 4, 6}) {
        const auto flipped = z == 0 ? weights : bitflip_tensor(weights, 16, z);
        const double cs =
            analyze_bit_columns(flipped, 16, Representation::kSignMagnitude)
                .column_sparsity();
        EXPECT_GT(cs, prev_sparsity) << "z=" << z;
        prev_sparsity = cs;
    }
}

// ------------------------------------------------------------ search ---

TEST(FlipSearch, UntouchedStrategyKeepsBaseMetric)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    FlipSearch search(w, proxy);
    const auto s = search.untouched_strategy();
    EXPECT_DOUBLE_EQ(search.strategy_metric(s), w.base_metric);
    EXPECT_GT(search.strategy_compression_ratio(s), 1.0);
}

TEST(FlipSearch, MetricDecreasesWithAggressiveFlips)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    FlipSearch search(w, proxy);
    auto mild = search.untouched_strategy();
    auto aggressive = search.untouched_strategy();
    for (auto &cfg : aggressive) {
        cfg.zero_columns = 7;
    }
    for (auto &cfg : mild) {
        cfg.zero_columns = 2;
    }
    const double m_mild = search.strategy_metric(mild);
    const double m_aggr = search.strategy_metric(aggressive);
    EXPECT_LT(m_aggr, m_mild);
    EXPECT_LE(m_mild, w.base_metric);
    EXPECT_GT(search.strategy_compression_ratio(aggressive),
              search.strategy_compression_ratio(mild));
}

TEST(FlipSearch, GreedySearchTrajectoryIsMonotoneInCompression)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    FlipSearch search(w, proxy);
    GreedySearchOptions opts;
    opts.min_metric = w.base_metric - 0.1;  // small budget => short search
    opts.group_sizes = {16};
    const auto traj = search.greedy_search(search.untouched_strategy(),
                                           opts);
    ASSERT_GE(traj.size(), 2u);
    for (std::size_t i = 1; i < traj.size(); ++i) {
        EXPECT_GE(traj[i].compression_ratio,
                  traj[i - 1].compression_ratio - 1e-6);
        EXPECT_GE(traj[i].metric, opts.min_metric);
    }
}

TEST(FlipSearch, AppliedStrategyMatchesConfiguredTargets)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    FlipSearch search(w, proxy);
    auto strategy = search.untouched_strategy();
    strategy[w.layer_index("LSTM.1")] = {16, 5};
    const auto weights = search.apply_strategy(strategy);
    const auto &flipped = weights[w.layer_index("LSTM.1")];
    for (std::int64_t start = 0; start + 16 <= flipped.numel();
         start += 16) {
        EXPECT_GE(sm_zero_cols({flipped.data() + start, 16}), 5);
    }
    // Untouched layers are bit-identical.
    EXPECT_EQ(weights[0], w.layers[0].weights);
}

// --------------------------------------------------------- Fig. 6 pin ---

TEST(Fig06, MetricsArePinned)
{
    // Pins the bit patterns of the metrics Fig. 6 reports, computed as
    // bench/fig06_bitflip.cpp computes them: the layer-wise flip
    // sensitivity of panels (a-d) and the PTQ and heavy-layer Bit-Flip
    // points of (e-h). Their weighted error sums are where a contracted
    // a*b + c moves a bit: a -march=native build without
    // -ffp-contract=off moves six fig06 metrics by 1-2 ULP, four of
    // them pinned here, and the anchors' +-20 % bands cannot see that.
    // ResNet18 and Bert-Base (one Bit-Flip point each moves too, by the
    // same arithmetic) are left out for cost: their flips and error
    // sums would add over 6 s to this suite.
    struct Probe
    {
        WorkloadId id;
        std::vector<const char *> layers;
        std::uint64_t pin;
    };
    const Probe probes[] = {
        {WorkloadId::kMobileNetV2,
         {"L.2.pw_proj", "L.27.pw_exp", "fc"},
         0xc712ff7e7b80e445ULL},
        {WorkloadId::kCnnLstm,
         {"conv2", "LSTM.0", "LSTM.1"},
         0xe8279b27e8ed13e7ULL},
    };
    for (const auto &probe : probes) {
        const auto &w = get_workload(probe.id);
        AccuracyProxy proxy(w);
        std::uint64_t h = 0;
        const auto pin = [&h](double metric) {
            h = hash_combine(h, std::bit_cast<std::uint64_t>(metric));
        };
        for (const char *name : probe.layers) {
            const std::size_t idx = w.layer_index(name);
            for (const int z : {2, 4, 6, 7}) {
                const auto flipped = eval::cached_bitflip(
                    w.layers[idx].weights, w.layers[idx].weights_hash, 16,
                    z);
                pin(proxy.metric_with_layer(idx, *flipped));
            }
        }
        for (const int bits : {6, 5, 4}) {
            double weighted = 0.0;
            for (std::size_t l = 0; l < w.layers.size(); ++l) {
                weighted += proxy.depth_weight(l) *
                    proxy.layer_rel_error(
                        l, requantize_to_bits(w.layers[l].weights, bits));
            }
            pin(w.base_metric - w.error_sensitivity * weighted);
        }
        for (const int z : {4, 5, 6}) {
            const auto flipped =
                eval::cached_flip_heavy_layers(w, 0.75, 16, z);
            double weighted = 0.0;
            for (std::size_t l = 0; l < w.layers.size(); ++l) {
                if (flipped[l]) {
                    weighted += proxy.depth_weight(l) *
                        proxy.layer_rel_error(l, *flipped[l]);
                }
            }
            pin(w.base_metric - w.error_sensitivity * weighted);
        }
        EXPECT_EQ(h, probe.pin)
            << workload_name(probe.id) << ": 0x" << std::hex << h;
    }
}

}  // namespace
}  // namespace bitwave
