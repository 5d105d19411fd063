/**
 * @file
 * Tests for the Bit-Flip group transform and the Algorithm 1 greedy
 * search, including the paper's Fig. 4(c) worked example, and the bit
 * pin over the Fig. 6 metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "bitflip/bitflip.hpp"
#include "bitflip/strategy.hpp"
#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "eval/scenario.hpp"
#include "nn/layer.hpp"
#include "nn/synthesis.hpp"
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

/// Same flipped values, zero columns and error bits from the fast
/// kernel as from the element-at-a-time oracle, on a copy of @p group.
void
expect_matches_oracle(const std::vector<std::int8_t> &group, int target,
                      const std::string &what)
{
    std::vector<std::int8_t> fast = group;
    std::vector<std::int8_t> scalar = group;
    const auto rf = bitflip_group({fast.data(), fast.size()}, target);
    const auto rs =
        bitflip_group_scalar({scalar.data(), scalar.size()}, target);
    ASSERT_EQ(fast, scalar) << what;
    EXPECT_EQ(rf.zero_columns, rs.zero_columns) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rf.squared_error),
              std::bit_cast<std::uint64_t>(rs.squared_error))
        << what;
}

TEST(BitflipGroup, MatchesScalarOracleBitExactly)
{
    // The all-candidate kernel must reproduce the oracle exactly on
    // random groups of every target, in four regimes: uniform (with the
    // -128 clamp), 40 % zeros, and the Laplacian (CNN) and Gaussian
    // (transformer) scales the workloads synthesize. Sizes run 1..64,
    // plus 65, 256 and 1,000, past one block of the cost pass.
    Rng rng(2024);
    const int big_sizes[] = {65, 256, 1000};
    for (int trial = 0; trial < 4000; ++trial) {
        const int g_size = trial % 10 == 9
            ? big_sizes[rng.uniform_int(0, 2)]
            : 1 + static_cast<int>(rng.uniform_int(0, 63));
        const int target = static_cast<int>(rng.uniform_int(0, 8));
        const int regime = trial % 4;
        const double scale = regime == 2 ? 3.0 + 4.0 * rng.uniform()
                                         : 24.0 + 10.0 * rng.uniform();
        std::vector<std::int8_t> group(static_cast<std::size_t>(g_size));
        for (auto &v : group) {
            double x = 0.0;
            if (regime == 0 || regime == 1) {
                x = regime == 1 && rng.bernoulli(0.4)
                    ? 0.0
                    : static_cast<double>(rng.uniform_int(-128, 127));
            } else {
                x = regime == 2 ? rng.laplacian(scale)
                                : rng.gaussian(scale);
            }
            v = static_cast<std::int8_t>(std::clamp<std::int64_t>(
                round_half_away(x), -128, 127));
        }
        expect_matches_oracle(group, target,
                              "trial " + std::to_string(trial) +
                                  " g=" + std::to_string(g_size) +
                                  " z=" + std::to_string(target));
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(BitflipGroup, HugeGroupMatchesOracle)
{
    // 300,000 weights of magnitude 127, two thirds negative: the last
    // candidates cost up to 300,000 x 127^2 = 4.8e9 > 2^32. At target 7
    // the sign drop (3.6e9) beats dropping bit 6 (4.8e9) only if no cost
    // wraps at 32 bits; target 8 zeroes everything.
    Rng rng(300000);
    std::vector<std::int8_t> group(300000);
    for (auto &v : group) {
        const std::int64_t pick = rng.uniform_int(0, 2);
        v = static_cast<std::int8_t>(pick == 0 ? 127 : pick == 1 ? -127
                                                                  : -128);
    }
    expect_matches_oracle(group, 7, "z=7");
    expect_matches_oracle(group, 8, "z=8");
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

TEST(BitflipTensor, OutputIsPinned)
{
    // Pins every flipped weight of one CNN-profile (Laplacian) and one
    // transformer-profile (Gaussian) tensor at g16/z4 and g16/z5. Both
    // tensors exceed one 2^16-weight fan-out chunk.
    WeightProfile cnn;
    cnn.scale = 5.0;
    cnn.zero_probability = 0.05;
    cnn.zero_avoidance = 0.8;
    WeightProfile transformer;
    transformer.distribution = WeightDistribution::kGaussian;
    transformer.scale = 28.0;
    transformer.zero_probability = 0.005;
    transformer.zero_avoidance = 0.5;
    transformer.kernel_gain_sigma = 0.3;
    struct Case
    {
        LayerDesc desc;
        WeightProfile profile;
        std::uint64_t pins[2];  // z = 4, 5
    };
    const Case cases[] = {
        {make_conv("conv", 128, 128, 14, 14, 3, 3), cnn,
         {0x980c1e23136209acULL, 0xfc74d9e14890f346ULL}},
        {make_linear("q", 768, 256), transformer,
         {0x4f7885e970a4e83eULL, 0x808b3aca50b27235ULL}},
    };
    for (const auto &c : cases) {
        Rng rng(777);
        const Int8Tensor w = synthesize_weights(c.desc, c.profile, rng);
        for (int i = 0; i < 2; ++i) {
            const Int8Tensor f = bitflip_tensor(w, 16, 4 + i);
            const std::uint64_t h =
                fnv1a(f.data(), static_cast<std::size_t>(f.numel()));
            EXPECT_EQ(h, c.pins[i]) << c.desc.name << " z=" << 4 + i
                                    << ": 0x" << std::hex << h;
        }
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
