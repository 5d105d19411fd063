/**
 * @file
 * Unit tests for sparsity statistics and bit-column analysis, including
 * the paper's running example of Fig. 4.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "sparsity/bitcolumn.hpp"
#include "sparsity/stats.hpp"

namespace bitwave {
namespace {

Int8Tensor
random_laplacian_tensor(std::int64_t n, double scale, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t({n});
    for (std::int64_t i = 0; i < n; ++i) {
        t[i] = static_cast<std::int8_t>(std::clamp<int>(
            static_cast<int>(rng.laplacian(scale)), -127, 127));
    }
    return t;
}

TEST(SparsityStats, CountsZeroWords)
{
    Int8Tensor t({5}, {0, 1, 0, -2, 0});
    const auto s = compute_sparsity(t);
    EXPECT_EQ(s.words, 5);
    EXPECT_EQ(s.zero_words, 3);
    EXPECT_DOUBLE_EQ(s.value_sparsity(), 0.6);
}

TEST(SparsityStats, BitSparsityPerRepresentation)
{
    // -1: 2C = 0xFF (0 zero bits), SM = 0x81 (6 zero bits).
    Int8Tensor t({1}, {-1});
    const auto s = compute_sparsity(t);
    EXPECT_DOUBLE_EQ(s.bit_sparsity(Representation::kTwosComplement), 0.0);
    EXPECT_DOUBLE_EQ(s.bit_sparsity(Representation::kSignMagnitude),
                     6.0 / 8.0);
}

TEST(SparsityStats, SparsityRatioDefinition)
{
    Int8Tensor t({4}, {0, 1, 2, 3});
    const auto s = compute_sparsity(t);
    const double vs = s.value_sparsity();
    const double bs = s.bit_sparsity(Representation::kTwosComplement);
    EXPECT_DOUBLE_EQ(s.sparsity_ratio(Representation::kTwosComplement),
                     bs / vs);
}

TEST(SparsityStats, MergeAccumulates)
{
    Int8Tensor a({2}, {0, 1});
    Int8Tensor b({2}, {0, 0});
    auto s = compute_sparsity(a);
    s.merge(compute_sparsity(b));
    EXPECT_EQ(s.words, 4);
    EXPECT_EQ(s.zero_words, 3);
}

TEST(SparsityStats, SignMagnitudeSparsityExceedsTwosComplement)
{
    // On realistic (Laplacian, small-magnitude-dominated) weights the
    // paper's core observation must hold: SM bit sparsity > 2C bit
    // sparsity > value sparsity (Fig. 1).
    const auto t = random_laplacian_tensor(1 << 14, 10.0, 99);
    const auto s = compute_sparsity(t);
    EXPECT_GT(s.bit_sparsity(Representation::kSignMagnitude),
              s.bit_sparsity(Representation::kTwosComplement));
    EXPECT_GT(s.bit_sparsity(Representation::kTwosComplement),
              s.value_sparsity());
}

TEST(BitColumn, IndexOfAllZeroGroupIsZero)
{
    const std::int8_t g[4] = {0, 0, 0, 0};
    EXPECT_EQ(column_index(g, Representation::kTwosComplement), 0);
    EXPECT_EQ(column_index(g, Representation::kSignMagnitude), 0);
    EXPECT_EQ(zero_column_count(g, Representation::kSignMagnitude), 8);
}

TEST(BitColumn, IndexIsOrOfEncodings)
{
    const std::int8_t g[2] = {1, 2};  // 0000'0001 | 0000'0010
    EXPECT_EQ(column_index(g, Representation::kTwosComplement), 0x03);
    EXPECT_EQ(zero_column_count(g, Representation::kTwosComplement), 6);
}

TEST(BitColumn, SmallNegativesKillTwosComplementColumns)
{
    // One small negative value sets all high columns in 2C but only the
    // sign column in SM — the Fig. 4(a) vs 4(b) contrast.
    const std::int8_t g[4] = {2, 4, -3, 6};
    const int zeros_2c = zero_column_count(g, Representation::kTwosComplement);
    const int zeros_sm = zero_column_count(g, Representation::kSignMagnitude);
    EXPECT_LT(zeros_2c, zeros_sm);
    EXPECT_GE(zeros_sm, 4);
}

TEST(BitColumn, SignColumnZeroWhenAllPositive)
{
    const std::int8_t g[4] = {1, 2, 3, 4};
    const auto idx = column_index(g, Representation::kSignMagnitude);
    EXPECT_FALSE(test_bit(idx, 7));
}

TEST(BitColumn, SignColumnSetWhenAnyNegative)
{
    const std::int8_t g[4] = {1, 2, -3, 4};
    const auto idx = column_index(g, Representation::kSignMagnitude);
    EXPECT_TRUE(test_bit(idx, 7));
}

TEST(BitColumn, ColumnBitsExtractsPlane)
{
    const std::int8_t g[3] = {1, 3, 0};  // bit0: w0,w1 -> 0b011
    EXPECT_EQ(column_bits(g, 0, Representation::kTwosComplement), 0b011u);
    EXPECT_EQ(column_bits(g, 1, Representation::kTwosComplement), 0b010u);
    EXPECT_EQ(column_bits(g, 7, Representation::kTwosComplement), 0u);
}

TEST(BitColumn, AnalyzeCountsGroupsWithPadding)
{
    Int8Tensor t({10});
    t.fill(1);
    const auto stats =
        analyze_bit_columns(t, 4, Representation::kSignMagnitude);
    EXPECT_EQ(stats.groups, 3);  // 4 + 4 + 2(padded)
    EXPECT_EQ(stats.columns, 24);
    // Only column 0 non-zero in each group.
    EXPECT_EQ(stats.zero_columns, 21);
    EXPECT_EQ(stats.zero_column_hist[7], 3);
}

TEST(BitColumn, HistogramSumsToGroups)
{
    const auto t = random_laplacian_tensor(4096, 14.0, 123);
    const auto stats =
        analyze_bit_columns(t, 16, Representation::kSignMagnitude);
    std::int64_t sum = 0;
    for (int k = 0; k <= 8; ++k) {
        sum += stats.zero_column_hist[k];
    }
    EXPECT_EQ(sum, stats.groups);
}

TEST(BitColumn, SparsityDecreasesWithGroupSize)
{
    // Larger groups have fewer co-occurring zero columns (Section III-C).
    const auto t = random_laplacian_tensor(1 << 15, 12.0, 7);
    double prev = 1.0;
    for (int g : {1, 2, 4, 8, 16, 32, 64}) {
        const double cs =
            analyze_bit_columns(t, g, Representation::kSignMagnitude)
                .column_sparsity();
        EXPECT_LE(cs, prev + 1e-12) << "group size " << g;
        prev = cs;
    }
}

TEST(BitColumn, SignMagnitudeBeatsTwosComplementOnWeights)
{
    const auto t = random_laplacian_tensor(1 << 15, 12.0, 31);
    for (int g : {8, 16, 32}) {
        const double sm =
            analyze_bit_columns(t, g, Representation::kSignMagnitude)
                .column_sparsity();
        const double tc =
            analyze_bit_columns(t, g, Representation::kTwosComplement)
                .column_sparsity();
        EXPECT_GT(sm, tc) << "group size " << g;
    }
}

TEST(BitColumn, ColumnIndexesMatchAnalyze)
{
    const auto t = random_laplacian_tensor(1000, 9.0, 17);
    std::vector<std::uint8_t> idxs(
        static_cast<std::size_t>(scan_group_count(t.numel(), t.numel(), 8)));
    scan_group_indexes(pack_bitplanes(t, Representation::kSignMagnitude),
                       t.numel(), 8, idxs.data());
    const auto stats =
        analyze_bit_columns(t, 8, Representation::kSignMagnitude);
    ASSERT_EQ(static_cast<std::int64_t>(idxs.size()), stats.groups);
    std::int64_t zeros = 0;
    for (auto idx : idxs) {
        zeros += 8 - popcount8(idx);
    }
    EXPECT_EQ(zeros, stats.zero_columns);
}

TEST(BitColumn, MeanNonzeroColumnsConsistent)
{
    const auto t = random_laplacian_tensor(2048, 10.0, 53);
    const auto stats =
        analyze_bit_columns(t, 16, Representation::kSignMagnitude);
    EXPECT_NEAR(stats.mean_nonzero_columns(),
                8.0 * (1.0 - stats.column_sparsity()), 1e-9);
}

// Property sweep: zero-column count via the index must equal a direct
// per-column scan, for many random groups and all group sizes.
class BitColumnProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BitColumnProperty, IndexMatchesDirectColumnScan)
{
    const int g_size = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(g_size));
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int8_t> group(static_cast<std::size_t>(g_size));
        for (auto &w : group) {
            w = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        }
        for (auto repr : {Representation::kTwosComplement,
                          Representation::kSignMagnitude}) {
            const auto idx = column_index(group, repr);
            for (int b = 0; b < 8; ++b) {
                const bool nz = column_bits(group, b, repr) != 0;
                EXPECT_EQ(test_bit(idx, b), nz)
                    << "g=" << g_size << " bit=" << b;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllGroupSizes, BitColumnProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace bitwave
