/**
 * @file
 * Unit tests for the tensor substrate and reduced-bit PTQ.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {
namespace {

TEST(Tensor, ZeroInitialized)
{
    Int8Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_EQ(t[i], 0);
    }
}

TEST(Tensor, RowMajorIndexing)
{
    Int32Tensor t({2, 3, 4});
    t.at({1, 2, 3}) = 42;
    EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42);
    EXPECT_EQ(t.at({1, 2, 3}), 42);
}

TEST(Tensor, ShapeHelpers)
{
    EXPECT_EQ(shape_numel({2, 3, 4}), 24);
    EXPECT_EQ(shape_numel({}), 1);
    EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, WrapsExternalData)
{
    Int8Tensor t({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at({1, 0}), 3);
}

TEST(Tensor, FillAndEquality)
{
    Int8Tensor a({4});
    Int8Tensor b({4});
    a.fill(7);
    b.fill(7);
    EXPECT_EQ(a, b);
    b[2] = 0;
    EXPECT_FALSE(a == b);
}

TEST(Requantize, EightBitsIsIdentity)
{
    Int8Tensor t({5}, {-127, -3, 0, 5, 127});
    EXPECT_EQ(requantize_to_bits(t, 8), t);
}

TEST(Requantize, FourBitsKeepsMultiplesOfSixteen)
{
    Int8Tensor t({4}, {-100, -9, 7, 100});
    const auto q = requantize_to_bits(t, 4);
    for (std::int64_t i = 0; i < q.numel(); ++i) {
        EXPECT_EQ(q[i] % 16, 0) << "element " << i;
    }
    // Rounded to nearest multiple of 16 (7 is closer to 0 than to 16).
    EXPECT_EQ(q[0], -96);
    EXPECT_EQ(q[1], -16);
    EXPECT_EQ(q[2], 0);
    EXPECT_EQ(q[3], 96);
}

TEST(Requantize, ErrorGrowsAsBitsShrink)
{
    Rng rng(5);
    Int8Tensor t({4096});
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<std::int8_t>(
            std::clamp<int>(static_cast<int>(rng.laplacian(12.0)), -127, 127));
    }
    double prev = 0.0;
    for (int bits = 7; bits >= 3; --bits) {
        const double err = rms_error(t, requantize_to_bits(t, bits));
        EXPECT_GE(err, prev) << "bits " << bits;
        prev = err;
    }
}

TEST(Requantize, CompressionRatio)
{
    EXPECT_DOUBLE_EQ(ptq_compression_ratio(4), 2.0);
    EXPECT_DOUBLE_EQ(ptq_compression_ratio(8), 1.0);
}

TEST(RmsError, ZeroForIdenticalTensors)
{
    Int8Tensor t({3}, {1, -2, 3});
    EXPECT_DOUBLE_EQ(rms_error(t, t), 0.0);
}

TEST(RmsError, MatchesHandComputedValue)
{
    Int8Tensor a({2}, {0, 0});
    Int8Tensor b({2}, {3, 4});
    EXPECT_NEAR(rms_error(a, b), std::sqrt(12.5), 1e-9);
}

}  // namespace
}  // namespace bitwave
