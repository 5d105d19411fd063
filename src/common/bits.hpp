/**
 * @file
 * Fixed-width bit manipulation utilities shared across the BitWave
 * libraries.
 *
 * Everything in this file operates on 8-bit quantized operands (the paper's
 * Int8 setting) in one of two binary representations:
 *
 *  - two's complement (the storage format of `int8_t`), and
 *  - sign-magnitude, packed into a `uint8_t` with bit 7 the sign and
 *    bits 6..0 the magnitude.
 *
 * The sign-magnitude encoding cannot represent -128 (7-bit magnitude
 * limit); all producers in this repository clamp quantized weights to
 * [-127, 127], matching the BitWave hardware assumption.
 */
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace bitwave {

/// Binary representation used when analyzing bit-level structure.
enum class Representation {
    kTwosComplement,  ///< Standard int8 storage format.
    kSignMagnitude,   ///< Bit7 sign, bits6..0 magnitude.
};

/// Human-readable name of a representation ("2C" / "SM").
const char *representation_name(Representation repr);

/// Number of bits in a quantized operand word.
inline constexpr int kWordBits = 8;

/// Number of magnitude bits in the sign-magnitude encoding.
inline constexpr int kMagnitudeBits = 7;

/// Most negative value representable in 8-bit sign-magnitude.
inline constexpr int kSignMagMin = -127;

/// Most positive value representable in 8-bit sign-magnitude.
inline constexpr int kSignMagMax = 127;

/**
 * Encode a two's-complement int8 value into packed sign-magnitude.
 *
 * @param value Value in [-127, 127]. -128 is clamped to -127.
 * @return Packed byte: bit7 = sign (1 = negative), bits6..0 = |value|.
 */
constexpr std::uint8_t
to_sign_magnitude(std::int8_t value)
{
    // -128 is not representable in 8-bit SM. Branch-free: inlined into
    // element loops, a sign branch mispredicts on every other weight.
    const int v = value < kSignMagMin ? kSignMagMin : value;
    const int negative = v >> 31;  // 0 or -1
    const int magnitude = (v ^ negative) - negative;
    return static_cast<std::uint8_t>((negative & 0x80) | magnitude);
}

/**
 * Decode a packed sign-magnitude byte back to two's complement.
 *
 * Both encodings of zero (0x00 and 0x80) decode to 0.
 */
std::int8_t from_sign_magnitude(std::uint8_t sm);

/// Test bit @p pos (0 = LSB) of @p word.
constexpr bool test_bit(std::uint8_t word, int pos)
{
    return ((word >> pos) & 1u) != 0;
}

/// Number of set bits in @p word.
constexpr int
popcount8(std::uint8_t word)
{
    return std::popcount(word);
}

/// Number of set bits in the two's-complement encoding of @p value.
constexpr int
bit_count_twos_complement(std::int8_t value)
{
    return popcount8(static_cast<std::uint8_t>(value));
}

/// Number of set bits in the sign-magnitude encoding of @p value.
constexpr int
bit_count_sign_magnitude(std::int8_t value)
{
    return popcount8(to_sign_magnitude(value));
}

/// Set-bit counts of one int8 value in both representations.
struct BitCounts
{
    std::uint8_t twos_complement = 0;
    std::uint8_t sign_magnitude = 0;

    /// The count in @p repr.
    constexpr int in(Representation repr) const
    {
        return repr == Representation::kTwosComplement ? twos_complement
                                                       : sign_magnitude;
    }
};

/**
 * (2C, SM) set-bit counts of every int8 value, indexed by its byte
 * (`static_cast<std::uint8_t>(value)`): element scans read one table
 * entry per weight instead of encoding and counting it.
 */
inline constexpr std::array<BitCounts, 256> kBitCounts = [] {
    std::array<BitCounts, 256> table{};
    for (int byte = 0; byte < 256; ++byte) {
        const auto value = static_cast<std::int8_t>(byte);
        table[static_cast<std::size_t>(byte)] = {
            static_cast<std::uint8_t>(bit_count_twos_complement(value)),
            static_cast<std::uint8_t>(bit_count_sign_magnitude(value))};
    }
    return table;
}();

/**
 * Render @p word as a binary literal string, MSB first ("10001100").
 * Used by diagnostics and the bitgroup visualization bench.
 */
std::string to_binary_string(std::uint8_t word);

/**
 * `std::lround(x)` without the libm call: round half away from zero.
 * For |x| < 2^52 both the truncation and the remainder `x - trunc(x)`
 * are exact, so comparing the remainder against +-0.5 rounds exactly as
 * lround does (0.49999999999999994 stays 0, unlike floor(x + 0.5)).
 * Larger magnitudes, infinities and NaN fall back to std::lround.
 */
inline long
round_half_away(double x)
{
    if (!(std::abs(x) < 0x1p52)) {
        return std::lround(x);
    }
    const long t = static_cast<long>(x);
    const double r = x - static_cast<double>(t);
    return t + (r >= 0.5) - (r <= -0.5);
}

/// Integer ceiling division for non-negative operands.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

}  // namespace bitwave
