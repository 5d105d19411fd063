#include "sparsity/stats.hpp"

#include <array>
#include <limits>

#include "common/bits.hpp"

namespace bitwave {

double
SparsityStats::value_sparsity() const
{
    return words > 0
        ? static_cast<double>(zero_words) / static_cast<double>(words) : 0.0;
}

double
SparsityStats::bit_sparsity(Representation repr) const
{
    if (bits == 0) {
        return 0.0;
    }
    const std::int64_t zeros = repr == Representation::kTwosComplement
        ? zero_bits_2c : zero_bits_sm;
    return static_cast<double>(zeros) / static_cast<double>(bits);
}

double
SparsityStats::sparsity_ratio(Representation repr) const
{
    const double vs = value_sparsity();
    const double bs = bit_sparsity(repr);
    if (vs <= 0.0) {
        return bs > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
    }
    return bs / vs;
}

void
SparsityStats::merge(const SparsityStats &other)
{
    words += other.words;
    zero_words += other.zero_words;
    bits += other.bits;
    zero_bits_2c += other.zero_bits_2c;
    zero_bits_sm += other.zero_bits_sm;
}

SparsityStats
compute_sparsity(const Int8Tensor &tensor)
{
    // One increment per element into a byte histogram; the bit counts
    // then come from kBitCounts once per byte value, not per element.
    std::array<std::int64_t, 256> histogram{};
    const std::int8_t *data = tensor.data();
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        ++histogram[static_cast<std::uint8_t>(data[i])];
    }
    SparsityStats stats;
    stats.words = tensor.numel();
    stats.bits = tensor.numel() * kWordBits;
    stats.zero_words = histogram[0];
    std::int64_t set_2c = 0, set_sm = 0;
    for (std::size_t byte = 0; byte < histogram.size(); ++byte) {
        set_2c += histogram[byte] * kBitCounts[byte].twos_complement;
        set_sm += histogram[byte] * kBitCounts[byte].sign_magnitude;
    }
    stats.zero_bits_2c = stats.bits - set_2c;
    stats.zero_bits_sm = stats.bits - set_sm;
    return stats;
}

}  // namespace bitwave
