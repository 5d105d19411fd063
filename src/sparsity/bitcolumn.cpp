#include "sparsity/bitcolumn.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"

namespace bitwave {

namespace {

std::uint8_t
encode(std::int8_t value, Representation repr)
{
    return repr == Representation::kTwosComplement
        ? static_cast<std::uint8_t>(value) : to_sign_magnitude(value);
}

}  // namespace

std::uint8_t
column_index(std::span<const std::int8_t> group, Representation repr)
{
    std::uint8_t mask = 0;
    for (std::int8_t v : group) {
        mask |= encode(v, repr);
    }
    return mask;
}

int
zero_column_count(std::span<const std::int8_t> group, Representation repr)
{
    return kWordBits - popcount8(column_index(group, repr));
}

double
BitColumnStats::column_sparsity() const
{
    return columns > 0
        ? static_cast<double>(zero_columns) / static_cast<double>(columns)
        : 0.0;
}

double
BitColumnStats::mean_nonzero_columns() const
{
    return groups > 0
        ? static_cast<double>(columns - zero_columns) /
              static_cast<double>(groups)
        : 0.0;
}

double
BitColumnStats::mean_ceil_cycles(int bit_columns) const
{
    if (groups == 0 || bit_columns < 1) {
        return mean_nonzero_columns();
    }
    double total = 0.0;
    for (int nz = 0; nz <= kWordBits; ++nz) {
        const double cycles = std::max(
            1.0, std::ceil(static_cast<double>(nz) /
                           static_cast<double>(bit_columns)));
        total += cycles *
            static_cast<double>(zero_column_hist[kWordBits - nz]);
    }
    return total / static_cast<double>(groups);
}

std::int64_t
BitColumnStats::bcs_payload_bits() const
{
    return (columns - zero_columns) * group_size;
}

std::int64_t
BitColumnStats::bcs_bits() const
{
    return groups * kWordBits + bcs_payload_bits();
}

double
BitColumnStats::bcs_compression_ratio() const
{
    const std::int64_t bits = bcs_bits();
    return bits > 0 ? static_cast<double>(elements * kWordBits) /
                          static_cast<double>(bits)
                    : 0.0;
}

void
BitColumnStats::merge(const BitColumnStats &other)
{
    elements += other.elements;
    groups += other.groups;
    columns += other.columns;
    zero_columns += other.zero_columns;
    for (int k = 0; k <= kWordBits; ++k) {
        zero_column_hist[k] += other.zero_column_hist[k];
    }
}

BitColumnStats
analyze_bit_columns_scalar(const Int8Tensor &tensor, int group_size,
                           std::int64_t row_len, Representation repr)
{
    const std::int64_t n = tensor.numel();
    if (group_size < 1 || (n > 0 && (row_len < 1 || n % row_len != 0))) {
        fatal("analyze_bit_columns: group_size %d, row_len %lld for %lld "
              "elements", group_size, static_cast<long long>(row_len),
              static_cast<long long>(n));
    }
    BitColumnStats stats;
    stats.group_size = group_size;
    stats.repr = repr;
    stats.elements = n;

    for (std::int64_t row = 0; row < n; row += row_len) {
        for (std::int64_t c = 0; c < row_len; c += group_size) {
            const std::int64_t len =
                std::min<std::int64_t>(group_size, row_len - c);
            // A row's tail group is implicitly zero-padded: padding
            // contributes no 1 bits, so the index over the real
            // elements is already correct.
            const std::uint8_t idx = column_index(
                std::span<const std::int8_t>(tensor.data() + row + c,
                                             static_cast<std::size_t>(len)),
                repr);
            const int zeros = kWordBits - popcount8(idx);
            ++stats.groups;
            stats.columns += kWordBits;
            stats.zero_columns += zeros;
            ++stats.zero_column_hist[zeros];
        }
    }
    return stats;
}

namespace {

/// Group, column and zero-column totals of a filled histogram.
BitColumnStats
with_totals(BitColumnStats stats)
{
    for (int zeros = 0; zeros <= kWordBits; ++zeros) {
        const std::int64_t groups = stats.zero_column_hist[zeros];
        stats.groups += groups;
        stats.columns += groups * kWordBits;
        stats.zero_columns += groups * zeros;
    }
    return stats;
}

}  // namespace

BitColumnStats
analyze_bit_columns(const BitPlanes &planes, int group_size,
                    std::int64_t row_len)
{
    BitColumnStats stats;
    stats.group_size = group_size;
    stats.repr = planes.repr;
    stats.elements = planes.n;
    // Fused word-parallel histogram: no intermediate mask buffer.
    scan_zero_column_histogram(planes, row_len, group_size,
                               stats.zero_column_hist);
    return with_totals(stats);
}

BitColumnStats
analyze_bit_columns(const Int8Tensor &tensor, int group_size,
                    Representation repr)
{
    return analyze_bit_columns(pack_bitplanes(tensor, repr), group_size,
                               tensor.numel());
}

std::uint64_t
column_bits(std::span<const std::int8_t> group, int column,
            Representation repr)
{
    if (column < 0 || column >= kWordBits) {
        fatal("column_bits: column %d out of range", column);
    }
    if (group.size() > 64) {
        fatal("column_bits: group size %zu exceeds 64", group.size());
    }
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < group.size(); ++j) {
        if (test_bit(encode(group[j], repr), column)) {
            bits |= 1ULL << j;
        }
    }
    return bits;
}

}  // namespace bitwave
