#include "compress/bcs.hpp"

#include <span>

#include "common/bits.hpp"

namespace bitwave {

std::int64_t
BcsCompressed::index_bits() const
{
    return static_cast<std::int64_t>(groups.size()) * kWordBits;
}

std::int64_t
BcsCompressed::payload_bits() const
{
    std::int64_t bits = 0;
    for (const auto &g : groups) {
        bits += static_cast<std::int64_t>(g.columns.size()) * group_size;
    }
    return bits;
}

std::int64_t
BcsCompressed::compressed_bits() const
{
    return index_bits() + payload_bits();
}

std::int64_t
BcsCompressed::original_bits() const
{
    return element_count * kWordBits;
}

double
BcsCompressed::compression_ratio() const
{
    const std::int64_t c = compressed_bits();
    return c > 0 ? static_cast<double>(original_bits()) /
                       static_cast<double>(c)
                 : 0.0;
}

double
BcsCompressed::ideal_compression_ratio() const
{
    const std::int64_t p = payload_bits();
    if (p == 0) {
        // A tensor of all zeros compresses to indexes only.
        return static_cast<double>(original_bits());
    }
    return static_cast<double>(original_bits()) / static_cast<double>(p);
}

BcsCompressed
bcs_compress_scalar(const Int8Tensor &tensor, int group_size,
                    Representation repr)
{
    if (group_size < 1 || group_size > 64) {
        fatal("bcs_compress: group_size must be in [1, 64], got %d",
              group_size);
    }
    BcsCompressed out;
    out.group_size = group_size;
    out.repr = repr;
    out.element_count = tensor.numel();
    out.shape = tensor.shape();

    const std::int64_t n = tensor.numel();
    out.groups.reserve(static_cast<std::size_t>(ceil_div(n, group_size)));
    for (std::int64_t start = 0; start < n; start += group_size) {
        const std::int64_t len = std::min<std::int64_t>(group_size, n - start);
        const std::span<const std::int8_t> grp(
            tensor.data() + start, static_cast<std::size_t>(len));
        BcsGroup g;
        g.index = column_index(grp, repr);
        for (int b = 0; b < kWordBits; ++b) {
            if (test_bit(g.index, b)) {
                g.columns.push_back(column_bits(grp, b, repr));
            }
        }
        out.groups.push_back(std::move(g));
    }
    return out;
}

BcsCompressed
bcs_compress(const BitPlanes &planes, const Shape &shape, int group_size)
{
    if (group_size < 1 || group_size > 64) {
        fatal("bcs_compress: group_size must be in [1, 64], got %d",
              group_size);
    }
    if (shape_numel(shape) != planes.n) {
        fatal("bcs_compress: shape %s does not match %lld packed elements",
              shape_to_string(shape).c_str(),
              static_cast<long long>(planes.n));
    }
    BcsCompressed out;
    out.group_size = group_size;
    out.repr = planes.repr;
    out.element_count = planes.n;
    out.shape = shape;
    if (planes.n == 0) {
        return out;
    }

    const std::int64_t groups =
        scan_group_count(planes.n, planes.n, group_size);
    std::vector<std::uint8_t> idx(static_cast<std::size_t>(groups));
    scan_group_indexes(planes, planes.n, group_size, idx.data());

    out.groups.resize(static_cast<std::size_t>(groups));
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::int64_t start = g * group_size;
        const int len = static_cast<int>(
            std::min<std::int64_t>(group_size, planes.n - start));
        BcsGroup &grp = out.groups[static_cast<std::size_t>(g)];
        grp.index = idx[static_cast<std::size_t>(g)];
        grp.columns.reserve(
            static_cast<std::size_t>(popcount8(grp.index)));
        for (int b = 0; b < kWordBits; ++b) {
            if (test_bit(grp.index, b)) {
                // A payload column IS the plane segment: weight j of the
                // group at bit j, exactly the scalar column_bits() word.
                grp.columns.push_back(planes.segment(b, start, len));
            }
        }
    }
    return out;
}

BcsCompressed
bcs_compress(const Int8Tensor &tensor, int group_size, Representation repr)
{
    return bcs_compress(pack_bitplanes(tensor, repr), tensor.shape(),
                        group_size);
}

Int8Tensor
bcs_decompress(const BcsCompressed &compressed)
{
    Int8Tensor out(compressed.shape);
    const int g_size = compressed.group_size;
    std::int64_t base = 0;
    for (const auto &g : compressed.groups) {
        std::size_t col_cursor = 0;
        std::vector<std::uint8_t> words(static_cast<std::size_t>(g_size), 0);
        for (int b = 0; b < kWordBits; ++b) {
            if (!test_bit(g.index, b)) {
                continue;
            }
            if (col_cursor >= g.columns.size()) {
                fatal("bcs_decompress: corrupt group, index claims more "
                      "columns than stored");
            }
            const std::uint64_t col = g.columns[col_cursor++];
            for (int j = 0; j < g_size; ++j) {
                if ((col >> j) & 1ULL) {
                    words[static_cast<std::size_t>(j)] |=
                        static_cast<std::uint8_t>(1u << b);
                }
            }
        }
        if (col_cursor != g.columns.size()) {
            fatal("bcs_decompress: corrupt group, stored columns exceed "
                  "index population");
        }
        for (int j = 0; j < g_size && base + j < compressed.element_count;
             ++j) {
            const std::uint8_t w = words[static_cast<std::size_t>(j)];
            out[base + j] = compressed.repr == Representation::kTwosComplement
                ? static_cast<std::int8_t>(w) : from_sign_magnitude(w);
        }
        base += g_size;
    }
    return out;
}

int
best_hardware_group_size(const Int8Tensor &tensor, Representation repr)
{
    // One pack serves all candidate group sizes; the column histogram's
    // sizes are bit-identical to materializing each compression.
    const BitPlanes planes = pack_bitplanes(tensor, repr);
    int best_g = kHardwareGroupSizes[0];
    double best_cr = -1.0;
    for (int g : kHardwareGroupSizes) {
        const double cr =
            analyze_bit_columns(planes, g, planes.n).bcs_compression_ratio();
        if (cr > best_cr) {
            best_cr = cr;
            best_g = g;
        }
    }
    return best_g;
}

}  // namespace bitwave
