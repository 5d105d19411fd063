#include "compress/bcs.hpp"

#include <algorithm>
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

namespace {

/// A stream with no groups yet, after checking that @p group_size is in
/// [1, 64] and that rows of @p row_len tile the tensor.
BcsCompressed
empty_stream(int group_size, std::int64_t row_len, Representation repr,
             const Shape &shape)
{
    const std::int64_t n = shape_numel(shape);
    if (group_size < 1 || group_size > 64 ||
        (n > 0 && (row_len < 1 || n % row_len != 0))) {
        fatal("bcs_compress: group_size %d, row_len %lld for %lld elements",
              group_size, static_cast<long long>(row_len),
              static_cast<long long>(n));
    }
    return {.group_size = group_size, .repr = repr, .element_count = n,
            .row_len = row_len, .shape = shape, .groups = {}};
}

}  // namespace

BcsCompressed
bcs_compress_scalar(const Int8Tensor &tensor, int group_size,
                    std::int64_t row_len, Representation repr)
{
    BcsCompressed out =
        empty_stream(group_size, row_len, repr, tensor.shape());
    const std::int64_t n = tensor.numel();
    for (std::int64_t row = 0; row < n; row += row_len) {
        for (std::int64_t c0 = 0; c0 < row_len; c0 += group_size) {
            const std::int64_t len =
                std::min<std::int64_t>(group_size, row_len - c0);
            const std::span<const std::int8_t> grp(
                tensor.data() + row + c0, static_cast<std::size_t>(len));
            BcsGroup g;
            g.index = column_index(grp, repr);
            for (int b = 0; b < kWordBits; ++b) {
                if (test_bit(g.index, b)) {
                    g.columns.push_back(column_bits(grp, b, repr));
                }
            }
            out.groups.push_back(std::move(g));
        }
    }
    return out;
}

BcsCompressed
bcs_compress(const BitPlanes &planes, const Shape &shape, int group_size,
             std::int64_t row_len)
{
    if (shape_numel(shape) != planes.n) {
        fatal("bcs_compress: shape %s does not match %lld packed elements",
              shape_to_string(shape).c_str(),
              static_cast<long long>(planes.n));
    }
    BcsCompressed out = empty_stream(group_size, row_len, planes.repr, shape);
    if (planes.n == 0) {
        return out;
    }

    const std::int64_t groups =
        scan_group_count(planes.n, row_len, group_size);
    std::vector<std::uint8_t> idx(static_cast<std::size_t>(groups));
    scan_group_indexes(planes, row_len, group_size, idx.data());

    out.groups.resize(static_cast<std::size_t>(groups));
    std::size_t g = 0;
    for (std::int64_t row = 0; row < planes.n; row += row_len) {
        for (std::int64_t c0 = 0; c0 < row_len; c0 += group_size, ++g) {
            const int len = static_cast<int>(
                std::min<std::int64_t>(group_size, row_len - c0));
            BcsGroup &grp = out.groups[g];
            grp.index = idx[g];
            grp.columns.reserve(
                static_cast<std::size_t>(popcount8(grp.index)));
            for (int b = 0; b < kWordBits; ++b) {
                if (test_bit(grp.index, b)) {
                    // A payload column IS the plane segment: weight j of
                    // the group at bit j, exactly the scalar
                    // column_bits() word.
                    grp.columns.push_back(
                        planes.segment(b, row + c0, len));
                }
            }
        }
    }
    return out;
}

BcsCompressed
bcs_compress(const Int8Tensor &tensor, int group_size, Representation repr)
{
    return bcs_compress(pack_bitplanes(tensor, repr), tensor.shape(),
                        group_size, tensor.numel());
}

Int8Tensor
bcs_decompress(const BcsCompressed &compressed)
{
    Int8Tensor out(compressed.shape);
    const int g_size = compressed.group_size;
    const std::int64_t row_len = compressed.row_len;
    if (static_cast<std::int64_t>(compressed.groups.size()) !=
        scan_group_count(out.numel(), row_len, g_size)) {
        fatal("bcs_decompress: %zu groups do not tile shape %s in rows "
              "of %lld", compressed.groups.size(),
              shape_to_string(compressed.shape).c_str(),
              static_cast<long long>(row_len));
    }
    std::int64_t row = 0;  // First element of the current row.
    std::int64_t c0 = 0;   // Offset of the current group in its row.
    for (const auto &g : compressed.groups) {
        std::size_t col_cursor = 0;
        std::uint8_t words[64] = {};
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
                    words[j] |= static_cast<std::uint8_t>(1u << b);
                }
            }
        }
        if (col_cursor != g.columns.size()) {
            fatal("bcs_decompress: corrupt group, stored columns exceed "
                  "index population");
        }
        const std::int64_t len = std::min<std::int64_t>(g_size, row_len - c0);
        for (std::int64_t j = 0; j < len; ++j) {
            out[row + c0 + j] =
                compressed.repr == Representation::kTwosComplement
                ? static_cast<std::int8_t>(words[j])
                : from_sign_magnitude(words[j]);
        }
        c0 += g_size;
        if (c0 >= row_len) {
            row += row_len;
            c0 = 0;
        }
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
