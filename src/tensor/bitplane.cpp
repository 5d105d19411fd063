#include "tensor/bitplane.hpp"

#include <algorithm>
#include <array>

#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "common/trace.hpp"

namespace bitwave {

namespace {

/**
 * Transpose an 8x8 bit matrix packed into a uint64 (row i = byte i,
 * column j = bit j): output bit (8j + i) = input bit (8i + j). The
 * three delta-swap rounds are the classic Hacker's Delight 7-3 routine.
 */
constexpr std::uint64_t
transpose8(std::uint64_t x)
{
    std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x = x ^ t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x = x ^ t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x = x ^ t ^ (t << 28);
    return x;
}

/// byte -> sign-magnitude encoding of the int8 it stores.
const std::array<std::uint8_t, 256> &
sm_encode_table()
{
    static const auto table = [] {
        std::array<std::uint8_t, 256> t{};
        for (int v = 0; v < 256; ++v) {
            t[static_cast<std::size_t>(v)] = to_sign_magnitude(
                static_cast<std::int8_t>(static_cast<std::uint8_t>(v)));
        }
        return t;
    }();
    return table;
}

/// Mask with the most significant bit of every @p lane_bits lane set.
constexpr std::uint64_t
lane_msb_mask(int lane_bits)
{
    std::uint64_t m = 0;
    for (int b = lane_bits - 1; b < 64; b += lane_bits) {
        m |= 1ULL << b;
    }
    return m;
}

/// Per-lane non-zero test: the msb of each @p lane lane of the result is
/// set exactly when that lane of @p x holds at least one 1 bit.
constexpr std::uint64_t
lanes_nonzero(std::uint64_t x, std::uint64_t msb)
{
    const std::uint64_t low = ~msb;
    return (((x & low) + low) | x) & msb;
}

}  // namespace

BitPlanes
pack_bitplanes(const Int8Tensor &tensor, Representation repr)
{
    // A throwing pack never poisons the shared cache: get_or_build
    // leaves the entry unbuilt on exception, so the next hit rebuilds.
    BITWAVE_FAULT_POINT("bitplane.pack");
    BitPlanes out;
    out.repr = repr;
    out.n = tensor.numel();
    out.words = (out.n + 63) >> 6;
    out.bits.assign(static_cast<std::size_t>(out.words) * kWordBits, 0);

    const std::int8_t *data = tensor.data();
    const bool sm = repr == Representation::kSignMagnitude;
    const auto &enc = sm_encode_table();

    for (std::int64_t w = 0; w < out.words; ++w) {
        const std::int64_t base = w << 6;
        const int in_word =
            static_cast<int>(std::min<std::int64_t>(64, out.n - base));
        std::uint64_t acc[kWordBits] = {};
        for (int s = 0; s * 8 < in_word; ++s) {
            const std::int8_t *e = data + base + s * 8;
            const int cnt = std::min(8, in_word - s * 8);
            std::uint64_t rows = 0;
            if (sm) {
                for (int i = 0; i < cnt; ++i) {
                    rows |= static_cast<std::uint64_t>(
                                enc[static_cast<std::uint8_t>(e[i])])
                        << (8 * i);
                }
            } else {
                for (int i = 0; i < cnt; ++i) {
                    rows |= static_cast<std::uint64_t>(
                                static_cast<std::uint8_t>(e[i]))
                        << (8 * i);
                }
            }
            const std::uint64_t y = transpose8(rows);
            for (int b = 0; b < kWordBits; ++b) {
                acc[b] |= ((y >> (8 * b)) & 0xFFULL) << (8 * s);
            }
        }
        for (int b = 0; b < kWordBits; ++b) {
            out.bits[static_cast<std::size_t>(b) *
                         static_cast<std::size_t>(out.words) +
                     static_cast<std::size_t>(w)] = acc[b];
        }
    }
    return out;
}

namespace {

/**
 * The one per-group walk under every scan below: validate the geometry,
 * then hand @p fn each group's column-index mask in group order. Rows of
 * @p row_len elements split into ceil(row_len / group_size) groups, the
 * last one truncated.
 *
 * Power-of-two groups of >= 8 never straddle words when rows are
 * 64-aligned (or the scan is flat), so those take the word-parallel
 * path: per plane word, the 64/G lane-nonzero flags of all 8 planes
 * interleave into one word `y` (group l's mask at bits [l*G, l*G+8)).
 * Padding lanes are zero in every plane, so their mask bits never fire.
 * Any other geometry reads group_index() group by group.
 */
template <typename Fn>
void
for_each_group_mask(const char *what, const BitPlanes &planes,
                    std::int64_t row_len, int group_size, Fn &&fn)
{
    if (group_size < 1 || group_size > 64) {
        fatal("%s: group_size %d out of [1, 64]", what, group_size);
    }
    if (planes.n == 0) {
        return;
    }
    if (row_len < 1 || planes.n % row_len != 0) {
        fatal("%s: row_len %lld does not tile %lld elements", what,
              static_cast<long long>(row_len),
              static_cast<long long>(planes.n));
    }
    if ((group_size & (group_size - 1)) == 0 && group_size >= 8 &&
        (row_len % 64 == 0 || row_len == planes.n)) {
        const std::uint64_t msb = lane_msb_mask(group_size);
        const std::uint64_t *plane[kWordBits];
        for (int b = 0; b < kWordBits; ++b) {
            plane[b] = planes.plane(b);
        }
        for (std::int64_t w = 0; w < planes.words; ++w) {
            std::uint64_t y = 0;
            for (int b = 0; b < kWordBits; ++b) {
                y |= (lanes_nonzero(plane[b][w], msb) >> (group_size - 1))
                    << b;
            }
            const std::int64_t valid =
                std::min<std::int64_t>(64, planes.n - (w << 6));
            const int groups = static_cast<int>(ceil_div(valid, group_size));
            for (int l = 0; l < groups; ++l) {
                fn(static_cast<std::uint8_t>((y >> (l * group_size)) &
                                             0xFF));
            }
        }
        return;
    }
    for (std::int64_t r0 = 0; r0 < planes.n; r0 += row_len) {
        for (std::int64_t c = 0; c < row_len; c += group_size) {
            const int len = static_cast<int>(
                std::min<std::int64_t>(group_size, row_len - c));
            fn(planes.group_index(r0 + c, len));
        }
    }
}

}  // namespace

std::int64_t
scan_group_count(std::int64_t n, std::int64_t row_len, int group_size)
{
    if (n == 0) {
        return 0;
    }
    if (row_len < 1 || n % row_len != 0) {
        fatal("scan_group_count: row_len %lld does not tile %lld elements",
              static_cast<long long>(row_len), static_cast<long long>(n));
    }
    return (n / row_len) * ceil_div(row_len, group_size);
}

void
scan_group_indexes(const BitPlanes &planes, std::int64_t row_len,
                   int group_size, std::uint8_t *out)
{
    for_each_group_mask("scan_group_indexes", planes, row_len, group_size,
                        [&](std::uint8_t mask) { *out++ = mask; });
}

void
scan_zero_column_histogram(const BitPlanes &planes, std::int64_t row_len,
                           int group_size, std::int64_t hist[9])
{
    for_each_group_mask("scan_zero_column_histogram", planes, row_len,
                        group_size, [&](std::uint8_t mask) {
                            ++hist[kWordBits - popcount8(mask)];
                        });
}

namespace {

LruCache<std::uint64_t, BitPlanes> &
bitplane_cache()
{
    static LruCache<std::uint64_t, BitPlanes> cache(256, "bitplanes");
    return cache;
}

}  // namespace

std::shared_ptr<const BitPlanes>
shared_bitplanes(const Int8Tensor &tensor, Representation repr,
                 std::uint64_t content_hash)
{
    if (content_hash == 0) {
        content_hash = fnv1a(tensor.data(),
                             static_cast<std::size_t>(tensor.numel()));
    }
    std::uint64_t key = hash_combine(content_hash,
                                     static_cast<std::uint64_t>(repr) + 1);
    key = hash_combine(key, static_cast<std::uint64_t>(tensor.numel()));
    return bitplane_cache().get_or_build(key, [&] {
        trace::Span span("bitplane.pack", "bitplane");
        span.arg("elements", static_cast<std::uint64_t>(tensor.numel()));
        span.arg("repr", static_cast<std::uint64_t>(repr));
        return pack_bitplanes(tensor, repr);
    });
}

}  // namespace bitwave
