#include "bitflip/bitflip.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "common/worksteal.hpp"

namespace bitwave {

namespace {

/**
 * nearest_table[mask][m] = value closest to m using only bits of mask.
 * Ties round up (away from zero), matching the paper's Fig. 4(c) example
 * where -3 flips to -4 rather than -2.
 */
const std::array<std::array<std::uint8_t, 128>, 128> &
nearest_table()
{
    static const auto table = [] {
        std::array<std::array<std::uint8_t, 128>, 128> t{};
        for (int mask = 0; mask < 128; ++mask) {
            for (int m = 0; m < 128; ++m) {
                int best = 0;
                int best_dist = std::numeric_limits<int>::max();
                for (int cand = 0; cand < 128; ++cand) {
                    if ((cand & ~mask) != 0) {
                        continue;
                    }
                    const int dist = std::abs(cand - m);
                    if (dist < best_dist ||
                        (dist == best_dist && cand > best)) {
                        best_dist = dist;
                        best = cand;
                    }
                }
                t[static_cast<std::size_t>(mask)]
                 [static_cast<std::size_t>(m)] =
                    static_cast<std::uint8_t>(best);
            }
        }
        return t;
    }();
    return table;
}

/// err2_table[mask][m] = squared re-rounding error of magnitude m under
/// mask.
const std::array<std::array<std::uint16_t, 128>, 128> &
err2_table()
{
    static const auto table = [] {
        std::array<std::array<std::uint16_t, 128>, 128> t{};
        const auto &nearest = nearest_table();
        for (int mask = 0; mask < 128; ++mask) {
            for (int m = 0; m < 128; ++m) {
                const int d = m - nearest[static_cast<std::size_t>(mask)]
                                        [static_cast<std::size_t>(m)];
                t[static_cast<std::size_t>(mask)]
                 [static_cast<std::size_t>(m)] =
                    static_cast<std::uint16_t>(d * d);
            }
        }
        return t;
    }();
    return table;
}

/// Magnitude of @p v in sign-magnitude range: -128 clamps to 127, the
/// same convention to_sign_magnitude() applies (and the guard that
/// keeps the 128-entry lookup tables in bounds).
int
sm_magnitude(std::int8_t v)
{
    return std::min(std::abs(static_cast<int>(v)), 127);
}

/// Re-round @p original under configuration (mask, sign_allowed).
std::int8_t
reround(std::int8_t original, int mask, bool sign_allowed)
{
    if (!sign_allowed && original < 0) {
        // Nearest non-negative representable value to a negative weight is
        // 0 (distance |v|; any positive candidate is at least |v| + 1).
        return 0;
    }
    const int m = sm_magnitude(original);
    const int nm = nearest_table()[static_cast<std::size_t>(mask)]
                                  [static_cast<std::size_t>(m)];
    return static_cast<std::int8_t>(original < 0 ? -nm : nm);
}

/// Squared error of re-rounding @p originals under (mask, sign_allowed).
double
config_cost(std::span<const std::int8_t> originals, int mask,
            bool sign_allowed)
{
    const auto &err2 = err2_table()[static_cast<std::size_t>(mask)];
    std::int64_t cost = 0;
    for (std::int8_t v : originals) {
        const int m = sm_magnitude(v);
        // A negative weight without the sign column re-rounds to 0
        // (distance |v|); everything else follows the mask table.
        cost += (v < 0 && !sign_allowed)
            ? m * m : err2[static_cast<std::size_t>(m)];
    }
    return static_cast<double>(cost);
}

/// SM column-occupancy mask of @p group (bit7 = sign column).
std::uint8_t
occupancy(std::span<const std::int8_t> group)
{
    std::uint8_t idx = 0;
    for (std::int8_t v : group) {
        idx |= to_sign_magnitude(v);
    }
    return idx;
}

/// Materialize (mask, sign_allowed) into @p group from @p originals.
void
materialize(std::span<std::int8_t> group,
            std::span<const std::int8_t> originals, int mask,
            bool sign_allowed)
{
    for (std::size_t i = 0; i < group.size(); ++i) {
        group[i] = reround(originals[i], mask, sign_allowed);
    }
}

/// Four uint32_t lanes; GCC/Clang lower its arithmetic to SSE2 at the
/// baseline target.
using U32x4 = std::uint32_t __attribute__((vector_size(16)));

/// One weight's squared re-rounding error under each of the eight greedy
/// candidates: lanes 0-3 in `lo`, lanes 4-7 in `hi`.
struct DropRow
{
    U32x4 lo;
    U32x4 hi;
};

/// Rows per allowed mask: one per sign-magnitude byte.
using DropRows = std::array<DropRow, 256>;

/**
 * drop_table[mask][sm][c] = squared re-rounding error of the weight
 * whose sign-magnitude byte is sm once greedy candidate c leaves the
 * allowed columns @p mask: magnitude column c for c < 7, the sign
 * column for c = 7. A non-negative weight keeps its value's error
 * err2[mask][m] when the sign column drops; a negative one re-rounds to
 * 0, error m^2. So with the sign column allowed, each weight's row
 * prices all eight candidates, and a group's costs are its rows' lane
 * sums. One 32-byte row of uint32_t lanes per (mask, byte), 1 MB in
 * all, built once like nearest_table.
 */
const std::array<DropRows, 128> &
drop_table()
{
    static const auto table = [] {
        std::array<DropRows, 128> t{};
        const auto &err2 = err2_table();
        for (std::size_t mask = 0; mask < 128; ++mask) {
            for (std::size_t sm = 0; sm < 256; ++sm) {
                const std::size_t m = sm & 0x7F;
                std::uint32_t lanes[kWordBits];
                for (std::size_t c = 0; c < kMagnitudeBits; ++c) {
                    lanes[c] = err2[mask & ~(std::size_t{1} << c)][m];
                }
                lanes[kMagnitudeBits] = sm < 0x80
                    ? err2[mask][m] : static_cast<std::uint32_t>(m * m);
                for (std::size_t c = 0; c < 4; ++c) {
                    t[mask][sm].lo[c] = lanes[c];
                    t[mask][sm].hi[c] = lanes[c + 4];
                }
            }
        }
        return t;
    }();
    return table;
}

}  // namespace

int
nearest_magnitude_under_mask(int magnitude, int allowed_mask)
{
    if (magnitude < 0 || magnitude > 127 || allowed_mask < 0 ||
        allowed_mask > 127) {
        fatal("nearest_magnitude_under_mask: arguments out of range");
    }
    return nearest_table()[static_cast<std::size_t>(allowed_mask)]
                          [static_cast<std::size_t>(magnitude)];
}

GroupFlipResult
bitflip_group(std::span<std::int8_t> group, int target_zero_columns)
{
    if (target_zero_columns < 0 || target_zero_columns > 8) {
        fatal("bitflip_group: target %d out of [0, 8]", target_zero_columns);
    }
    constexpr std::size_t kBlock = 64;
    const auto &nearest = nearest_table();
    const auto &drops = drop_table();
    const std::size_t n = group.size();

    // Each weight's sign-magnitude byte, computed once: `signed_sm` is
    // the byte itself, `unsigned_sm` the byte a weight re-rounds from
    // once the sign column is gone (0 for a negative weight, whose
    // error is then its m^2, summed once into `neg_sq`). A group of at
    // most kBlock weights keeps both on the stack.
    std::array<std::uint8_t, 2 * kBlock> small;
    std::vector<std::uint8_t> large;
    std::uint8_t *signed_sm = small.data();
    if (n > kBlock) {
        large.resize(2 * n);
        signed_sm = large.data();
    }
    std::uint8_t *const unsigned_sm = signed_sm + n;
    std::uint8_t occ = 0;
    std::int64_t neg_sq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t sm = to_sign_magnitude(group[i]);
        const std::uint8_t neg = sm >> 7 ? 0xFF : 0x00;
        const std::int64_t m = sm & 0x7F;
        signed_sm[i] = sm;
        unsigned_sm[i] = sm & static_cast<std::uint8_t>(~neg);
        neg_sq += (m * m) & -static_cast<std::int64_t>(sm >> 7);
        occ |= sm;
    }

    int mask = occ & 0x7F;
    bool sign_allowed = (occ & 0x80) != 0;
    const std::uint8_t *bytes = sign_allowed ? signed_sm : unsigned_sm;
    while (kWordBits - popcount8(occ) < target_zero_columns) {
        // Each weight adds its drop row to the eight candidates' costs,
        // in uint32_t lanes widened to int64 per kBlock weights, so
        // costs stay exact at any group size. Without the sign column a
        // negative weight adds the zero row and its m^2 to every lane.
        const DropRows &rows = drops[static_cast<std::size_t>(mask)];
        std::array<std::int64_t, kWordBits> cost{};
        for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
            const std::size_t end = std::min(n, b0 + kBlock);
            U32x4 lo{}, hi{};
            for (std::size_t i = b0; i < end; ++i) {
                lo += rows[bytes[i]].lo;
                hi += rows[bytes[i]].hi;
            }
            for (std::size_t c = 0; c < 4; ++c) {
                cost[c] += lo[c];
                cost[c + 4] += hi[c];
            }
        }
        if (!sign_allowed) {
            for (std::int64_t &c : cost) {
                c += neg_sq;
            }
        }
        // The scalar oracle's candidates are the occupied columns, bits
        // 0..6 then the sign (bit 7 of occ implies sign_allowed), taken
        // under a strict <. Costs are exact integers, so comparing them
        // as int64 selects what the oracle's doubles select.
        int best = -1;
        std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
        for (int c = 0; c < kWordBits; ++c) {
            const bool take = ((occ >> c) & 1) != 0 && cost[c] < best_cost;
            best_cost = take ? cost[c] : best_cost;
            best = take ? c : best;
        }
        if (best < 0) {
            panic("bitflip_group: no clearable column but target unmet");
        }
        if (best < kMagnitudeBits) {
            mask &= ~(1 << best);
        } else {
            sign_allowed = false;
            bytes = unsigned_sm;
        }
        // The occupancy once every weight re-rounds under the new mask;
        // a negative weight keeps the sign column only while it is
        // allowed, and only if it re-rounds to a non-zero magnitude.
        const auto &near = nearest[static_cast<std::size_t>(mask)];
        std::uint8_t mag_occ = 0, neg_occ = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t nm = near[bytes[i] & 0x7F];
            mag_occ |= nm;
            neg_occ |= nm & (bytes[i] >> 7 ? 0xFF : 0x00);
        }
        occ = static_cast<std::uint8_t>(mag_occ | (neg_occ != 0 ? 0x80 : 0));
    }

    // Materialize once. Every d^2 is an integer and every partial sum
    // stays below 2^53, so the int64 total converts to the oracle's
    // element-order double sum bit for bit.
    GroupFlipResult result;
    result.zero_columns = kWordBits - popcount8(occ);
    const auto &near = nearest[static_cast<std::size_t>(mask)];
    std::int64_t err = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const int v = group[i];
        const int neg = -(bytes[i] >> 7);  // 0 or -1
        const int flipped = (near[bytes[i] & 0x7F] ^ neg) - neg;
        err += (v - flipped) * (v - flipped);
        group[i] = static_cast<std::int8_t>(flipped);
    }
    result.squared_error = static_cast<double>(err);
    return result;
}

GroupFlipResult
bitflip_group_scalar(std::span<std::int8_t> group, int target_zero_columns)
{
    if (target_zero_columns < 0 || target_zero_columns > 8) {
        fatal("bitflip_group: target %d out of [0, 8]", target_zero_columns);
    }

    const std::vector<std::int8_t> originals(group.begin(), group.end());
    const std::span<const std::int8_t> orig{originals.data(),
                                            originals.size()};

    // Current configuration: allowed magnitude columns + sign permission.
    int mask = occupancy(orig) & 0x7F;
    bool sign_allowed = (occupancy(orig) & 0x80) != 0;

    auto zero_cols_of = [&] {
        return kWordBits - popcount8(occupancy({group.data(), group.size()}));
    };

    materialize(group, orig, mask, sign_allowed);  // identity initially

    while (zero_cols_of() < target_zero_columns) {
        // Greedy: drop the currently-occupied column whose removal costs
        // the least when re-rounding the ORIGINAL weights. Evaluating
        // against the originals (not the drifted values) keeps the total
        // distance close to the per-group optimum.
        const std::uint8_t occ = occupancy({group.data(), group.size()});
        double best_cost = std::numeric_limits<double>::infinity();
        int best_mask = mask;
        bool best_sign = sign_allowed;

        for (int b = 0; b < kMagnitudeBits; ++b) {
            if (!((occ >> b) & 1)) {
                continue;
            }
            const int cand_mask = mask & ~(1 << b);
            const double cost = config_cost(orig, cand_mask, sign_allowed);
            if (cost < best_cost) {
                best_cost = cost;
                best_mask = cand_mask;
                best_sign = sign_allowed;
            }
        }
        if (sign_allowed && (occ & 0x80) != 0) {
            const double cost = config_cost(orig, mask, false);
            if (cost < best_cost) {
                best_cost = cost;
                best_mask = mask;
                best_sign = false;
            }
        }
        if (best_mask == mask && best_sign == sign_allowed) {
            panic("bitflip_group: no clearable column but target unmet");
        }
        mask = best_mask;
        sign_allowed = best_sign;
        materialize(group, orig, mask, sign_allowed);
    }

    GroupFlipResult result;
    result.zero_columns = zero_cols_of();
    result.squared_error = 0.0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        const double d = static_cast<double>(originals[i]) -
            static_cast<double>(group[i]);
        result.squared_error += d * d;
    }
    return result;
}

GroupFlipResult
bitflip_group_exhaustive(std::span<std::int8_t> group,
                         int target_zero_columns)
{
    if (target_zero_columns < 0 || target_zero_columns > 8) {
        fatal("bitflip_group_exhaustive: target %d out of [0, 8]",
              target_zero_columns);
    }
    const std::vector<std::int8_t> originals(group.begin(), group.end());
    const std::span<const std::int8_t> orig{originals.data(),
                                            originals.size()};

    double best_cost = std::numeric_limits<double>::infinity();
    int best_mask = 0;
    bool best_sign = false;

    for (int mask = 0; mask < 128; ++mask) {
        for (int sign_allowed = 0; sign_allowed <= 1; ++sign_allowed) {
            const int used = popcount8(static_cast<std::uint8_t>(mask)) +
                sign_allowed;
            if (kWordBits - used < target_zero_columns) {
                continue;
            }
            const double cost = config_cost(orig, mask, sign_allowed != 0);
            if (cost < best_cost) {
                best_cost = cost;
                best_mask = mask;
                best_sign = sign_allowed != 0;
            }
        }
    }

    materialize(group, orig, best_mask, best_sign);
    GroupFlipResult result;
    result.zero_columns = kWordBits -
        popcount8(occupancy({group.data(), group.size()}));
    result.squared_error = best_cost;
    return result;
}

Int8Tensor
bitflip_tensor(const Int8Tensor &tensor, int group_size,
               int target_zero_columns)
{
    if (group_size < 1) {
        fatal("bitflip_tensor: group_size must be >= 1");
    }
    Int8Tensor out = tensor;
    const std::int64_t n = out.numel();
    const std::int64_t groups = (n + group_size - 1) / group_size;
    // Groups are independent and fan out in chunks of about 2^16
    // weights, the synthesis chunk size: one chunk is worth far more
    // than its cursor claim, and a tensor of one chunk runs inline.
    const auto grain = static_cast<std::size_t>(
        std::max<std::int64_t>(1, (std::int64_t{1} << 16) / group_size));
    worksteal_for(static_cast<std::size_t>(groups), [&](std::size_t g) {
        const std::int64_t start = static_cast<std::int64_t>(g) * group_size;
        const std::int64_t len =
            std::min<std::int64_t>(group_size, n - start);
        bitflip_group({out.data() + start, static_cast<std::size_t>(len)},
                      target_zero_columns);
    }, 0, grain);
    return out;
}

}  // namespace bitwave
