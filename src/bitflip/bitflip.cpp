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

/**
 * err2_table[mask][m] = squared re-rounding error of magnitude m under
 * mask. The greedy search scores every candidate column drop against the
 * original weights, so this lookup is the innermost operation of
 * bitflip_tensor — one table read per weight per candidate.
 */
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

    // Group profile: counts per distinct magnitude (split by sign) plus
    // the negatives' squared-magnitude sum. Every candidate cost and
    // every post-re-rounding occupancy is a function of this profile, so
    // the greedy loop never touches the elements again until the final
    // materialization. All sums stay in int64 exactly as the scalar
    // oracle accumulates them, so selections are bit-identical. The
    // sign and first-sighting tests are integer adds, not branches:
    // both flip on random data, so a branch mispredicts on about every
    // other weight. Every magnitude is stored at distinct[n_distinct];
    // only a first sighting of a non-zero one advances the count.
    int cnt_all[128] = {};
    int cnt_neg[128] = {};
    std::uint8_t distinct[128];
    int n_distinct = 0;
    int n_neg = 0;
    std::int64_t neg_sq = 0;
    for (const std::int8_t v : group) {
        const int m = sm_magnitude(v);
        const int nonzero = m != 0;
        const int neg = v < 0;
        distinct[n_distinct] = static_cast<std::uint8_t>(m);
        n_distinct += nonzero & (cnt_all[m] == 0);
        cnt_all[m] += nonzero;
        cnt_neg[m] += neg;
        n_neg += neg;
        neg_sq += neg * m * m;
    }

    // Occupancy of the original group (magnitude columns + sign column).
    std::uint8_t occ_cur = n_neg > 0 ? 0x80 : 0x00;
    for (int i = 0; i < n_distinct; ++i) {
        occ_cur |= distinct[i];
    }

    int mask = occ_cur & 0x7F;
    bool sign_allowed = (occ_cur & 0x80) != 0;

    // Squared re-rounding error of the ORIGINAL weights under a config.
    const auto cost_of = [&](int cand_mask, bool sign) {
        const auto &err2 =
            err2_table()[static_cast<std::size_t>(cand_mask)];
        std::int64_t cost = 0;
        for (int i = 0; i < n_distinct; ++i) {
            const int m = distinct[i];
            const int count =
                sign ? cnt_all[m] : cnt_all[m] - cnt_neg[m];
            cost += static_cast<std::int64_t>(count) *
                err2[static_cast<std::size_t>(m)];
        }
        if (!sign) {
            cost += neg_sq;  // negatives re-round to 0 at distance m
        }
        return static_cast<double>(cost);
    };

    // Occupancy the group WOULD have after re-rounding under a config —
    // exactly occupancy(materialize(originals, mask, sign)).
    const auto occ_of = [&](int cand_mask, bool sign) {
        const auto &nearest =
            nearest_table()[static_cast<std::size_t>(cand_mask)];
        std::uint8_t occ = 0;
        bool sign_used = false;
        for (int i = 0; i < n_distinct; ++i) {
            const int m = distinct[i];
            const std::uint8_t nm = nearest[static_cast<std::size_t>(m)];
            if (cnt_all[m] - cnt_neg[m] > 0) {
                occ |= nm;
            }
            if (cnt_neg[m] > 0 && sign) {
                occ |= nm;
                sign_used = sign_used || nm != 0;
            }
        }
        return static_cast<std::uint8_t>(occ | (sign_used ? 0x80 : 0x00));
    };

    // Lazy greedy: a candidate's cost can only GROW as columns drop
    // (fewer allowed bits move every magnitude's nearest representable
    // value farther; revoking the sign column re-rounds negatives to 0
    // at distance >= their masked error), so the cost computed for a
    // candidate in an earlier iteration is a valid lower bound now.
    // Candidates whose bound already matches or exceeds the running
    // minimum are skipped without re-evaluating cost_of — the strict-<
    // comparison means they could never have replaced the minimum —
    // which keeps the selection (and thus the output) bit-identical to
    // the eager scalar oracle while eliminating most per-candidate err2
    // re-evaluations after the first iteration.
    double bound[kMagnitudeBits];
    bool bounded[kMagnitudeBits] = {};
    double sign_bound = 0.0;
    bool sign_bounded = false;

    while (kWordBits - popcount8(occ_cur) < target_zero_columns) {
        double best_cost = std::numeric_limits<double>::infinity();
        int best_mask = mask;
        bool best_sign = sign_allowed;

        for (int b = 0; b < kMagnitudeBits; ++b) {
            if (!((occ_cur >> b) & 1)) {
                continue;
            }
            if (bounded[b] && bound[b] >= best_cost) {
                continue;  // cannot beat the strict minimum
            }
            const int cand_mask = mask & ~(1 << b);
            const double cost = cost_of(cand_mask, sign_allowed);
            bound[b] = cost;
            bounded[b] = true;
            if (cost < best_cost) {
                best_cost = cost;
                best_mask = cand_mask;
                best_sign = sign_allowed;
            }
        }
        if (sign_allowed && (occ_cur & 0x80) != 0 &&
            !(sign_bounded && sign_bound >= best_cost)) {
            const double cost = cost_of(mask, false);
            sign_bound = cost;
            sign_bounded = true;
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
        occ_cur = occ_of(mask, sign_allowed);
    }

    // Materialize once and account the distance in element order (the
    // same double accumulation order as the scalar oracle).
    GroupFlipResult result;
    result.zero_columns = kWordBits - popcount8(occ_cur);
    result.squared_error = 0.0;
    const auto &nearest = nearest_table()[static_cast<std::size_t>(mask)];
    for (std::size_t i = 0; i < group.size(); ++i) {
        const std::int8_t v = group[i];
        const std::int8_t flipped = [&] {
            if (v < 0 && !sign_allowed) {
                return static_cast<std::int8_t>(0);
            }
            const int nm = nearest[static_cast<std::size_t>(
                sm_magnitude(v))];
            return static_cast<std::int8_t>(v < 0 ? -nm : nm);
        }();
        const double d = static_cast<double>(v) -
            static_cast<double>(flipped);
        result.squared_error += d * d;
        group[i] = flipped;
    }
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
    // Groups are independent; large tensors (the LSTM/BERT projections
    // Bit-Flip spends its time on) fan out across cores. Small tensors
    // stay serial — thread startup would dominate.
    const int threads =
        n >= (1 << 18) ? parallel_threads(static_cast<std::size_t>(groups))
                       : 1;
    worksteal_for(static_cast<std::size_t>(groups), [&](std::size_t g) {
        const std::int64_t start = static_cast<std::int64_t>(g) * group_size;
        const std::int64_t len =
            std::min<std::int64_t>(group_size, n - start);
        bitflip_group({out.data() + start, static_cast<std::size_t>(len)},
                      target_zero_columns);
    }, threads);
    return out;
}

}  // namespace bitwave
