/**
 * @file
 * Bit-Flip weight adjustment — Section III-D.
 *
 * Bit-Flip is a lossy, training-free post-processing step that forces
 * every weight group to have at least a target number of zero bit columns
 * in sign-magnitude form. Per group it selects columns to clear and
 * re-rounds each weight magnitude to the nearest value representable on
 * the remaining columns, minimizing the Euclidean distance to the
 * original weight vector (e.g. Fig. 4(c): targeting five zero columns
 * turns -3 = 1000'0011 into -4 = 1000'0100, distance 1).
 *
 * Enforcing the same target across all groups of a layer balances the
 * workload during parallel execution — every ZCIP lane then streams the
 * same number of non-zero columns.
 */
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace bitwave {

/// Outcome of flipping one group.
struct GroupFlipResult
{
    int zero_columns = 0;       ///< Zero columns after flipping (SM).
    double squared_error = 0.0; ///< Sum of squared value changes.
};

/**
 * Flip @p group in place so its sign-magnitude encoding has at least
 * @p target_zero_columns zero columns.
 *
 * Columns are cleared greedily in order of least added squared error;
 * magnitudes re-round to the nearest representable value after every
 * clearing, so previously processed weights can move again (e.g. 3 -> 4
 * when bit0/bit1 are cleared but bit2 stays available).
 *
 * @param target_zero_columns in [0, 8]; 8 forces the all-zero group.
 *
 * Each weight's sign-magnitude byte is computed once per group, and
 * every greedy step, occupancy update and the final write-back read it.
 * A step prices all eight candidates (drop one of the seven magnitude
 * columns, or the sign column) in one branch-free pass over the group:
 * every weight adds one 32-byte row of a table built once, the squared
 * re-rounding error of each drop per (allowed mask, sign-magnitude
 * byte) in eight uint32_t lanes, to two 4-lane vectors, widened to
 * int64 every 64 weights, so the sums stay exact at any group size. The
 * group is materialized once at the end; a group of at most 64 weights
 * allocates nothing. Selections, flipped values and reported errors are
 * bit-identical to bitflip_group_scalar() at any group size.
 */
GroupFlipResult bitflip_group(std::span<std::int8_t> group,
                              int target_zero_columns);

/// Element-at-a-time oracle for bitflip_group() (tests and the
/// micro-kernel bench): scores every candidate against every element.
GroupFlipResult bitflip_group_scalar(std::span<std::int8_t> group,
                                     int target_zero_columns);

/**
 * Exhaustive per-group variant: tries every subset of columns to clear
 * and keeps the minimum-distance one. Exponential in 8; used by the
 * ablation bench to bound how far the greedy heuristic is from optimal.
 */
GroupFlipResult bitflip_group_exhaustive(std::span<std::int8_t> group,
                                         int target_zero_columns);

/**
 * Apply bitflip_group to every @p group_size -sized group of @p tensor
 * (tail group included). Returns the modified tensor.
 */
Int8Tensor bitflip_tensor(const Int8Tensor &tensor, int group_size,
                          int target_zero_columns);

/**
 * Nearest magnitude to @p magnitude representable using only the bit
 * positions in @p allowed_mask (both in [0, 127]). Ties round up, as in
 * Fig. 4(c), where 3 re-rounds to 4 rather than 2.
 * Exposed for testing; backed by a precomputed 128x128 table.
 */
int nearest_magnitude_under_mask(int magnitude, int allowed_mask);

}  // namespace bitwave
