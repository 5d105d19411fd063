/**
 * @file
 * BitWave Compute Engine (BCE) — Fig. 8.
 *
 * A BCE multiplies one weight bit-column against a vector of
 * full-precision two's-complement activations per cycle, in five steps:
 *  1. input loading (activations + weight bit column + sign bits),
 *  2. sign-magnitude multiplication (AND gates + sign resolution),
 *  3. partial-sum accumulation across the column's elements,
 *  4. a single shift aligning the column's significance,
 *  5. output accumulation into the local register.
 *
 * The add-then-shift order (one shifter per column instead of one per
 * bit) is the area/energy advantage over classic bit-serial PEs
 * (Table IV). The hardware BCE is 8 elements wide; this model accepts
 * any width up to 64 so one object can represent the fused Cu/8 slices
 * that process a whole group.
 */
#pragma once

#include <cstdint>
#include <span>

#include "sim/zcip.hpp"

namespace bitwave {

/**
 * Functional model of one (possibly fused) BCE.
 */
class Bce
{
  public:
    /**
     * Step 1: latch activations and per-weight sign bits for the current
     * group. Signs and activations are then reused for every non-zero
     * column of the group (the reuse the paper highlights).
     *
     * @param activations Two's-complement activations, one per element.
     * @param sign_bits   Bit j set = weight j is negative (all zero when
     *                    the ZCIP raised no Sign Rqst).
     */
    void load_inputs(std::span<const std::int8_t> activations,
                     std::uint64_t sign_bits);

    /**
     * Steps 2-5 for one non-zero column: multiply the 1-bit column
     * against the latched activations, accumulate with signs, shift by
     * the column significance, and add into the output register.
     *
     * @param column_bits Bit j = weight j's bit at this significance.
     * @param shift       Column significance (0..6) from the ZCIP.
     */
    void process_column(std::uint64_t column_bits, int shift);

    /// Step 5 result: the accumulated output register.
    std::int32_t output() const { return accumulator_; }

  private:
    std::int8_t activations_[64] = {};
    std::uint64_t sign_bits_ = 0;
    std::size_t width_ = 0;
    std::int32_t accumulator_ = 0;
};

/**
 * Reference one-shot helper: compute a whole group-pass dot product
 * (all non-zero columns of one group) with a fresh BCE. Returns the
 * signed partial sum of sum_j activation_j * weight_j for the group.
 *
 * @param decode      ZCIP output for the group's index.
 * @param columns     Non-zero data columns, ascending significance
 *                    (matching decode.shifts), bit j = weight j.
 * @param sign_column Sign column bits (used when decode.sign_request).
 */
std::int32_t bce_group_pass(std::span<const std::int8_t> activations,
                            const ZcipDecode &decode,
                            std::span<const std::uint64_t> columns,
                            std::uint64_t sign_column);

}  // namespace bitwave
