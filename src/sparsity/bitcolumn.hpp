/**
 * @file
 * Bit-column sparsity (BCS) analysis — Section III-A/B of the paper.
 *
 * BCS groups G consecutive weights (along the input-channel dimension in
 * the BitWave dataflow) and inspects their binary encodings column-wise:
 * bit position b forms a *zero column* when bit b is zero in every word of
 * the group. Zero columns can be skipped by the bit-column-serial datapath
 * and elided from storage by the BCS compressor.
 *
 * The column index of a group is an 8-bit mask with bit b set when column
 * b is NON-zero (the convention of the Zero-Column Index Parser, Fig. 7:
 * "1" columns must be streamed, "0" columns are skipped).
 *
 * One histogram of per-group zero-column counts (BitColumnStats) is the
 * only count of a tensor's columns: it sets the compute cycles (Eq. 2)
 * and, because a BCS group is stored as its index byte plus one G-bit
 * word per non-zero column, the BCS storage size too.
 */
#pragma once

#include <cstdint>
#include <span>

#include "sparsity/stats.hpp"
#include "tensor/bitplane.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {

/// Group sizes the BitWave hardware supports layer-wise (Section III-C).
inline constexpr int kHardwareGroupSizes[] = {8, 16, 32};

/**
 * Compute the non-zero-column index of one weight group.
 *
 * @param group Weight words (any size >= 1).
 * @param repr  Binary representation to analyze.
 * @return 8-bit mask; bit b set means column b holds at least one 1.
 */
std::uint8_t column_index(std::span<const std::int8_t> group,
                          Representation repr);

/// Number of zero columns (out of 8) for one group.
int zero_column_count(std::span<const std::int8_t> group,
                      Representation repr);

/// Aggregate bit-column sparsity statistics of a tensor.
struct BitColumnStats
{
    int group_size = 0;
    Representation repr = Representation::kSignMagnitude;
    std::int64_t elements = 0;      ///< Weights scanned.
    std::int64_t groups = 0;        ///< Number of groups analyzed.
    std::int64_t columns = 0;       ///< Total columns (= 8 * groups).
    std::int64_t zero_columns = 0;  ///< Columns that are all-zero.
    /// Histogram: count of groups having exactly k zero columns, k in 0..8.
    std::int64_t zero_column_hist[9] = {};

    /// Fraction of all-zero columns — the paper's "bit column sparsity".
    double column_sparsity() const;
    /// Mean number of non-zero columns per group (compute cycles/group).
    double mean_nonzero_columns() const;
    /**
     * Mean cycles per group when @p bit_columns columns are consumed per
     * cycle with whole-cycle granularity: E[max(1, ceil(nz / bc))] over
     * nz = 8 - z. This is what the SU4-SU6 four-column datapath achieves
     * and what the cycle-level simulator counts.
     */
    double mean_ceil_cycles(int bit_columns) const;
    /// BCS payload bits: one group_size-bit word per non-zero column
    /// (the "ideal CR" numerator of Fig. 5).
    std::int64_t bcs_payload_bits() const;
    /// BCS storage bits: an 8-bit index per group plus the payload.
    std::int64_t bcs_bits() const;
    /// BCS compression ratio, index included (the paper's "real CR"):
    /// elements * 8 / bcs_bits(), or 0 when nothing was scanned. Over
    /// the same groups, flat or row-aligned, these three equal
    /// bcs_compress()'s payload_bits(), compressed_bits() and
    /// compression_ratio().
    double bcs_compression_ratio() const;
    /// Merge the counts of @p other into this.
    void merge(const BitColumnStats &other);
};

/**
 * Analyze bit-column sparsity of @p tensor with groups of @p group_size
 * (in [1, 64]) consecutive elements in memory order.
 *
 * For weight tensors in [K, C, FY, FX] layout this groups along the
 * innermost dims; the BitWave dataflow groups along C, which callers
 * arrange by passing weights in [K, FY, FX, C] order when layout matters.
 * A final partial group is padded with zeros (padding cannot destroy a
 * zero column, and the hardware pads the same way).
 *
 * This overload packs bit planes internally and runs the word-parallel
 * kernel; pass pre-packed planes to the row-aligned overload (row_len =
 * planes.n) to amortize the pack across kernels.
 */
BitColumnStats analyze_bit_columns(const Int8Tensor &tensor, int group_size,
                                   Representation repr);

/**
 * Row-aligned analysis: every row of @p row_len consecutive elements
 * splits into ceil(row_len / group_size) groups, the last one truncated
 * (scan_group_indexes' geometry; row_len = planes.n is the flat
 * grouping). @p group_size must be in [1, 64]. Row-aligned, this is the
 * per-group occupancy the analytical model prices a bit-column layer
 * from; flat, it is the BCS storage of the tensor.
 */
BitColumnStats analyze_bit_columns(const BitPlanes &planes, int group_size,
                                   std::int64_t row_len);

/// Element-at-a-time oracle for the packed kernels (tests and the
/// micro-kernel bench): groups tile rows of @p row_len elements, so
/// row_len = tensor.numel() matches the flat overloads and any other
/// row length the row-aligned one, bit for bit.
BitColumnStats analyze_bit_columns_scalar(const Int8Tensor &tensor,
                                          int group_size,
                                          std::int64_t row_len,
                                          Representation repr);

/**
 * Bit-plane view of a group: column b (0..7) as a G-bit vector packed into
 * a uint64 (weight j at bit j). Requires group.size() <= 64. This is the
 * data layout the BitWave compute engine streams: one bit column per cycle.
 */
std::uint64_t column_bits(std::span<const std::int8_t> group, int column,
                          Representation repr);

}  // namespace bitwave
