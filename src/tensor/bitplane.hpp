/**
 * @file
 * Packed bit-plane representation of Int8 tensors — the word-parallel
 * substrate behind every bit-column kernel in the repository.
 *
 * An Int8 tensor is transposed ONCE into 8 planes of uint64 words:
 * plane b holds bit b of every element's binary encoding (two's
 * complement or sign-magnitude), element e at bit (e % 64) of word
 * (e / 64). On this layout the per-group work the BitWave algorithms
 * perform element-by-element collapses to whole-word operations:
 *
 *  - a group's zero-column index is "is this 8..64-bit slice of each
 *    plane non-zero?" — eight shifted loads instead of G encodes;
 *  - a BCS payload column IS the slice, already packed weight-j-at-bit-j
 *    exactly as BcsGroup and the BCE consume it;
 *  - bit sparsity is popcount over the planes.
 *
 * This is the software mirror of the paper's hardware insight (operate
 * on bit columns, not values) and the classic SWAR packing bit-serial
 * accelerator simulators use. The scalar kernels remain available as
 * oracles; tests pin bit-identical results between the two paths.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {

/// Bit-planes of one Int8 tensor in one binary representation.
struct BitPlanes
{
    Representation repr = Representation::kSignMagnitude;
    std::int64_t n = 0;      ///< Elements packed.
    std::int64_t words = 0;  ///< uint64 words per plane (= ceil(n/64)).
    /// Plane-major storage: plane b occupies words [b*words, (b+1)*words);
    /// padding lanes beyond n are zero.
    std::vector<std::uint64_t> bits;

    const std::uint64_t *plane(int b) const
    {
        return bits.data() + static_cast<std::size_t>(b) *
            static_cast<std::size_t>(words);
    }

    /**
     * Bits of plane @p b for elements [start, start+len), packed at bit 0
     * (element start+j at bit j). Requires 1 <= len <= 64 and
     * start + len <= n rounded up to the padded word — exactly the
     * payload-column word bcs_compress stores and the BCE streams.
     */
    std::uint64_t segment(int b, std::int64_t start, int len) const
    {
        const std::uint64_t *p = plane(b);
        const std::int64_t w = start >> 6;
        const int off = static_cast<int>(start & 63);
        std::uint64_t out = p[w] >> off;
        if (off + len > 64) {
            out |= p[w + 1] << (64 - off);
        }
        if (len < 64) {
            out &= (~0ULL) >> (64 - len);
        }
        return out;
    }

    /**
     * Non-zero-column index of the group [start, start+len): bit b set
     * when plane b holds at least one 1 in the range. Identical to
     * column_index() over the same elements.
     */
    std::uint8_t group_index(std::int64_t start, int len) const
    {
        std::uint8_t mask = 0;
        for (int b = 0; b < kWordBits; ++b) {
            mask |= static_cast<std::uint8_t>(
                (segment(b, start, len) != 0) << b);
        }
        return mask;
    }
};

/// One-time transpose of @p tensor into bit planes of @p repr.
BitPlanes pack_bitplanes(const Int8Tensor &tensor, Representation repr);

/**
 * Column-index masks of consecutive weight groups, written to @p out in
 * group order: every row of @p row_len consecutive elements splits into
 * ceil(row_len / group_size) groups (tail groups truncated, matching the
 * implicit zero padding of the scalar kernels). Pass row_len = planes.n
 * for flat whole-tensor grouping. @p out must hold
 * rows * ceil(row_len / group_size) bytes.
 *
 * This is the column-index stream of the BCS compressor, which the
 * cycle-level simulator reads row-aligned; it shares one per-group walk with
 * scan_zero_column_histogram(). 64-aligned layouts take a whole-word
 * SWAR path that emits up to 8 group masks per plane load. Both scans
 * require 1 <= group_size <= 64.
 */
void scan_group_indexes(const BitPlanes &planes, std::int64_t row_len,
                        int group_size, std::uint8_t *out);

/// Number of masks scan_group_indexes() writes for this geometry.
std::int64_t scan_group_count(std::int64_t n, std::int64_t row_len,
                              int group_size);

/**
 * Fused scan: histogram of per-group ZERO-column counts (hist[z] +=
 * groups with exactly z zero columns, z in 0..8) without materializing
 * the masks — the bit-column statistics, flat or row-aligned, in one
 * pass. The same histogram gives the analytical model's per-group
 * occupancy and the BCS storage size. @p hist is accumulated into, not
 * cleared.
 */
void scan_zero_column_histogram(const BitPlanes &planes,
                                std::int64_t row_len, int group_size,
                                std::int64_t hist[9]);

/**
 * Process-wide LRU cache of packed planes keyed by tensor content:
 * repeated kernels over the same weights (scenario sweeps, repeated
 * Bit-Flip preparations, stats re-runs) pack once and share the planes.
 * @p content_hash must identify the tensor bytes (pass
 * WorkloadLayer::weights_hash); 0 hashes on the fly. Holds 256
 * entries.
 */
std::shared_ptr<const BitPlanes>
shared_bitplanes(const Int8Tensor &tensor, Representation repr,
                 std::uint64_t content_hash = 0);

}  // namespace bitwave
