/**
 * @file
 * BCS (bit-column sparsity) lossless weight compression — Section III-C.
 *
 * A tensor is split into rows of row_len words, and every row into
 * ceil(row_len / G) groups of G words, the last one truncated (a flat
 * stream is one row of all elements). Each group is stored as:
 *   - an 8-bit zero-column index (bit b set => column b is non-zero and
 *     present in the payload), and
 *   - one G-bit column payload per non-zero column, LSB column first.
 *
 * The format is lossless, decodable without preprocessing (the index
 * directly drives the ZCIP/BCE pipeline), and keeps memory accesses
 * regular: payload columns are fixed-size G-bit words.
 *
 * A group's size follows from its non-zero column count alone, so every
 * caller that needs only sizes reads them from BitColumnStats
 * (bcs_bits(), bcs_payload_bits(), bcs_compression_ratio()); the stream
 * below is built only where its groups are read one by one, as the
 * cycle-level simulator's fetcher, ZCIP and BCEs read them.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sparsity/bitcolumn.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {

/// Compressed form of one weight group.
struct BcsGroup
{
    std::uint8_t index = 0;  ///< Non-zero-column mask (bit7 = sign column).
    /// Non-zero column payloads, ascending bit position; weight j at bit j.
    std::vector<std::uint64_t> columns;
};

/// A BCS-compressed tensor plus the bookkeeping to invert the transform.
struct BcsCompressed
{
    int group_size = 0;
    Representation repr = Representation::kSignMagnitude;
    std::int64_t element_count = 0;  ///< Original element count.
    std::int64_t row_len = 0;        ///< Elements per row of groups.
    Shape shape;                     ///< Original tensor shape.
    std::vector<BcsGroup> groups;

    /// Total storage in bits: index bits + payload column bits.
    std::int64_t compressed_bits() const;
    /// Payload-only storage in bits (the "ideal CR" numerator of Fig. 5).
    std::int64_t payload_bits() const;
    /// Index-only storage in bits.
    std::int64_t index_bits() const;
    /// Uncompressed storage in bits (8 per element).
    std::int64_t original_bits() const;

    /// CR including index overhead (the paper's "real CR").
    double compression_ratio() const;
    /// CR ignoring index overhead (the paper's "ideal CR").
    double ideal_compression_ratio() const;
};

/**
 * Compress @p tensor flat (one row of all its elements) with group size
 * @p group_size in representation @p repr. The final partial group (if
 * any) is zero-padded; the pad is dropped again on decompression.
 */
BcsCompressed bcs_compress(const Int8Tensor &tensor, int group_size,
                           Representation repr);

/**
 * Compress pre-packed @p planes of a tensor of @p shape in rows of
 * @p row_len elements (row_len = planes.n is the flat stream): every row
 * splits into ceil(row_len / group_size) groups, the last one truncated,
 * as scan_group_indexes() and analyze_bit_columns(planes, group_size,
 * row_len) group it. A payload column IS a plane segment, so the stream
 * is the index scan plus one segment gather per non-zero column.
 */
BcsCompressed bcs_compress(const BitPlanes &planes, const Shape &shape,
                           int group_size, std::int64_t row_len);

/// Element-at-a-time oracle for the packed compressor (tests and the
/// micro-kernel bench), over the same row geometry.
BcsCompressed bcs_compress_scalar(const Int8Tensor &tensor, int group_size,
                                  std::int64_t row_len,
                                  Representation repr);

/// Invert bcs_compress exactly (BCS is lossless).
Int8Tensor bcs_decompress(const BcsCompressed &compressed);

/**
 * Pick, per the hardware constraint, the group size in {8, 16, 32} with
 * the best real compression ratio for @p tensor.
 */
int best_hardware_group_size(const Int8Tensor &tensor, Representation repr);

}  // namespace bitwave
