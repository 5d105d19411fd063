/**
 * @file
 * Zero-Column Index Parser (ZCIP) — Fig. 7.
 *
 * Each parser slice consumes one 8-bit zero-column index. The MSB flags a
 * non-zero sign column (Sign Rqst); the remaining bits Idx[6..0] mark the
 * populated data-bit columns and drive the shift amounts applied after
 * the BCE's partial-sum accumulation. The parser also derives the number
 * of non-zero columns (Sync.ctr) that controls how many cycles the
 * current index's computation occupies.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace bitwave {

/// Decoded control information for one weight group pass.
struct ZcipDecode
{
    bool sign_request = false;   ///< Sign column must be streamed.
    std::vector<int> shifts;     ///< Shift amount per non-zero data column
                                 ///< (ascending significance, 0..6).
    int nonzero_columns = 0;     ///< Sync.ctr: data columns + sign column.
};

/**
 * One ZCIP parser slice. BitWave instantiates 128 of these to parse
 * 1024 index bits per cycle; each slice is stateless per index.
 */
class ZeroColumnIndexParser
{
  public:
    /// Decode an index byte.
    ZcipDecode parse(std::uint8_t index) const;
};

}  // namespace bitwave
