/**
 * @file
 * The reduced-bit-width PTQ baseline the paper compares Bit-Flip against
 * (the "Int8+PTQ" series of Fig. 6(e)-(h)). Weights arrive as symmetric
 * int8 (zero-point 0, clamped to [-127, 127]) as assumed by the BitWave
 * sign-magnitude datapath.
 */
#pragma once

#include "tensor/tensor.hpp"

namespace bitwave {

/**
 * Reduced-precision PTQ baseline: requantize an Int8 tensor to @p bits
 * (2..8) by dropping LSBs with round-to-nearest, then re-expanding to the
 * int8 grid (values stay multiples of 2^(8-bits)).
 *
 * This models the paper's "Int8+PTQ" comparison: cutting the same LSB
 * positions across a whole tensor, which shrinks storage by 8/bits but
 * costs accuracy faster than BCS/Bit-Flip at matched compression.
 *
 * @param input Quantized Int8 words.
 * @param bits  Target bit-width including sign, in [2, 8].
 */
Int8Tensor requantize_to_bits(const Int8Tensor &input, int bits);

/**
 * Compression ratio achieved by storing @p bits -bit words instead of
 * 8-bit words (no index overhead; PTQ is dense).
 */
double ptq_compression_ratio(int bits);

/// Root-mean-square error between two same-shaped int8 tensors.
double rms_error(const Int8Tensor &a, const Int8Tensor &b);

}  // namespace bitwave
