/**
 * @file
 * Word- and bit-level sparsity statistics for quantized tensors.
 *
 * These statistics drive the paper's Fig. 1 (value sparsity vs. bit
 * sparsity in two's-complement and sign-magnitude form, and the sparsity
 * ratio SR between them) and feed the analytical accelerator models
 * (STEP2 of Section V-B).
 */
#pragma once

#include <cstdint>

#include "common/bits.hpp"  // Representation lives with the bit utilities
#include "tensor/tensor.hpp"

namespace bitwave {

/// Aggregate sparsity statistics of one tensor.
struct SparsityStats
{
    std::int64_t words = 0;       ///< Total operand words.
    std::int64_t zero_words = 0;  ///< Words equal to zero.
    std::int64_t bits = 0;        ///< Total bits (= 8 * words).
    std::int64_t zero_bits_2c = 0;  ///< Zero bits in two's complement.
    std::int64_t zero_bits_sm = 0;  ///< Zero bits in sign-magnitude.

    /// Fraction of zero-valued words.
    double value_sparsity() const;
    /// Fraction of zero bits in the requested representation.
    double bit_sparsity(Representation repr) const;
    /**
     * Sparsity ratio SR = bit sparsity / value sparsity (Fig. 1), i.e. the
     * headroom bit-level skipping has over value skipping. Returns +inf
     * when the tensor has no zero words but some zero bits.
     */
    double sparsity_ratio(Representation repr) const;

    /// Merge the counts of @p other into this (for whole-network stats).
    void merge(const SparsityStats &other);
};

/// Compute sparsity statistics over all elements of @p tensor.
SparsityStats compute_sparsity(const Int8Tensor &tensor);

}  // namespace bitwave
