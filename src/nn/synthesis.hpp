/**
 * @file
 * Synthetic Int8 weight generation (DESIGN.md substitution #1).
 *
 * We do not ship pretrained checkpoints; instead each layer's weights are
 * drawn from a distribution matching the empirical statistics of Int8
 * post-training-quantized networks that the paper's techniques depend on:
 * a sharp peak of small magnitudes (Laplacian), a modest fraction of exact
 * zeros, and occasional large outliers that pin the quantization scale.
 *
 * Profiles (`WeightProfile`, nn/workload.hpp) are per-network: CNNs
 * quantized per-channel are peaked (high SM bit-column sparsity);
 * BERT-Base weights are closer to Gaussian with larger effective
 * magnitudes, reproducing the paper's observation that the original
 * BERT Int8 model has few zero columns until Bit-Flip is applied.
 */
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "nn/workload.hpp"

namespace bitwave {

/**
 * Generate quantized weights for @p desc according to @p profile.
 * Deterministic given @p rng state; all values lie in [-127, 127].
 */
Int8Tensor synthesize_weights(const LayerDesc &desc,
                              const WeightProfile &profile, Rng &rng);

/**
 * Generate an activation tensor of @p shape: non-negative (post-ReLU) when
 * @p relu is true, otherwise signed; @p value_sparsity fraction of exact
 * zeros; magnitudes Laplacian with @p scale.
 */
Int8Tensor synthesize_activations(const Shape &shape, double value_sparsity,
                                  double scale, bool relu, Rng &rng);

}  // namespace bitwave
