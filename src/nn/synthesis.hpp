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
 *
 * Each weight is x = Rng's Laplacian or Gaussian sample, rounded half
 * away from zero and clamped to [-127, 127]; a dropped weight
 * (`zero_probability`) is 0, and a sample that rounds to 0 may become
 * +-1 (`zero_avoidance`). Every code equals what drawing each weight
 * with `Rng::laplacian` / `Rng::gaussian` (glibc's `log`) gives, bit
 * for bit, though the common case takes no libm log. A kernel is drawn
 * in two passes:
 *
 * - **The walk** reads the `Rng` stream in that order, exactly the
 *   uniforms that loop reads: the drop test, the Laplacian operand
 *   (`Rng::laplacian_draw`) or the accepted polar pair
 *   (`Rng::polar_pair`), and the zero-avoidance draws. Those last
 *   depend on whether the sample rounds to 0, so the walk settles that
 *   first, without a log: with d = 1 - t, d + d^2/2 + d^3/3 <= -ln t
 *   <= d/t brackets |x| (t is the Laplacian's operand or the polar
 *   pair's r^2). When the bracket straddles 0.5, the in-house log
 *   settles it; only a sample whose |x| lies within 1e-7 of 0.5 takes
 *   the exact expression, std::log included. A nonzero sample goes
 *   into a batch of 256 operands, flushed when full and at kernel end.
 * - **The batch** takes its logs in one vectorized pass (the in-house
 *   log, `detail::FinishFn`, through the same variant as the MT refill)
 *   and finishes each sample with `Rng`'s own formula. The in-house log
 *   is within 2 ULP of glibc's, so |x| moves by < 1e-13 wherever
 *   |x| <= 128: a sample whose |x| lies within 1e-9 of a half-integer
 *   is recomputed with std::log, and every other rounds to the code
 *   the exact expression gives.
 *
 * `Synthesis.EveryLogVariantMatchesThePerWeightOracle` (test_nn) pins
 * the codes against that per-weight loop on profiles that reach every
 * branch, for each variant the CPU runs.
 */
#pragma once

#include <cstdint>
#include <span>

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

namespace detail {

/// synthesize_weights() with its batches finished by @p variant (tests
/// run every variant). Adds to @p exact the codes std::log settled:
/// zero tests in the band and roundings in the window.
Int8Tensor synthesize_weights(const LayerDesc &desc,
                              const WeightProfile &profile, Rng &rng,
                              const RefillVariant &variant,
                              std::int64_t &exact);

/**
 * Both passes on hand-placed draws, as one kernel of scale @p scale
 * takes them: draw i is (t, sign) for kLaplacian and (r^2, y) for
 * kGaussian, given as @p arg[i] (the value the log is taken of) and
 * @p other[i]. Stores each draw's code before zero avoidance in
 * @p codes and returns how many std::log settled.
 */
std::int64_t weight_codes(WeightDistribution distribution, double scale,
                          std::span<const double> arg,
                          std::span<const double> other,
                          std::span<std::int8_t> codes,
                          const RefillVariant &variant);

}  // namespace detail

}  // namespace bitwave
