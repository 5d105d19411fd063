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
 * Each weight is x = Rng's Laplacian or Gaussian sample at the
 * kernel's scale (the profile's, times a gain e^g with g a
 * `kernel_gain_sigma` Gaussian draw), rounded half away from zero and
 * clamped to [-127, 127]; a dropped weight (`zero_probability`) is 0,
 * and a sample that rounds to 0 may become +-1 (`zero_avoidance`).
 * `Rng::laplacian` and `Rng::gaussian` take the in-house log and the
 * gain the in-house exp (`fdlibm_log`, `fdlibm_exp`, common/rng.hpp),
 * so no weight depends on the host's libm. Every code equals what
 * drawing each weight with those samplers gives, bit for bit. A kernel
 * is drawn in two passes:
 *
 * - **The walk** reads the `Rng` stream in that order, exactly the
 *   uniforms that loop reads: the drop test, the Laplacian operand
 *   (`Rng::laplacian_draw`) or the accepted polar pair
 *   (`Rng::polar_pair`), and the zero-avoidance draws. Those last
 *   depend on whether the sample rounds to 0, so the walk settles that
 *   first, without a log: with d = 1 - t, d + d^2/2 + d^3/3 <= -ln t
 *   <= d/t brackets |x| (t is the Laplacian's operand or the polar
 *   pair's r^2). A sample whose bracket reaches within 1e-7 of 0.5 is
 *   finished on the spot and its |x| decides. A nonzero sample goes
 *   into a batch of 256 operands, flushed when full and at kernel end.
 * - **The batch** takes its logs in one vectorized pass (the in-house
 *   log, `detail::FinishFn`, through the same variant as the MT refill),
 *   finishes each sample with `Rng`'s own formula and rounds it. The
 *   variants and the samplers run one log body, so they give the same
 *   bits.
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
/// run every variant).
Int8Tensor synthesize_weights(const LayerDesc &desc,
                              const WeightProfile &profile, Rng &rng,
                              const RefillVariant &variant);

/**
 * Both passes on hand-placed draws, as one kernel of scale @p scale
 * takes them: draw i is (t, sign) for kLaplacian and (r^2, y) for
 * kGaussian, given as @p arg[i] (the value the log is taken of) and
 * @p other[i]. Stores each draw's code before zero avoidance in
 * @p codes.
 */
void weight_codes(WeightDistribution distribution, double scale,
                  std::span<const double> arg, std::span<const double> other,
                  std::span<std::int8_t> codes, const RefillVariant &variant);

}  // namespace detail

}  // namespace bitwave
