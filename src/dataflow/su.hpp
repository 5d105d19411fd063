/**
 * @file
 * Spatial unrolling (SU) definitions — Section IV-C, Table I.
 *
 * An SU assigns a per-cycle parallelization factor to each loop dimension
 * of the layer nest. BitWave's PE array holds 4096 1b x 8b sign-magnitude
 * multipliers (= 512 8b x 8b bit-parallel equivalents) and supports seven
 * SU configurations selected per layer at runtime; bandwidth requirements
 * follow from the factors (weight bits/cycle = Cu * Ku, activation
 * bits/cycle = 8 * Cu * OXu).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace bitwave {

/// Loop dimensions a spatial unrolling can parallelize.
enum class Dim { kK, kC, kOX, kOY, kFX, kFY };

/// Name of a dimension ("K", "C", ...).
const char *dim_name(Dim dim);

/// Size of dimension @p dim in layer @p desc.
std::int64_t layer_dim(const LayerDesc &desc, Dim dim);

/// One spatial unrolling configuration.
struct SpatialUnrolling
{
    std::string name;
    /// Unroll factor per dimension; absent dimensions are factor 1.
    std::map<Dim, std::int64_t> factors;
    /// Restrict this SU to depthwise layers (Table I's SU7).
    bool depthwise_only = false;
    /**
     * Weight-bit columns processed per cycle (Bw,u). Table I's SU4-SU6
     * unroll only 1024 operand positions spatially and recover the full
     * 4096-SMM budget by consuming 4 bit columns per cycle; SU1-SU3 take
     * one column per cycle.
     */
    int bit_columns = 1;

    /// Unroll factor for @p dim (1 when absent).
    std::int64_t factor(Dim dim) const;

    /// Operand-position lanes (product of factors, excluding bit columns).
    std::int64_t lanes() const;

    /// Total multiplier lanes including bit-column parallelism.
    std::int64_t total_lanes() const { return lanes() * bit_columns; }

    /// Weight bits fetched per cycle (1 bit per weight lane: Cu * Ku).
    std::int64_t weight_bandwidth_bits() const;

    /// Activation bits fetched per cycle (8 bits x Cu x OXu x OYu).
    std::int64_t activation_bandwidth_bits() const;

    /**
     * BCS column group size implied by this SU: the input-channel (C)
     * unrolling for standard layers, the G unrolling for the depthwise
     * SU7. Matches the hardware-supported group sizes {8, 16, 32, 64}.
     */
    std::int64_t group_size() const;
};

/**
 * The seven BitWave SUs of Table I. SU7 maps its Gu = 64 onto the channel
 * (K) dimension of depthwise layers.
 */
const std::vector<SpatialUnrolling> &bitwave_sus();

/**
 * Why @p sus cannot be mapped, or empty when they can: an empty list, a
 * factor below 1, or bit_columns below 1 (cycle counts divide by both).
 * The model's and the simulator's config checks both call it.
 */
std::string dataflows_error(const std::vector<SpatialUnrolling> &sus);

/// Fixed single-SU baselines used by Fig. 9 for a given PE lane budget.
/// @p lanes must be 4096 (bit-serial array) or 512 (bit-parallel array).
std::vector<SpatialUnrolling> fixed_su_baselines(std::int64_t lanes);

/// The dense reference SU of Fig. 13 ([Ku = 64, Cu = 64]).
SpatialUnrolling dense_reference_su();

/**
 * Spatial utilization of @p desc under @p su: the fraction of PE lanes
 * doing useful work, i.e. prod_d (d / (ceil(d / f_d) * f_d)).
 * Dimensions the layer lacks (e.g. C for depthwise under a Cu unrolling)
 * contribute their full underutilization, the Fig. 9 effect.
 */
double spatial_utilization(const LayerDesc &desc, const SpatialUnrolling &su);

/**
 * Temporal iteration count: cycles (per weight-bit pass) needed to sweep
 * the whole layer, i.e. prod_d ceil(d / f_d) over all 6 dims plus batch.
 */
std::int64_t temporal_iterations(const LayerDesc &desc,
                                 const SpatialUnrolling &su);

/**
 * Normalize a layer for dataflow mapping: fully-connected and LSTM
 * layers expose their token/timestep batch as the OX dimension (the
 * im2col view every spatial accelerator uses for matmuls), so OXu
 * parallelism applies to them.
 */
LayerDesc normalized_for_mapping(const LayerDesc &desc);

/**
 * Pick the SU with the highest spatial utilization for @p desc from
 * @p candidates (ties broken toward the first candidate). Depthwise-only
 * SUs are skipped for non-depthwise layers and preferred for depthwise.
 * This is the offline ZigZag selection the top controller replays
 * per layer (Section IV-C).
 */
const SpatialUnrolling &select_su(const LayerDesc &desc,
                                  const std::vector<SpatialUnrolling>
                                      &candidates);

}  // namespace bitwave
