/**
 * @file
 * Accelerator baseline configurations — the benchmark set of Fig. 12
 * (right): SCNN, Stripes, Pragmatic, Bitlet, HUAA, a dense bit-parallel
 * reference, and BitWave itself in its incremental variants
 * (Dense SU / +DF / +SM / +SM+BF for the Fig. 13 breakdown).
 *
 * All systems are normalized to an equivalent compute budget (512 8bx8b
 * MAC/cycle; bit-serial arrays hold 4096 1bx8b lanes) and the same
 * 256 KB + 256 KB SRAM / DDR3 hierarchy, as the paper's methodology
 * requires for a fair comparison.
 */
#pragma once

#include <string>
#include <vector>

#include "dataflow/mapping.hpp"
#include "dataflow/su.hpp"
#include "search/cost.hpp"
#include "sparsity/stats.hpp"

namespace bitwave {

/**
 * Exponent of the planar-crossbar token-starvation penalty:
 * cycles *= (crossbar positions / resident tokens) ^ this, for matmul
 * layers on machines with `planar_crossbar`. Calibrated (together with
 * SCNN's `value_imbalance`) against the paper's Fig. 14 CNN-LSTM and
 * Bert-Base speedup bars.
 */
inline constexpr double kPlanarStarvationExponent = 0.40;

/// How the datapath consumes operand bits.
enum class ComputeStyle {
    kBitParallel,      ///< 8b x 8b MACs (HUAA, SCNN, dense).
    kBitSerial,        ///< 1b x 8b lanes, weight bits serialized.
    kBitColumnSerial,  ///< BitWave BCEs: shared-significance columns.
};

/// Which sparsity the accelerator can skip.
enum class SparsityMode {
    kNone,           ///< Dense execution.
    kValue,          ///< Zero-value skipping of W and A (SCNN).
    kWeightBit,      ///< Zero weight-bit skipping (Pragmatic).
    kWeightBitInterleaved,  ///< Bitlet's significance interleaving.
    kWeightBitColumn,       ///< BitWave's BCS skipping.
};

/// Full configuration of one modeled accelerator.
struct AcceleratorConfig
{
    std::string name;
    ComputeStyle style = ComputeStyle::kBitParallel;
    SparsityMode sparsity = SparsityMode::kNone;
    /// Representation whose zero bits/columns are skippable.
    Representation weight_repr = Representation::kTwosComplement;
    /// Candidate dataflows; more than one = runtime-reconfigurable.
    std::vector<SpatialUnrolling> dataflows;
    /**
     * How the per-layer SU is picked from `dataflows`. The default
     * replays the historic utilization ranking bit for bit;
     * kCostAware ranks by the mapping cost model's Eq. (5) latency
     * (search/cost.hpp) — only meaningful for the bit-column-serial
     * machines, other styles keep the utilization choice.
     */
    search::MappingPolicy mapping_policy =
        search::MappingPolicy::kUtilization;
    MemoryHierarchy memory;

    /// Lanes that advance in lockstep (Pragmatic sync).
    std::int64_t sync_lanes = 16;
    /// Bitlet interleaving window in weights.
    std::int64_t interleave_window = 64;
    /// Bitlet online bit-scheduling overhead (index extraction and
    /// significance sorting happen at runtime — Section II-B).
    double interleave_overhead = 1.0;
    /// Weight compression between DRAM/SRAM and the array.
    bool compress_weights = false;
    /// Dedicated accumulator banks: partial sums never round-trip the
    /// activation SRAM across input-channel tiles (SCNN's crossbar-fed
    /// accumulator SRAM).
    bool accumulator_banks = false;
    /// Activation compression (SCNN's ZRE on feature maps).
    bool compress_acts = false;
    /// Load-imbalance inflation for value-sparse PEs (SCNN).
    double value_imbalance = 1.2;
    /**
     * Planar OXu x OYu output crossbar (SCNN): matmul tiles that cannot
     * fill the crossbar with tokens pay conflict cycles growing with
     * the fill deficit (see kPlanarStarvationExponent).
     */
    bool planar_crossbar = false;

    // --- Energy-side knobs (Fig. 15/16/17 calibration) -----------------
    /**
     * Layer-sequential execution: intermediate feature maps that exceed
     * the activation SRAM spill to DRAM between layers (the baseline
     * machines' layer-by-layer schedules). BitWave keeps intermediates
     * on chip via depth-first halo tiling, so its variants leave this
     * off — only the network input/output cross DRAM.
     */
    bool layer_sequential_dram = false;
    /**
     * Crossbar-conflict arbitration energy, pJ per product REPLAY on
     * token-starved matmul tiles: each effective product re-issues
     * (starvation - 1) extra times on average, and every replay
     * re-arbitrates the full OXu x OYu output-port set (64 ports at
     * ~2 pJ of wire + mux + bank-precharge energy each). Calibrated —
     * together with value_imbalance and kPlanarStarvationExponent —
     * against the paper's Fig. 15 SCNN / Bert-Base 13.23x energy
     * anchor, the same way the latency side was pinned to Fig. 14.
     * Only read when planar_crossbar is set.
     */
    double e_crossbar_conflict_pj = 0.0;
    /**
     * Per-lane per-compute-cycle datapath overhead, pJ: the bit-serial
     * machines' operand shift registers and lane-sync logic (Stripes /
     * Pragmatic) plus Bitlet's online significance scheduling — energy
     * their papers' PE figures carry outside the MAC itself.
     */
    double e_lane_overhead_pj = 0.0;

    /// MAC/cycle at full utilization (8b x 8b equivalents).
    std::int64_t peak_macs_per_cycle() const;
};

/// --- Baseline builders -------------------------------------------------

/// Dense bit-parallel reference with the common [Ku=64, Cu=64] SU.
AcceleratorConfig make_dense_reference();

/// HUAA: bit-parallel, dynamic dataflow, no sparsity handling.
AcceleratorConfig make_huaa();

/// Stripes: bit-serial, fixed SU, no bit skipping.
AcceleratorConfig make_stripes();

/// Pragmatic: bit-serial, skips zero weight bits, lane-synchronized.
AcceleratorConfig make_pragmatic();

/// Bitlet: bit-interleaved weight-bit sparsity.
AcceleratorConfig make_bitlet();

/// SCNN: value-sparsity aware with ZRE-compressed tensors.
AcceleratorConfig make_scnn();

/// BitWave variants for the Fig. 13 breakdown.
enum class BitWaveVariant {
    kDenseSu,      ///< Fixed dense SU, dense bits (the Fig. 13 baseline).
    kDynamicDf,    ///< + dynamic dataflow (DF).
    kDfSm,         ///< + sign-magnitude BCSeC skipping & compression.
    kDfSmBf,       ///< + Bit-Flip (weights must be pre-flipped).
};

/// Build a BitWave configuration for @p variant.
AcceleratorConfig make_bitwave(BitWaveVariant variant);

/// Display name of a variant ("Dense", "+DF", ...).
const char *bitwave_variant_name(BitWaveVariant variant);

/// The HUAA-style bit-parallel dynamic SU set (512 lanes).
std::vector<SpatialUnrolling> huaa_sus();

}  // namespace bitwave
