/**
 * @file
 * ZigZag-lite mapping analysis: per-layer memory-access counts (the
 * Table II quantities) for a layer mapped onto an accelerator dataflow,
 * and the bit-serial baselines' cycle statistics. This is the analytical
 * substrate both the SotA models (Section V-B) and the BitWave
 * performance model build on. BitWave's own cycle count needs only the
 * per-group histogram of non-zero bit columns (Eq. 2): the row-aligned
 * BitColumnStats of sparsity/bitcolumn.hpp, memoized by
 * search::cached_cycle_stats, whose flat form also sizes the
 * BCS-compressed weight stream. The lockstep penalty of Ku kernels waiting
 * on their slowest group is counted by the cycle-level simulator
 * (LayerSimResult::cycles_lockstep).
 */
#pragma once

#include <cstdint>

#include "dataflow/su.hpp"
#include "nn/workload.hpp"
#include "sparsity/stats.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {

/**
 * Per-weight-word bit-serial statistics for accelerators that skip zero
 * *bits* (not columns): Pragmatic-style, synchronizing @p lanes lanes.
 * Returns mean max-popcount per synchronized lane set.
 */
double bit_serial_sync_cycles(const Int8Tensor &weights, std::int64_t lanes,
                              Representation repr);

/**
 * Bitlet-style bit-interleaving statistics: weights are processed in
 * windows of @p window words; each window costs cycles equal to the
 * maximum per-significance occupancy (the number of words carrying a
 * non-zero bit at the worst bit position), the sync bottleneck the paper
 * ascribes to Bitlet on large arrays.
 */
double bit_interleave_cycles(const Int8Tensor &weights, std::int64_t window,
                             Representation repr);

/// On-chip/off-chip capacities and port widths of the modeled hierarchy.
struct MemoryHierarchy
{
    std::int64_t weight_sram_bytes = 256 * 1024;
    std::int64_t act_sram_bytes = 256 * 1024;
    std::int64_t weight_port_bits = 1024;  ///< SRAM->PE weight bandwidth.
    std::int64_t act_port_bits = 1024;     ///< SRAM->PE activation bandwidth.
};

/**
 * Table II activity counts of one layer (all in native units noted
 * per-field). Effective counts: compression already applied.
 */
struct AccessCounts
{
    // Off-chip transfers, in bits.
    double dram_read_weight_bits = 0.0;
    double dram_read_act_bits = 0.0;
    double dram_write_act_bits = 0.0;
    // On-chip SRAM traffic, in bits.
    double sram_read_weight_bits = 0.0;
    double sram_read_act_bits = 0.0;
    double sram_write_act_bits = 0.0;
    double sram_write_weight_bits = 0.0;  ///< DRAM refill traffic.
    // Register file accesses, per operand word.
    double reg_read_words = 0.0;
    double reg_write_words = 0.0;

    double dram_total_bits() const
    {
        return dram_read_weight_bits + dram_read_act_bits +
            dram_write_act_bits;
    }
};

/// Compression factors applied when moving each tensor.
struct CompressionFactors
{
    double weight_fetch_ratio = 1.0;  ///< Stored/fetched bits per 8 bits
                                      ///< crossing DRAM.
    double act_fetch_ratio = 1.0;     ///< Same for input activations.
    double act_store_ratio = 1.0;     ///< Same for output activations.
    /// On-chip traffic multiplier for the weight port (sparse-encoding
    /// index overhead, or skipped-fetch savings for value-sparse PEs).
    double weight_sram_overhead = 1.0;
    /// On-chip traffic multiplier for the activation port.
    double act_sram_overhead = 1.0;
};

/// Execution-dependent inputs to the access-count model.
struct ExecutionProfile
{
    double utilization = 1.0;  ///< Spatial PE utilization of the mapping.
    double compute_cycles = 0.0;  ///< Array-occupied cycles.
    /// Weight bits the array pulls from SRAM each compute cycle (the
    /// Table I "W BW"). Bit-serial machines re-stream the serialized
    /// weight operand continuously, so SRAM weight traffic =
    /// cycles x this width.
    double weight_port_active_bits = 0.0;
    /// Explicit weight-stream volume in bits: the compressed columns
    /// plus per-group index, charged ONCE per layer sweep (the
    /// fetcher's double buffer holds the active tile across temporal
    /// revisits). When > 0 it replaces the port-based accounting above
    /// — the BCS machines stream exactly their compressed weights,
    /// nothing more (and the weight port can be the Eq. 5 bottleneck
    /// when the stream outruns it).
    double weight_stream_bits = 0.0;
    /// Weight-stationary (bit-parallel) machines instead fetch each
    /// weight once into PE registers and pay partial-sum re-accumulation
    /// traffic across input-channel tiles.
    bool weight_stationary = false;
    /// Number of input-channel tiles (ceil(C / Cu)); > 1 means partial
    /// sums spill to SRAM between tiles on weight-stationary machines.
    std::int64_t c_tiles = 1;
    /// Partial sums accumulate in dedicated accumulator banks next to
    /// the PEs (SCNN's crossbar-fed accumulator SRAM) instead of
    /// round-tripping the activation SRAM across input-channel tiles.
    bool psum_in_accumulators = false;
    /// Fraction of the input feature map read from DRAM: 1 for the
    /// network input, 0 for a resident intermediate map, and the
    /// non-resident excess share for layer-sequential machines whose
    /// map exceeds the activation SRAM (partial spill).
    double input_dram_fraction = 1.0;
    /// Same for the output feature map (last layer / spilled share).
    double output_dram_fraction = 1.0;
};

/**
 * Share of a feature map of @p elements 8b words that cannot stay
 * resident in @p mem's activation SRAM — the fraction a
 * layer-sequential schedule spills to DRAM (0 when the map fits).
 * The single definition of the residency rule: the baseline branch of
 * AcceleratorModel::model_layer and search's mapping_cost, which
 * prices every bit-column machine, both apply it.
 */
double activation_spill_fraction(std::int64_t elements,
                                 const MemoryHierarchy &mem);

/**
 * Compute the per-layer access counts for @p desc under @p su and
 * hierarchy @p mem, with compression @p cf and execution @p exec.
 *
 * Model (output-stationary, double-buffered):
 *  - weights cross DRAM once per layer in stored (compressed) form, once
 *    more per activation tile when neither fits on chip; activations
 *    cross DRAM only per the residency flags in @p exec;
 *  - bit-serial weight SRAM reads pay the active weight-port width every
 *    compute cycle (the weight operand is the serialized stream; skipped
 *    bit columns are never fetched); weight-stationary machines fetch
 *    each weight once and pay 32b partial-sum spills across C tiles;
 *  - activation SRAM reads are per-MAC operand fetches divided by the
 *    kernel broadcast factor Ku and inflated by spatial under-utilization
 *    — the "reduced spatial data reuse" penalty of Fig. 15;
 *  - every MAC reads two register operands and writes one accumulator.
 */
AccessCounts compute_access_counts(const LayerDesc &desc,
                                   const SpatialUnrolling &su,
                                   const MemoryHierarchy &mem,
                                   const CompressionFactors &cf,
                                   const ExecutionProfile &exec);

}  // namespace bitwave
