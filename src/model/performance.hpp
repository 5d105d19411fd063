/**
 * @file
 * Sparseloop-inspired analytical performance model — Section V-B,
 * STEP1-STEP4 and Eqs. (1)-(5).
 *
 * For one (accelerator, workload) pair the model:
 *   STEP1  maps each layer onto the accelerator's best supported dataflow
 *          (ZigZag-lite: spatial utilization + temporal iterations) and
 *          extracts the Table II activity counts;
 *   STEP2  derives the workload's sparsity statistics (value, bit, and
 *          bit-column level) from the actual weight tensors, with load
 *          imbalance applied for runtime-scheduled machines;
 *   STEP3  combines both into effective MAC counts / compute cycles
 *          (Eqs. 1-2) and effective memory accesses (Eq. 3);
 *   STEP4  prices the activity with the 16 nm technology parameters and
 *          the DDR3 model (Eq. 4) and assembles latency per Eq. (5).
 *
 * Bit-column-serial machines (BitWave) run all four steps through
 * search::mapping_cost, the function cost-aware SU selection ranks
 * candidates with, so a layer is priced the way its SU was chosen.
 * Whole networks are walked by the scenario engine (eval/engine.hpp).
 */
#pragma once

#include <string>

#include "energy/dram.hpp"
#include "energy/pricing.hpp"
#include "energy/tech.hpp"
#include "model/accelerator.hpp"
#include "nn/workload.hpp"

namespace bitwave {

/// Modeled execution of one layer on one accelerator.
struct LayerResult
{
    std::string layer_name;
    std::string su_name;        ///< Selected dataflow.
    double utilization = 0.0;   ///< Spatial PE utilization.
    double compute_cycles = 0.0;   ///< CCmac,e (Eq. 2).
    double dram_cycles = 0.0;      ///< Channel occupancy.
    double total_cycles = 0.0;     ///< Eq. (5).

    /// Energy components and their sum (Eq. 4), shared pricing core.
    EnergyBreakdown energy;

    // Bookkeeping for the compression-oriented figures.
    double weight_fetch_ratio = 1.0;   ///< Compressed/raw weight bits.
    double cycles_per_group = 8.0;     ///< Effective bit cycles per pass.
};

/**
 * Why the model cannot price @p config, or empty when it can. It cannot
 * price a config whose dataflows dataflows_error() rejects, an SRAM size
 * or port width below 1, a bit-serial machine whose lockstep width
 * (sync_lanes) or interleaving window is below 1, bit-column
 * sparsity on a machine without bit columns, BCS groups outside
 * [1, 64], or a bit-column machine that sets a knob only the baseline
 * pricing reads: search::mapping_cost would price it without the knob.
 */
std::string model_config_error(const AcceleratorConfig &config);

/**
 * The analytical model for one accelerator configuration; fatal on a
 * config model_config_error() rejects.
 */
class AcceleratorModel
{
  public:
    explicit AcceleratorModel(AcceleratorConfig config,
                              const TechParams &tech = default_tech(),
                              const DramModel &dram = default_dram());

    /**
     * Model one layer.
     *
     * @param layer        Layer descriptor + weights + activation
     *                     sparsity.
     * @param weights      Optional replacement weights (e.g.
     *                     Bit-Flipped); defaults to the layer's own
     *                     tensor.
     * @param ctx          Position of the layer in the network.
     * @param weights_hash Content hash of @p weights when known (e.g.
     *                     eval::flipped_weights_hash); 0 hashes on the
     *                     fly for the shared bit-plane cache and
     *                     computes the baseline weight statistics
     *                     (sparsity, sync, interleave, ZRE) uncached.
     *                     Ignored when @p weights is null (the layer's
     *                     own weights_hash applies).
     */
    LayerResult model_layer(const WorkloadLayer &layer,
                            const Int8Tensor *weights = nullptr,
                            LayerContext ctx = {},
                            std::uint64_t weights_hash = 0) const;

    const AcceleratorConfig &config() const { return config_; }

  private:
    AcceleratorConfig config_;
    const TechParams &tech_;
    const DramModel &dram_;
};

}  // namespace bitwave
