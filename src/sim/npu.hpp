/**
 * @file
 * Cycle-level BitWave NPU simulator — the Fig. 11 system: data fetcher,
 * ZCIP bank, 512 BCEs, data dispatcher, banked SRAMs and a top
 * controller applying the per-layer spatial unrolling.
 *
 * The simulator is *functional* (its outputs are bit-exact against the
 * reference int8 kernels) and *cycle-level*: it walks the temporal tile
 * schedule of the selected SU and charges per-group column cycles from
 * the actual compressed weight stream, the row-aligned bcs_compress()
 * stream the fetcher reads. No SRAM object exists: each SRAM is priced
 * by its port width. Two cycle counts are reported:
 *
 *  - `cycles_decoupled`: lanes drain their group streams independently
 *    through the fetcher's double buffering (throughput = mean group
 *    occupancy; this is the paper's operating assumption and what the
 *    analytical model uses);
 *  - `cycles_lockstep`: all Ku kernel lanes synchronize per group pass
 *    (throughput = max occupancy; this is what Bit-Flip's workload
 *    balancing eliminates, and what the sync ablation bench shows).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/mapping.hpp"
#include "dataflow/su.hpp"
#include "search/cost.hpp"
#include "sparsity/stats.hpp"
#include "energy/dram.hpp"
#include "energy/pricing.hpp"
#include "energy/tech.hpp"
#include "nn/workload.hpp"

namespace bitwave {

/// Static configuration of the simulated NPU instance (Section V-A).
struct NpuConfig
{
    std::vector<SpatialUnrolling> dataflows;  ///< Defaults to Table I.
    /**
     * Per-layer SU choice: the historic utilization ranking (default,
     * bit-compatible) or the search/cost.hpp latency ranking — the same
     * offline ZigZag-style selection the analytical model replays, so
     * the two engines keep agreeing layer by layer under either policy.
     */
    search::MappingPolicy mapping_policy =
        search::MappingPolicy::kUtilization;
    /// SRAM capacities and SRAM->array port widths (Table I: W BW <=
    /// 1024 bits/cycle).
    MemoryHierarchy memory;
    bool dense_mode = false;  ///< ZCIP dense mode: no skipping/index.
    /// Representation for zero-column skipping.
    Representation repr = Representation::kSignMagnitude;
    /// Seed of the deterministic synthetic-activation stream used when
    /// run_layer() is given no input tensor.
    std::uint64_t act_seed = 0xFEED;

    NpuConfig();
};

/// Result of simulating one layer.
struct LayerSimResult
{
    std::string layer_name;
    std::string su_name;
    int group_size = 0;

    std::optional<Int32Tensor> output;  ///< Present when compute_output.

    double cycles_decoupled = 0.0;
    double cycles_lockstep = 0.0;
    double dram_cycles = 0.0;
    double act_fetch_cycles = 0.0;
    double total_cycles = 0.0;  ///< Eq. (5) composition with decoupled.

    std::int64_t group_passes = 0;
    std::int64_t nonzero_columns_streamed = 0;
    std::int64_t weight_bits_fetched = 0;  ///< Compressed incl. index.
    std::int64_t weight_bits_dram = 0;
    /// Activation bits crossing DRAM: network input read on the first
    /// layer, output written back on the last (LayerContext flags) —
    /// intermediate feature maps stay on chip, as in the model.
    std::int64_t act_bits_dram = 0;
    std::int64_t act_bits_fetched = 0;
    std::int64_t output_words = 0;

    /// Eq. (4) energy from the shared pricing core.
    EnergyBreakdown energy;

    /// Mean non-zero columns per group (includes the sign column).
    double mean_columns_per_group() const;
};

/**
 * The BitWave NPU.
 */
class BitWaveNpu
{
  public:
    /// Fatal on dataflows dataflows_error() rejects or a memory field
    /// below 1.
    explicit BitWaveNpu(NpuConfig config = {},
                        const TechParams &tech = default_tech(),
                        const DramModel &dram = default_dram());

    /**
     * Simulate one layer.
     *
     * @param layer          Shape + weights + activation statistics.
     * @param input          Input activations; when null a deterministic
     *                       synthetic input is generated from the layer's
     *                       statistics.
     * @param weights        Optional weight override (e.g. Bit-Flipped).
     * @param compute_output Functional execution of every MAC through the
     *                       BCE datapath (bit-exact, slower); cycle and
     *                       energy accounting is identical either way.
     * @param ctx            Position of the layer in the network: first
     *                       layers read their input from DRAM and last
     *                       layers write their output back, contributing
     *                       to DRAM cycles/energy exactly as in the
     *                       analytical model.
     * @param weights_hash   Content hash of @p weights when known (e.g.
     *                       eval::flipped_weights_hash); 0 hashes on the
     *                       fly for the shared bit-plane cache. Ignored
     *                       when @p weights is null.
     */
    LayerSimResult run_layer(const WorkloadLayer &layer,
                             const Int8Tensor *input = nullptr,
                             const Int8Tensor *weights = nullptr,
                             bool compute_output = true,
                             LayerContext ctx = {},
                             std::uint64_t weights_hash = 0) const;

    const NpuConfig &config() const { return config_; }

  private:
    NpuConfig config_;
    const TechParams &tech_;
    const DramModel &dram_;
};

}  // namespace bitwave
