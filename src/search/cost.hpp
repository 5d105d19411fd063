/**
 * @file
 * Cost-model-driven mapping selection — the ZigZag-style upgrade of the
 * per-layer SU choice (ROADMAP follow-up of the weight-port stream
 * accounting).
 *
 * `select_su` ranks candidates by spatial utilization alone, which is
 * blind to two effects the analytical model already prices: the
 * compressed weight-stream occupancy of the SRAM weight port (fetch-bound
 * layers), and the bit-column occupancy implied by the SU's BCS group
 * size (smaller groups expose more zero columns). The mapping cost model
 * here scores a SpatialUnrolling candidate with the analytical model's
 * Eq. (5) latency (compute + weight-port stream + DRAM) and Eq. (4)
 * energy: it IS the model's bit-column-serial pricing, which
 * AcceleratorModel::model_layer calls for the SU it selects.
 * `select_su_cost_aware` ranks every legal candidate by it and picks the
 * one with the lowest modeled latency.
 *
 * Both the analytical model and the cycle-level simulator consume the
 * selection behind a `MappingPolicy` knob whose default, `kUtilization`,
 * reproduces the historic `select_su` choice bit for bit.
 *
 * The per-candidate statistics come from one column histogram
 * (BitColumnStats): its row-aligned form sets the bit-column occupancy,
 * its flat form the BCS-compressed DRAM stream. Both are memoized
 * process-wide by tensor content in one cache, so sweeps that revisit
 * the same weights — the design-space explorer scores hundreds of
 * hardware configs against one workload set — pay each (tensor, group
 * size, row length) scan exactly once, shared by every Ku. A row that is
 * a whole number of groups long cuts the flat groups, so it shares the
 * flat entry: only layers whose row length is not a multiple of the
 * group size scan twice.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataflow/mapping.hpp"
#include "dataflow/su.hpp"
#include "energy/dram.hpp"
#include "energy/pricing.hpp"
#include "energy/tech.hpp"
#include "sparsity/bitcolumn.hpp"
#include "tensor/bitplane.hpp"

namespace bitwave::search {

/// How a machine picks the per-layer spatial unrolling.
enum class MappingPolicy {
    kUtilization,  ///< Historic select_su: best spatial utilization.
    kCostAware,    ///< Lowest modeled Eq. (5) latency (this file).
};

/// Display name ("utilization", "cost-aware").
const char *mapping_policy_name(MappingPolicy policy);

/// Machine description the cost model prices a candidate against — the
/// bit-column-serial subset of AcceleratorConfig, which both engines
/// read.
struct MappingCostConfig
{
    Representation repr = Representation::kSignMagnitude;
    MemoryHierarchy memory;
    /// Zero columns are skipped/elided (SparsityMode::kWeightBitColumn /
    /// ZCIP sparse mode); false prices the dense bit-column datapath.
    bool skip_zero_columns = true;
    /// BCS-compressed weights cross DRAM (AcceleratorConfig's
    /// compress_weights).
    bool compress_weights = true;
    /// LayerContext flags: activation traffic crossing DRAM. Selection
    /// uses the interior-layer default so the chosen SU is a property of
    /// (layer, machine), not of network position.
    bool input_from_dram = false;
    bool output_to_dram = false;
    /// AcceleratorConfig::layer_sequential_dram: feature maps exceeding
    /// the activation SRAM spill to DRAM. Off for every BitWave
    /// configuration (halo tiling), but priced, so a bit-column machine
    /// with a layer-sequential schedule models correctly. The other
    /// baseline-only knobs (accumulator banks, planar crossbar, lane
    /// overhead, activation compression) have no field here:
    /// model_config_error() rejects a bit-column machine that sets one.
    bool layer_sequential_dram = false;
};

/// Modeled execution of one (layer, SU) candidate.
struct MappingCost
{
    double utilization = 0.0;
    double cycles_per_group = 0.0;  ///< Effective bit cycles per pass.
    double compute_cycles = 0.0;
    double weight_fetch_cycles = 0.0;  ///< Weight-port occupancy.
    double act_fetch_cycles = 0.0;
    double dram_cycles = 0.0;
    double output_write_cycles = 0.0;
    double total_cycles = 0.0;  ///< Eq. (5) composition.
    double weight_fetch_ratio = 1.0;  ///< Compressed/raw DRAM weights.
    EnergyBreakdown energy;     ///< Eq. (4), shared pricing core.
};

/**
 * Bit-column statistics of one weight tensor at one group size over
 * rows of @p row_len weights (analyze_bit_columns' row-aligned
 * geometry; row_len = planes.n is flat), served from a process-wide
 * content-hash LRU of 4096 entries (cache.mapping_cycles). The key is
 * (content, representation, group size, row length), with a row length
 * that is a multiple of the group size keyed as flat, since it cuts the
 * same groups: every SU with the same group size shares one scan,
 * whatever its Ku. @p content_hash must identify the tensor bytes
 * (WorkloadLayer::weights_hash or a derived flip hash); 0 bypasses the
 * cache and computes directly.
 */
std::shared_ptr<const BitColumnStats>
cached_cycle_stats(const BitPlanes &planes, int group_size,
                   std::int64_t row_len, std::uint64_t content_hash);

/**
 * Price one (layer, SU) candidate on a bit-column-serial machine.
 *
 * @param desc         Layer descriptor, already normalized for mapping
 *                     (normalized_for_mapping) — the same view
 *                     model_layer and the simulator select on.
 * @param su           Candidate spatial unrolling.
 * @param planes       Packed bit planes of the layer's weights in
 *                     cfg.repr; may be null only when
 *                     cfg.skip_zero_columns and cfg.compress_weights are
 *                     both false (dense pricing needs no weights).
 * @param content_hash Content identity of the weights for the memo
 *                     caches (0 = uncached).
 *
 * AcceleratorModel::model_layer prices every kBitColumnSerial layer
 * through this function; tests/test_search.cpp pins the two bit for bit
 * per probe layer, candidate and network position.
 */
MappingCost mapping_cost(const LayerDesc &desc, const SpatialUnrolling &su,
                         const BitPlanes *planes,
                         std::uint64_t content_hash,
                         const MappingCostConfig &cfg,
                         const TechParams &tech = default_tech(),
                         const DramModel &dram = default_dram());

/**
 * Pick the candidate with the lowest modeled total latency for @p desc
 * (ties broken toward the first candidate, matching select_su). Legality
 * rules are select_su's: depthwise-only SUs are skipped for
 * non-depthwise layers; when only illegal candidates are offered the
 * first candidate is returned.
 */
const SpatialUnrolling &
select_su_cost_aware(const LayerDesc &desc,
                     const std::vector<SpatialUnrolling> &candidates,
                     const BitPlanes *planes, std::uint64_t content_hash,
                     const MappingCostConfig &cfg,
                     const TechParams &tech = default_tech(),
                     const DramModel &dram = default_dram());

}  // namespace bitwave::search
