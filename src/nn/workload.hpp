/**
 * @file
 * Workload = a named network with per-layer descriptors and quantized
 * weights, the unit of evaluation for every experiment in the paper.
 *
 * Weight layout convention: the input-channel dimension C is innermost
 * ([K, FY, FX, C] for convolutions, [K, C] for linear/LSTM weights), so
 * grouping consecutive elements — what the BCS analysis and compressor do —
 * groups along C, matching the BitWave dataflow's Cu spatial unrolling.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace bitwave {

/// Shape of the magnitude distribution for synthesized weights.
enum class WeightDistribution {
    kLaplacian,  ///< Peaked: typical conv/LSTM layers.
    kGaussian,   ///< Broader: transformer projections.
};

/// Per-layer weight statistics controlling synthesis (nn/synthesis.hpp).
struct WeightProfile
{
    WeightDistribution distribution = WeightDistribution::kLaplacian;
    /// Scale of the distribution in the Int8 code domain (bigger = more
    /// large-magnitude codes = fewer zero bit columns).
    double scale = 10.0;
    /// Probability of an exact zero weight (pruning/dead filters).
    double zero_probability = 0.05;
    /**
     * Probability that a sample rounding to zero is promoted to +-1.
     * Trained weights rarely sit exactly on the zero code (weight decay
     * equilibria keep them small but non-zero), which is why real Int8
     * networks combine LOW value sparsity with HIGH bit-column sparsity —
     * the gap Fig. 1's SR ratios quantify.
     */
    double zero_avoidance = 0.0;
    /**
     * Log-normal sigma of a per-output-channel gain: some kernels are
     * near-dead (uniformly tiny codes), others hot. Groups lie inside one
     * kernel, so this correlation is what lifts zero-column co-occurrence
     * to the levels the paper reports for real networks.
     */
    double kernel_gain_sigma = 0.9;
};

/// One layer of a workload: shape plus synthesized Int8 weights.
struct WorkloadLayer
{
    LayerDesc desc;
    Int8Tensor weights;       ///< C-innermost layout, see file comment.
    /// Profile a benchmark network's builder assigns this layer;
    /// synthesize_layer() (nn/workloads.hpp) draws `weights` from it.
    WeightProfile profile;
    float weight_scale = 1.f; ///< Dequantization scale of the weights.
    /**
     * Modeled value sparsity of this layer's *input* activations
     * (post-ReLU layers have substantial activation sparsity; GeLU/tanh
     * layers very little). Consumed by the analytical accelerator models.
     */
    double activation_sparsity = 0.0;
    /**
     * FNV-1a content hash of `weights` (0 = not computed). Builders
     * fill it in so caches keyed on weight content (Bit-Flip
     * preparation, bit planes, stats) avoid rehashing the tensors;
     * hand-built layers may leave it 0 and pay an on-demand hash in the
     * eval layer.
     */
    std::uint64_t weights_hash = 0;

    /// Expected weight tensor shape for a layer descriptor.
    static Shape weight_shape(const LayerDesc &desc);

    /// FNV-1a hash of the weight tensor contents (computed, not cached).
    std::uint64_t compute_weights_hash() const;
};

/// Position flags controlling off-chip activation traffic: only the
/// network input and output cross DRAM (intermediate feature maps are
/// kept or halo-tiled on chip, the assumption behind Fig. 16's
/// "DRAM energy is dominated by weight loading").
struct LayerContext
{
    bool first_layer = false;
    bool last_layer = false;
};

/// A complete benchmark network.
struct Workload
{
    std::string name;
    std::string metric_name;   ///< "top-1", "PESQ", "F1".
    double base_metric = 0.0;  ///< Metric of the unmodified Int8 model.
    /**
     * Scale factor converting mean weighted relative output error into
     * metric loss; calibrated per network so the Bit-Flip experiments
     * reproduce the paper's accuracy/CR trade-off bands (see DESIGN.md
     * substitution #2).
     */
    double error_sensitivity = 40.0;
    /**
     * Content hash over the layer weight hashes and descriptors
     * (0 = not computed). Identifies the synthesized instance: a
     * scenario's fingerprint mixes it in for a custom workload.
     */
    std::uint64_t content_hash = 0;
    /// Synthesis seed of a benchmark network: layer i draws its weights
    /// from hash(seed, i), so any layer synthesizes on its own.
    std::uint64_t seed = 0;
    std::vector<WorkloadLayer> layers;

    std::int64_t total_macs() const;
    std::int64_t total_weights() const;

    /// Index of a layer by name; throws FaultError(kInvalid) if absent.
    std::size_t layer_index(const std::string &layer_name) const;
};

}  // namespace bitwave
