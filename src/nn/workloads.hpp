/**
 * @file
 * The four benchmark networks of the paper's evaluation (Fig. 12 left):
 * ResNet18, MobileNetV2, CNN-LSTM (audio denoising), and BERT-Base.
 *
 * Layer shapes are the real published architectures (ImageNet variants for
 * the CNNs, hidden-768 BERT-Base with input token size 4 as in Fig. 13).
 * Weights are synthesized per DESIGN.md substitution #1; the CNN-LSTM
 * topology follows substitution #6 (the paper's in-house NXP model is
 * private) and is sized so the two LSTM layers hold ~85 % of the weights,
 * matching the paper's "LSTM.0 and LSTM.1 (~80 % weights)" statement.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "nn/workload.hpp"

namespace bitwave {

/// Identifiers for the benchmark networks.
enum class WorkloadId {
    kResNet18,
    kMobileNetV2,
    kCnnLstm,
    kBertBase,
};

/// All benchmark ids, in the order the paper's figures list them.
inline constexpr WorkloadId kAllWorkloads[] = {
    WorkloadId::kResNet18,
    WorkloadId::kMobileNetV2,
    WorkloadId::kCnnLstm,
    WorkloadId::kBertBase,
};

/// Display name ("ResNet18", ...).
const char *workload_name(WorkloadId id);

/**
 * Build a workload with freshly synthesized weights: its skeleton,
 * synthesize_layer() over every layer (in parallel), then the content
 * hash.
 */
Workload build_workload(WorkloadId id, std::uint64_t seed = 0x5eed);

/**
 * Build a workload's structure only: descriptors, metadata, each layer's
 * WeightProfile and the seed, with empty weight tensors. Cheap: callers
 * that need only layer shapes or names (design feasibility checks, bench
 * layer lists) skip synthesis, and a private scenario synthesizes just
 * the layers it evaluates. The content hash stays 0.
 */
Workload build_workload_skeleton(WorkloadId id,
                                 std::uint64_t seed = 0x5eed);

/**
 * Synthesize layer @p index of a skeleton in place (its weights and
 * weights_hash). A pure function of (skeleton seed, index, the layer's
 * profile) that touches no other layer: layers fill in any order, on any
 * thread, and a redraw is bit-identical.
 */
void synthesize_layer(Workload &skeleton, std::size_t index);

/**
 * Shared synthesized instance of one workload (seed 0x5eed): synthesized
 * on first request, then held for the process lifetime — one slot per
 * network, never evicted. Each build counts into the
 * `cache.workloads.misses` metric.
 */
std::shared_ptr<const Workload> shared_workload(WorkloadId id);

/// Reference convenience over shared_workload(); valid for the process
/// lifetime.
const Workload &get_workload(WorkloadId id);

}  // namespace bitwave
