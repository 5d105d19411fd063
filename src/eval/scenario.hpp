/**
 * @file
 * Scenario = one point of the evaluation space: an accelerator
 * configuration x a benchmark workload x weight-preparation options
 * (Bit-Flip or explicit overrides) x the engine that evaluates it
 * (analytical model or cycle-level simulator).
 *
 * Every sweep in the repository — the paper figures, the SOTA table, the
 * shootout example — is a list of Scenarios handed to the
 * eval::ScenarioRunner; adding a new combination is one more entry in
 * that list.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/accelerator.hpp"
#include "nn/workloads.hpp"
#include "sim/npu.hpp"
#include "tensor/tensor.hpp"

namespace bitwave::eval {

/// Which implementation evaluates the scenario.
enum class EngineKind {
    kAnalytical,  ///< Section V-B Sparseloop-style model.
    kCycleSim,    ///< Fig. 11 cycle-level NPU simulator.
    kStats,       ///< Weight sparsity / compression statistics only.
};

/// Display name ("model", "sim", "stats").
const char *engine_name(EngineKind kind);

/// How a scenario prepares its weights before evaluation.
struct BitflipSpec
{
    enum class Mode {
        kNone,         ///< Use the workload's weights as-is.
        kUniform,      ///< Bit-Flip every layer to the same target.
        kHeavyLayers,  ///< Flip only the weight-heaviest layers covering
                       ///< `weight_share` of the parameters (Fig. 6 e-h).
    };
    Mode mode = Mode::kNone;
    int group_size = 16;
    int zero_columns = 4;
    double weight_share = 0.8;  ///< Only for kHeavyLayers.
};

/// What the kStats engine computes per layer (sparsity statistics are
/// always derived; codec bit counts are opt-in per codec family — they
/// dominate the cost on BERT-class tensors, so benches enable only
/// what they read).
struct StatsSpec
{
    /// BCS group size of the column statistics, in [1, 64].
    int group_size = 16;
    /// Bit-column statistics (both representations) at `group_size`,
    /// which carry the BCS storage sizes too. Scenarios that only read
    /// value/bit sparsity turn this off and skip two full tensor scans
    /// per layer.
    bool column_stats = true;
    /// Run the reference ZRE / CSR codecs and record their bit counts.
    bool reference_codecs = false;
};

/// Seed sentinel: share the process-wide cached workload synthesis.
inline constexpr std::uint64_t kCachedWorkloadSeed = 0x5eed;

/// One evaluation scenario.
struct Scenario
{
    /// Optional display label; name() derives one when empty.
    std::string label;

    EngineKind engine = EngineKind::kAnalytical;
    /// The machine, under either engine: the simulator runs the NPU it
    /// describes, and rejects as kInvalid a machine it cannot run.
    AcceleratorConfig accel = make_bitwave(BitWaveVariant::kDfSm);
    /// The default NPU, the one make_bitwave(kDfSm) describes. No caller
    /// sets it and no engine reads it; it goes once nothing reads its
    /// representation (ROADMAP item 4).
    static const NpuConfig npu;

    WorkloadId workload = WorkloadId::kResNet18;
    /// kCachedWorkloadSeed shares the cached synthesis; any other value
    /// synthesizes a private workload deterministically from that seed.
    std::uint64_t workload_seed = kCachedWorkloadSeed;
    /// Explicit workload object (e.g. a user-built custom network);
    /// takes precedence over `workload`/`workload_seed`.
    std::shared_ptr<const Workload> custom_workload;

    BitflipSpec bitflip;
    /// Explicit per-layer weight replacement (e.g. from a Bit-Flip
    /// search); takes precedence over `bitflip`.
    std::shared_ptr<const std::vector<Int8Tensor>> weight_override;

    /// Statistics configuration (kStats engine only).
    StatsSpec stats;

    /// Evaluate only these layers (by name); empty = whole network.
    std::vector<std::string> layer_filter;

    /// Extra salt for the scenario's deterministic RNG stream.
    std::uint64_t seed = 0;

    /// Derived display name: "<accel>/<workload>[+bf...][ (sim)]".
    std::string name() const;
};

/**
 * Deterministic RNG seed of one scenario in a batch: a splitmix64 mix of
 * the scenario's own salt, its batch index and its workload — a pure
 * function of the batch content, never of thread scheduling.
 */
std::uint64_t scenario_rng_seed(const Scenario &scenario,
                                std::size_t index);

/**
 * Content identity of a scenario: a hash over every field that can
 * affect its evaluation result — label (the result carries the name),
 * engine, accelerator configuration, workload selection, flip
 * spec, stats spec, layer filter and seed. Two scenarios with equal
 * fingerprints evaluate to bit-identical results, so the evaluation
 * service deduplicates in-flight requests by this key and shares one
 * evaluation across N submitters.
 *
 * Pointer-held parts: `custom_workload` contributes its content_hash;
 * `weight_override` contributes the tensors' bytes via their per-layer
 * hashes. Collisions are the usual 64-bit-hash caveat and only affect
 * *dedup* (two requests sharing a result), never a single request's own
 * result.
 */
std::uint64_t scenario_fingerprint(const Scenario &scenario);

/**
 * Layer indices a Bit-Flip spec would rewrite: every layer for kUniform,
 * the weight-heaviest layers covering `weight_share` of the parameters
 * for kHeavyLayers (the Fig. 6(e)-(h) protocol), none for kNone.
 */
std::vector<std::size_t> bitflip_layer_set(const Workload &workload,
                                           const BitflipSpec &spec);

/**
 * Deterministic content identity of the Bit-Flipped twin of a tensor
 * whose own content identity is @p weights_hash: the flip is a pure
 * function of (content, group, zero_cols), so this derived hash lets
 * the downstream content-keyed caches (bit planes, stats memo) identify
 * the prepared tensor without re-hashing its bytes. Also the Bit-Flip
 * preparation cache's own key. Returns 0 when @p weights_hash is 0
 * (unknown content).
 */
std::uint64_t flipped_weights_hash(std::uint64_t weights_hash, int group,
                                   int zero_cols, std::int64_t numel);

/**
 * Process-wide content-hash cache of Bit-Flip weight preparation: the
 * flipped twin of one weight tensor under one (group, zero-column)
 * target. Repeated (workload, flip-spec) pairs across scenarios and
 * benches share one prepared tensor; concurrent first requests build it
 * exactly once. @p weights_hash must identify the tensor contents (pass
 * WorkloadLayer::weights_hash, or 0 to hash on the fly). A zero-column
 * target of 0 is the identity — returns null, meaning "use the tensor
 * as-is".
 */
std::shared_ptr<const Int8Tensor>
cached_bitflip(const Int8Tensor &weights, std::uint64_t weights_hash,
               int group, int zero_cols);

/**
 * Heavy-layer Bit-Flip preparation of a whole workload through the
 * per-layer cache (the Fig. 13/15/17 protocol). Entries are null for
 * layers the spec leaves untouched — evaluate those with the workload's
 * own tensors.
 */
std::vector<std::shared_ptr<const Int8Tensor>>
cached_flip_heavy_layers(const Workload &w, double weight_share, int group,
                         int zero_cols);

}  // namespace bitwave::eval
