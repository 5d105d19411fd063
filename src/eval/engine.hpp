/**
 * @file
 * The shared scenario-evaluation core, and the only loop that walks a
 * whole network: the evaluation engines — the analytical accelerator
 * model, the cycle-level NPU simulator, and the weight-statistics
 * engine — are fed layer by layer from here (first/last-layer DRAM
 * context, Bit-Flip twins, weight overrides), price through one
 * energy/latency scheme (energy/pricing.hpp) and produce the same
 * unified per-layer / per-workload records, so results from either
 * engine are directly comparable (the Section V-B validation) and every
 * consumer (benches, examples, the deployment pipeline) reads one
 * result type.
 *
 * Evaluation is split into three phases so the ScenarioRunner can shard
 * one scenario's layers across its worker pool:
 *
 *   prepare_scenario()     reject an unservable scenario, then resolve
 *                          workload, layer selection and flip set (a
 *                          private workload as an unsynthesized
 *                          skeleton — cheap)
 *   evaluate_layer_range() synthesize a private workload's layers, then
 *                          evaluate a contiguous slice of the selection
 *   finalize_scenario()    stitch slices into one ScenarioResult
 *
 * Every layer is synthesized from (workload seed, layer index), no
 * engine draws from a seed of its own, and finalize accumulates totals
 * in layer order — results are bit-identical no matter how the slices
 * were cut or which threads ran them.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/pricing.hpp"
#include "energy/tech.hpp"
#include "eval/scenario.hpp"
#include "sparsity/bitcolumn.hpp"
#include "sparsity/stats.hpp"

namespace bitwave::eval {

/// Per-layer output of the kStats engine: weight sparsity statistics
/// and (opt-in) codec bit counts at the scenario's stats group size.
struct LayerStatsEval
{
    SparsityStats sparsity;     ///< Value/bit sparsity, both reprs.
    /// Column stats over flat groups, two's complement and
    /// sign-magnitude; their bcs_bits() / bcs_payload_bits() are the
    /// BCS sizes.
    BitColumnStats columns_2c;
    BitColumnStats columns_sm;
    std::int64_t weight_bits = 0;  ///< Uncompressed weight volume.

    // Reference codec results (StatsSpec::reference_codecs; 0 when
    // disabled). "Ideal" is the payload without index/bookkeeping
    // overhead.
    std::int64_t zre_bits = 0, zre_ideal_bits = 0;
    std::int64_t csr_bits = 0, csr_ideal_bits = 0;
};

/// Unified per-layer record produced by the engines.
struct LayerEval
{
    std::string layer_name;
    std::string su_name;         ///< Selected dataflow.
    double utilization = 0.0;    ///< Spatial PE utilization (model only).
    double compute_cycles = 0.0; ///< Array occupancy (sim: decoupled).
    /// Lane-synchronized array occupancy (sim only; the ablation knob).
    double cycles_lockstep = 0.0;
    double dram_cycles = 0.0;    ///< Off-chip channel occupancy.
    double total_cycles = 0.0;   ///< Eq. (5) composition.
    /// Mean effective bit-column cycles per group pass.
    double cycles_per_group = 0.0;
    EnergyBreakdown energy;      ///< Shared Eq. (4) pricing.
    /// Statistics record (kStats engine only, shared not copied).
    std::shared_ptr<const LayerStatsEval> stats;
    /// kStats only: the record came from the process-wide stats memo.
    bool stats_from_memo = false;
};

/// Unified workload-level result of one scenario.
struct ScenarioResult
{
    std::string name;         ///< Scenario display name.
    std::string engine;       ///< "model", "sim", or "stats".
    std::string accelerator;
    std::string workload;
    std::uint64_t rng_seed = 0;  ///< Deterministic per-scenario seed.

    std::vector<LayerEval> layers;
    double total_cycles = 0.0;
    EnergyBreakdown energy;
    std::int64_t nominal_macs = 0;  ///< Dense MACs of evaluated layers.
    double wall_seconds = 0.0;      ///< Host-side evaluation cost.
    /// Layers whose kStats record was served by the content-hash stats
    /// memo (0 for the other engines): warm stats sweeps hit on every
    /// layer and skip the tensor scans entirely. A cache diagnostic
    /// like wall_seconds — scheduling-dependent for concurrent
    /// identical scenarios, and excluded from the determinism contract.
    std::int64_t stats_memo_hits = 0;

    /// Wall-clock at the tech frequency, in ms.
    double runtime_ms(const TechParams &tech = default_tech()) const;
    /// Effective throughput in GOPS (2 ops per MAC).
    double gops(const TechParams &tech = default_tech()) const;
    /// Energy efficiency in TOPS/W over nominal (useful) operations.
    double tops_per_watt() const;

    /// Merged kStats sparsity statistics of the evaluated layers.
    SparsityStats merged_sparsity() const;
};

/**
 * Resolved inputs of one scenario evaluation; layer shards evaluated on
 * different threads share one prep. Immutable once built, except that
 * each layer of a private skeleton is written once, by the shard that
 * evaluates it.
 */
struct ScenarioPrep
{
    /// Keepalive for the shared, custom or private workload.
    std::shared_ptr<const Workload> owned;
    const Workload *workload = nullptr;
    /// A private `workload_seed`'s skeleton (`owned`, writable): its
    /// selected layers are synthesized by evaluate_layer_range. Null for
    /// shared and custom workloads, which arrive synthesized.
    Workload *skeleton = nullptr;
    /// Per-layer explicit weights (the scenario's weight_override,
    /// aliased not copied); null = the layer's own tensor, possibly
    /// Bit-Flipped per `flip` below.
    std::vector<std::shared_ptr<const Int8Tensor>> weights;
    /// Per-layer flag: evaluate this layer on its Bit-Flipped twin
    /// (resolved lazily through the preparation cache by whichever
    /// shard reaches the layer first — heavy flips parallelize with
    /// the evaluation instead of serializing preparation).
    std::vector<std::uint8_t> flip;
    /// Selected layer indices, ascending (all layers when no filter).
    std::vector<std::size_t> layers;
};

/**
 * Resolve a scenario's workload, weight overrides, layer selection and
 * flip set. Thread-safe. A private `workload_seed` yields a skeleton
 * (no synthesis here: selection and flip set read only the layer
 * descriptors); a shared workload's first touch builds it. A scenario
 * with a field an engine cannot serve — a config model_config_error()
 * rejects; on the simulator, a machine that is not bit-column-serial,
 * skips columns without BCS compression (or the reverse) or sets
 * layer_sequential_dram; a stats or Bit-Flip group or zero-column
 * target out of range, an unknown layer name, an override of the wrong
 * size — throws EvalError(kInvalid) before any work starts.
 */
ScenarioPrep prepare_scenario(const Scenario &scenario);

/**
 * Evaluate the slice [begin, end) of @p prep.layers and return its
 * LayerEval records in selection order, first synthesizing each layer of
 * the slice that a private skeleton still lacks (a `workload.synthesize`
 * span tagged with @p scenario_index, the scenario's batch position).
 * @p rng_seed is not read. Pure function of (scenario, prep, slice) —
 * safe to call concurrently for disjoint slices of the same prep; a
 * re-run slice sees identical weights.
 */
std::vector<LayerEval> evaluate_layer_range(const Scenario &scenario,
                                            const ScenarioPrep &prep,
                                            std::uint64_t rng_seed,
                                            std::size_t begin,
                                            std::size_t end,
                                            std::size_t scenario_index = 0);

/**
 * Assemble per-layer records (in selection order, e.g. concatenated
 * slices) into the scenario's result. Totals accumulate in layer order,
 * so the result is bit-identical however the slices were cut.
 */
ScenarioResult finalize_scenario(const Scenario &scenario,
                                 const ScenarioPrep &prep,
                                 std::uint64_t rng_seed,
                                 std::vector<LayerEval> layers);

/**
 * Evaluate one scenario synchronously (prepare + evaluate + finalize).
 *
 * The ScenarioRunner shards this pipeline over its worker threads;
 * single evaluations call it directly. @p rng_seed is only recorded in
 * the result: no engine draws from it, so the result depends on the
 * scenario alone — never on scheduling.
 */
ScenarioResult evaluate_scenario(const Scenario &scenario,
                                 std::uint64_t rng_seed = 0);

}  // namespace bitwave::eval
