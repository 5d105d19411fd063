#include "eval/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <tuple>
#include <utility>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "common/trace.hpp"
#include "compress/csr.hpp"
#include "compress/zre.hpp"
#include "eval/error.hpp"
#include "model/performance.hpp"
#include "sim/npu.hpp"

namespace bitwave::eval {

double
ScenarioResult::runtime_ms(const TechParams &tech) const
{
    return total_cycles / tech.frequency_hz * 1e3;
}

double
ScenarioResult::gops(const TechParams &tech) const
{
    const double seconds = total_cycles / tech.frequency_hz;
    return seconds > 0
        ? static_cast<double>(nominal_macs) * 2.0 / seconds / 1e9 : 0.0;
}

double
ScenarioResult::tops_per_watt() const
{
    return energy.total_pj > 0
        ? static_cast<double>(nominal_macs) * 2.0 / energy.total_pj : 0.0;
}

SparsityStats
ScenarioResult::merged_sparsity() const
{
    SparsityStats merged;
    for (const auto &l : layers) {
        if (l.stats) {
            merged.merge(l.stats->sparsity);
        }
    }
    return merged;
}

namespace {

LayerEval
from_model(const LayerResult &r)
{
    LayerEval e;
    e.layer_name = r.layer_name;
    e.su_name = r.su_name;
    e.utilization = r.utilization;
    e.compute_cycles = r.compute_cycles;
    e.dram_cycles = r.dram_cycles;
    e.total_cycles = r.total_cycles;
    e.cycles_per_group = r.cycles_per_group;
    e.energy = r.energy;
    return e;
}

LayerEval
from_sim(const LayerSimResult &r)
{
    LayerEval e;
    e.layer_name = r.layer_name;
    e.su_name = r.su_name;
    e.compute_cycles = r.cycles_decoupled;
    e.cycles_lockstep = r.cycles_lockstep;
    e.dram_cycles = r.dram_cycles;
    e.total_cycles = r.total_cycles;
    e.cycles_per_group = r.mean_columns_per_group();
    e.energy = r.energy;
    return e;
}

/// Build one layer's statistics record. Sparsity comes from the byte
/// histogram; the column records (BCS sizes included) and CSR read
/// packed bit planes (both representations share the content-hash plane
/// cache), fetched only when one of them is requested.
LayerStatsEval
build_layer_stats(const StatsSpec &spec, const Int8Tensor &w,
                  std::uint64_t weights_hash)
{
    const int group = spec.group_size;
    LayerStatsEval stats;
    stats.sparsity = compute_sparsity(w);
    stats.weight_bits = w.numel() * 8;
    if (!spec.column_stats && !spec.reference_codecs) {
        return stats;
    }
    const auto p2c = shared_bitplanes(
        w, Representation::kTwosComplement, weights_hash);
    const auto psm = shared_bitplanes(
        w, Representation::kSignMagnitude, weights_hash);
    if (spec.column_stats) {
        stats.columns_2c = analyze_bit_columns(*p2c, group, p2c->n);
        stats.columns_sm = analyze_bit_columns(*psm, group, psm->n);
    }
    if (spec.reference_codecs) {
        const auto zre = zre_compress(w);
        stats.zre_bits = zre.compressed_bits();
        stats.zre_ideal_bits = zre.payload_bits();
        // Word-parallel CSR over the already-packed 2C planes.
        const auto csr = csr_compress(*p2c, w, w.dim(0));
        stats.csr_bits = csr.compressed_bits();
        stats.csr_ideal_bits = csr.payload_bits();
    }
    return stats;
}

/// The kStats engine: weight sparsity and (opt-in) codec statistics,
/// memoized process-wide by (tensor content, StatsSpec) — repeated
/// stats sweeps over the same weights pay only a map lookup.
LayerEval
layer_stats(const Scenario &scenario, const WorkloadLayer &layer,
            const Int8Tensor *weights, std::uint64_t weights_hash)
{
    const Int8Tensor &w = weights != nullptr ? *weights : layer.weights;
    const StatsSpec &spec = scenario.stats;

    if (weights == nullptr) {
        weights_hash = layer.weights_hash;
    }
    if (weights_hash == 0) {
        weights_hash = fnv1a(w.data(),
                             static_cast<std::size_t>(w.numel()));
    }
    std::uint64_t key = hash_combine(
        weights_hash, static_cast<std::uint64_t>(spec.group_size));
    key = hash_combine(
        key,
        static_cast<std::uint64_t>((spec.column_stats ? 1 : 0) |
                                   (spec.reference_codecs ? 2 : 0)));
    // The CSR record depends on the leading dimension, so the full
    // shape is part of the identity, not just the byte content.
    key = hash_combine(key, static_cast<std::uint64_t>(w.rank()));
    for (const std::int64_t d : w.shape()) {
        key = hash_combine(key, static_cast<std::uint64_t>(d));
    }

    static LruCache<std::uint64_t, LayerStatsEval> memo(256, "stats_memo");
    bool was_hit = false;
    auto stats = memo.get_or_build(
        key, [&] { return build_layer_stats(spec, w, weights_hash); },
        &was_hit);

    LayerEval e;
    e.layer_name = layer.desc.name;
    e.cycles_per_group = stats->columns_sm.mean_nonzero_columns();
    e.stats = std::move(stats);
    e.stats_from_memo = was_hit;
    return e;
}

/**
 * Why no engine can serve @p scenario, or empty: each field an engine
 * would otherwise fatal() on. (An override's arity and sizes need the
 * workload; prepare_scenario checks them.)
 */
std::string
scenario_error(const Scenario &scenario)
{
    const AcceleratorConfig &accel = scenario.accel;
    const StatsSpec &stats = scenario.stats;
    const BitflipSpec &flip = scenario.bitflip;
    std::string why;
    switch (scenario.engine) {
      case EngineKind::kAnalytical:
        why = model_config_error(accel);
        break;
      case EngineKind::kCycleSim:
        // The NPU is a bit-column machine with one switch (dense mode)
        // for both column skipping and BCS compression, and it keeps
        // feature maps on chip: npu_config() can express no other.
        why = model_config_error(accel);
        if (!why.empty()) {
            break;
        }
        if (accel.style != ComputeStyle::kBitColumnSerial) {
            why = "the simulator runs bit-column-serial machines only";
        } else if ((accel.sparsity == SparsityMode::kWeightBitColumn) !=
                   accel.compress_weights) {
            why = "column skipping without BCS compression, or the reverse";
        } else if (accel.layer_sequential_dram) {
            why = "layer_sequential_dram on the simulator";
        }
        break;
      case EngineKind::kStats:
        if (stats.column_stats &&
            (stats.group_size < 1 || stats.group_size > 64)) {
            why = strprintf("stats group_size %d", stats.group_size);
        }
        break;
    }
    if (why.empty() && flip.mode != BitflipSpec::Mode::kNone &&
        !scenario.weight_override &&
        (flip.group_size < 1 || flip.zero_columns < 0 ||
         flip.zero_columns > kWordBits)) {
        why = strprintf("Bit-Flip group_size %d, zero_columns %d",
                        flip.group_size, flip.zero_columns);
    }
    return why;
}

/**
 * The NPU @p accel describes: its dataflows, mapping policy, memory and
 * representation, in the ZCIP's dense mode when it skips no bit
 * columns. scenario_error() rejects every machine this cannot express.
 */
NpuConfig
npu_config(const AcceleratorConfig &accel)
{
    NpuConfig npu;
    npu.dataflows = accel.dataflows;
    npu.mapping_policy = accel.mapping_policy;
    npu.memory = accel.memory;
    npu.repr = accel.weight_repr;
    npu.dense_mode = accel.sparsity != SparsityMode::kWeightBitColumn;
    return npu;
}

}  // namespace

ScenarioPrep
prepare_scenario(const Scenario &scenario)
{
    const auto invalid = [&](const std::string &why) {
        return EvalError(ErrorKind::kInvalid,
                         strprintf("Scenario %s: %s",
                                   scenario.name().c_str(), why.c_str()));
    };
    if (const std::string why = scenario_error(scenario); !why.empty()) {
        throw invalid(why);
    }
    ScenarioPrep prep;

    // Workload: the shared cached synthesis, or the skeleton of a private
    // one drawn from the scenario's own workload seed, layer by layer
    // in evaluate_layer_range.
    if (scenario.custom_workload) {
        prep.owned = scenario.custom_workload;
    } else if (scenario.workload_seed == kCachedWorkloadSeed) {
        prep.owned = shared_workload(scenario.workload);
    } else {
        auto skeleton = std::make_shared<Workload>(build_workload_skeleton(
            scenario.workload, scenario.workload_seed));
        prep.skeleton = skeleton.get();
        prep.owned = std::move(skeleton);
    }
    prep.workload = prep.owned.get();
    const std::vector<WorkloadLayer> &layers = prep.workload->layers;

    // Layer selection: the filter's indices in workload order.
    if (scenario.layer_filter.empty()) {
        prep.layers.resize(layers.size());
        for (std::size_t i = 0; i < prep.layers.size(); ++i) {
            prep.layers[i] = i;
        }
    } else {
        for (const auto &name : scenario.layer_filter) {
            prep.layers.push_back(
                prep.workload->layer_index(name));  // kInvalid on typos
        }
        std::sort(prep.layers.begin(), prep.layers.end());
        prep.layers.erase(
            std::unique(prep.layers.begin(), prep.layers.end()),
            prep.layers.end());
    }

    prep.weights.resize(layers.size());
    prep.flip.assign(layers.size(), 0);
    if (const auto &tensors = scenario.weight_override) {
        bool fits = tensors->size() == layers.size();
        for (std::size_t i = 0; fits && i < layers.size(); ++i) {
            fits = (*tensors)[i].numel() == layers[i].desc.weight_count();
        }
        if (!fits) {
            throw invalid(strprintf("weight_override needs %zu tensors, "
                                    "one per layer, of the layer's size",
                                    layers.size()));
        }
        for (std::size_t i = 0; i < layers.size(); ++i) {
            // Alias into the override vector: shared ownership, no copy.
            prep.weights[i] =
                std::shared_ptr<const Int8Tensor>(tensors, &(*tensors)[i]);
        }
    } else {
        // Record which selected layers flip; the tensors themselves are
        // resolved per layer during evaluation so the work shards.
        for (std::size_t i :
             bitflip_layer_set(*prep.workload, scenario.bitflip)) {
            prep.flip[i] = std::binary_search(prep.layers.begin(),
                                              prep.layers.end(), i);
        }
    }
    return prep;
}

std::vector<LayerEval>
evaluate_layer_range(const Scenario &scenario, const ScenarioPrep &prep,
                     std::uint64_t /*rng_seed*/, std::size_t begin,
                     std::size_t end, std::size_t scenario_index)
{
    const Workload &w = *prep.workload;
    std::vector<LayerEval> out;
    out.reserve(end - begin);

    const auto layer_inputs = [&](std::size_t sel) {
        const std::size_t l = prep.layers[sel];
        // A private skeleton's layer is drawn here, by the one shard
        // that evaluates it: no other shard reads or writes it.
        if (prep.skeleton != nullptr &&
            prep.skeleton->layers[l].weights.numel() == 0) {
            trace::Span span("workload.synthesize", "workload");
            span.arg("scenario", scenario_index);
            span.arg("layer", l);
            synthesize_layer(*prep.skeleton, l);
        }
        LayerContext ctx;
        ctx.first_layer = l == 0;
        ctx.last_layer = l + 1 == w.layers.size();
        std::shared_ptr<const Int8Tensor> prepared = prep.weights[l];
        // Content identity of the evaluated tensor when derivable
        // without re-hashing: flipped twins have a hash that is a pure
        // function of (original hash, flip spec). Explicit overrides
        // stay 0 (downstream hashes on the fly).
        std::uint64_t prepared_hash = 0;
        if (!prepared && prep.flip[l]) {
            prepared = cached_bitflip(w.layers[l].weights,
                                      w.layers[l].weights_hash,
                                      scenario.bitflip.group_size,
                                      scenario.bitflip.zero_columns);
            prepared_hash = flipped_weights_hash(
                w.layers[l].weights_hash, scenario.bitflip.group_size,
                scenario.bitflip.zero_columns,
                w.layers[l].weights.numel());
        }
        return std::tuple(std::cref(w.layers[l]), std::move(prepared),
                          ctx, l, prepared_hash);
    };

    switch (scenario.engine) {
      case EngineKind::kAnalytical: {
        const AcceleratorModel model(scenario.accel);
        for (std::size_t s = begin; s < end; ++s) {
            const auto [layer, weights, ctx, l, whash] = layer_inputs(s);
            (void)l;
            out.push_back(from_model(
                model.model_layer(layer, weights.get(), ctx, whash)));
        }
        break;
      }
      case EngineKind::kCycleSim: {
        const BitWaveNpu npu(npu_config(scenario.accel));
        for (std::size_t s = begin; s < end; ++s) {
            const auto [layer, weights, ctx, l, whash] = layer_inputs(s);
            (void)l;
            // Accounting-only execution: functional output is exercised
            // by the simulator's own tests, not by scenario sweeps.
            out.push_back(from_sim(
                npu.run_layer(layer, nullptr, weights.get(),
                              /*compute_output=*/false, ctx, whash)));
        }
        break;
      }
      case EngineKind::kStats: {
        for (std::size_t s = begin; s < end; ++s) {
            const auto [layer, weights, ctx, l, whash] = layer_inputs(s);
            (void)ctx;
            (void)l;
            out.push_back(
                layer_stats(scenario, layer, weights.get(), whash));
        }
        break;
      }
    }
    return out;
}

ScenarioResult
finalize_scenario(const Scenario &scenario, const ScenarioPrep &prep,
                  std::uint64_t rng_seed, std::vector<LayerEval> layers)
{
    if (layers.size() != prep.layers.size()) {
        fatal("finalize_scenario: %zu layer records for %zu selected",
              layers.size(), prep.layers.size());
    }
    ScenarioResult out;
    out.name = scenario.name();
    out.engine = engine_name(scenario.engine);
    out.rng_seed = rng_seed;
    out.workload = prep.workload->name;
    switch (scenario.engine) {
      case EngineKind::kAnalytical:
        out.accelerator = scenario.accel.name;
        break;
      case EngineKind::kCycleSim:
        out.accelerator = "BitWaveNPU";
        break;
      case EngineKind::kStats:
        out.accelerator = "stats";
        break;
    }
    out.layers = std::move(layers);
    for (std::size_t s = 0; s < out.layers.size(); ++s) {
        out.total_cycles += out.layers[s].total_cycles;
        out.energy += out.layers[s].energy;
        out.nominal_macs +=
            prep.workload->layers[prep.layers[s]].desc.macs();
        out.stats_memo_hits += out.layers[s].stats_from_memo ? 1 : 0;
    }
    return out;
}

ScenarioResult
evaluate_scenario(const Scenario &scenario, std::uint64_t rng_seed)
{
    const auto t0 = std::chrono::steady_clock::now();
    const ScenarioPrep prep = prepare_scenario(scenario);
    ScenarioResult out = finalize_scenario(
        scenario, prep, rng_seed,
        evaluate_layer_range(scenario, prep, rng_seed, 0,
                             prep.layers.size()));
    out.wall_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return out;
}

}  // namespace bitwave::eval
