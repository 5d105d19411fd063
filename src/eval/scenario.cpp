#include "eval/scenario.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "bitflip/bitflip.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "common/trace.hpp"

namespace bitwave::eval {

const NpuConfig Scenario::npu;

const char *
engine_name(EngineKind kind)
{
    switch (kind) {
      case EngineKind::kAnalytical: return "model";
      case EngineKind::kCycleSim: return "sim";
      case EngineKind::kStats: return "stats";
    }
    return "?";
}

std::string
Scenario::name() const
{
    if (!label.empty()) {
        return label;
    }
    std::string n = engine == EngineKind::kStats ? "stats" : accel.name;
    n += '/';
    n += custom_workload ? custom_workload->name.c_str()
                         : workload_name(workload);
    switch (bitflip.mode) {
      case BitflipSpec::Mode::kNone:
        break;
      case BitflipSpec::Mode::kUniform:
        n += strprintf("+bf(g%d,z%d)", bitflip.group_size,
                       bitflip.zero_columns);
        break;
      case BitflipSpec::Mode::kHeavyLayers:
        n += strprintf("+bf(g%d,z%d,%.0f%%)", bitflip.group_size,
                       bitflip.zero_columns,
                       bitflip.weight_share * 100.0);
        break;
    }
    if (weight_override) {
        n += "+weights";
    }
    if (engine == EngineKind::kCycleSim) {
        n += " (sim)";
    }
    return n;
}

std::uint64_t
scenario_rng_seed(const Scenario &scenario, std::size_t index)
{
    std::uint64_t h = splitmix64(scenario.seed);
    h = splitmix64(h ^ static_cast<std::uint64_t>(index));
    h = splitmix64(h ^ static_cast<std::uint64_t>(scenario.workload));
    h = splitmix64(h ^ static_cast<std::uint64_t>(scenario.engine));
    return h;
}

namespace {

/// Order-sensitive string mix: length then bytes, so ("ab","c") and
/// ("a","bc") fingerprints differ.
std::uint64_t
mix_string(std::uint64_t h, const std::string &s)
{
    h = hash_combine(h, s.size());
    return fnv1a(s.data(), s.size(), h);
}

/// Doubles mix by bit pattern: fingerprint equality must mean "the same
/// value feeds the evaluation", not approximate equality.
std::uint64_t
mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return hash_combine(h, bits);
}

std::uint64_t
mix_su_list(std::uint64_t h, const std::vector<SpatialUnrolling> &sus)
{
    h = hash_combine(h, sus.size());
    for (const auto &su : sus) {
        h = mix_string(h, su.name);
        h = hash_combine(h, su.factors.size());
        for (const auto &[dim, factor] : su.factors) {
            h = hash_combine(h, static_cast<std::uint64_t>(dim));
            h = hash_combine(h, static_cast<std::uint64_t>(factor));
        }
        h = hash_combine(h, static_cast<std::uint64_t>(su.depthwise_only));
        h = hash_combine(h, static_cast<std::uint64_t>(su.bit_columns));
    }
    return h;
}

std::uint64_t
mix_accel(std::uint64_t h, const AcceleratorConfig &a)
{
    h = mix_string(h, a.name);
    h = hash_combine(h, static_cast<std::uint64_t>(a.style));
    h = hash_combine(h, static_cast<std::uint64_t>(a.sparsity));
    h = hash_combine(h, static_cast<std::uint64_t>(a.weight_repr));
    h = mix_su_list(h, a.dataflows);
    h = hash_combine(h, static_cast<std::uint64_t>(a.mapping_policy));
    h = hash_combine(h, static_cast<std::uint64_t>(a.memory.weight_sram_bytes));
    h = hash_combine(h, static_cast<std::uint64_t>(a.memory.act_sram_bytes));
    h = hash_combine(h, static_cast<std::uint64_t>(a.memory.weight_port_bits));
    h = hash_combine(h, static_cast<std::uint64_t>(a.memory.act_port_bits));
    h = hash_combine(h, static_cast<std::uint64_t>(a.sync_lanes));
    h = hash_combine(h, static_cast<std::uint64_t>(a.interleave_window));
    h = mix_double(h, a.interleave_overhead);
    h = hash_combine(h, static_cast<std::uint64_t>(a.compress_weights));
    h = hash_combine(h, static_cast<std::uint64_t>(a.accumulator_banks));
    h = hash_combine(h, static_cast<std::uint64_t>(a.compress_acts));
    h = mix_double(h, a.value_imbalance);
    h = hash_combine(h, static_cast<std::uint64_t>(a.planar_crossbar));
    h = hash_combine(h, static_cast<std::uint64_t>(a.layer_sequential_dram));
    h = mix_double(h, a.e_crossbar_conflict_pj);
    h = mix_double(h, a.e_lane_overhead_pj);
    return h;
}

}  // namespace

std::uint64_t
scenario_fingerprint(const Scenario &scenario)
{
    std::uint64_t h = kFnvBasis;
    h = mix_string(h, scenario.label);
    h = hash_combine(h, static_cast<std::uint64_t>(scenario.engine));
    // Only the configuration the selected engine reads contributes —
    // two stats requests differing solely in an accelerator field still
    // deduplicate.
    switch (scenario.engine) {
      case EngineKind::kAnalytical:
      case EngineKind::kCycleSim:
        h = mix_accel(h, scenario.accel);
        break;
      case EngineKind::kStats:
        h = hash_combine(h,
                         static_cast<std::uint64_t>(scenario.stats.group_size));
        h = hash_combine(
            h, static_cast<std::uint64_t>(scenario.stats.column_stats));
        h = hash_combine(
            h, static_cast<std::uint64_t>(scenario.stats.reference_codecs));
        break;
    }
    if (scenario.custom_workload) {
        h = hash_combine(h, 1);
        h = hash_combine(h, scenario.custom_workload->content_hash);
    } else {
        h = hash_combine(h, 2);
        h = hash_combine(h, static_cast<std::uint64_t>(scenario.workload));
        h = hash_combine(h, scenario.workload_seed);
    }
    h = hash_combine(h, static_cast<std::uint64_t>(scenario.bitflip.mode));
    h = hash_combine(h,
                     static_cast<std::uint64_t>(scenario.bitflip.group_size));
    h = hash_combine(h,
                     static_cast<std::uint64_t>(scenario.bitflip.zero_columns));
    h = mix_double(h, scenario.bitflip.weight_share);
    if (scenario.weight_override) {
        h = hash_combine(h, scenario.weight_override->size());
        for (const auto &t : *scenario.weight_override) {
            // Content identity of each override tensor: shape + bytes.
            const Shape &shape = t.shape();
            h = hash_combine(h, shape.size());
            for (std::size_t d = 0; d < shape.size(); ++d) {
                h = hash_combine(h, static_cast<std::uint64_t>(shape[d]));
            }
            h = fnv1a(t.data(), static_cast<std::size_t>(t.numel()), h);
        }
    }
    h = hash_combine(h, scenario.layer_filter.size());
    for (const auto &name : scenario.layer_filter) {
        h = mix_string(h, name);
    }
    h = hash_combine(h, scenario.seed);
    return h;
}

/// Layer indices of the weight-heaviest layers covering @p weight_share
/// of the parameters (ascending).
static std::vector<std::size_t>
heavy_layer_set(const Workload &w, double weight_share)
{
    std::vector<std::pair<std::int64_t, std::size_t>> sizes;
    for (std::size_t i = 0; i < w.layers.size(); ++i) {
        sizes.emplace_back(w.layers[i].desc.weight_count(), i);
    }
    std::sort(sizes.rbegin(), sizes.rend());
    std::vector<std::size_t> heavy;
    std::int64_t cum = 0;
    const auto target = static_cast<std::int64_t>(
        weight_share * static_cast<double>(w.total_weights()));
    for (const auto &[size, idx] : sizes) {
        if (cum >= target) {
            break;
        }
        heavy.push_back(idx);
        cum += size;
    }
    std::sort(heavy.begin(), heavy.end());
    return heavy;
}

std::vector<std::size_t>
bitflip_layer_set(const Workload &workload, const BitflipSpec &spec)
{
    switch (spec.mode) {
      case BitflipSpec::Mode::kNone:
        return {};
      case BitflipSpec::Mode::kUniform: {
        std::vector<std::size_t> all(workload.layers.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        return all;
      }
      case BitflipSpec::Mode::kHeavyLayers:
        return heavy_layer_set(workload, spec.weight_share);
    }
    return {};
}

std::uint64_t
flipped_weights_hash(std::uint64_t weights_hash, int group, int zero_cols,
                     std::int64_t numel)
{
    if (weights_hash == 0) {
        return 0;
    }
    std::uint64_t key = hash_combine(weights_hash,
                                     static_cast<std::uint64_t>(group));
    key = hash_combine(key, static_cast<std::uint64_t>(zero_cols));
    return hash_combine(key, static_cast<std::uint64_t>(numel));
}

std::shared_ptr<const Int8Tensor>
cached_bitflip(const Int8Tensor &weights, std::uint64_t weights_hash,
               int group, int zero_cols)
{
    if (zero_cols == 0) {
        return nullptr;  // identity flip: use the tensor as-is, no copy
    }
    if (weights_hash == 0) {
        weights_hash = fnv1a(weights.data(),
                             static_cast<std::size_t>(weights.numel()));
    }
    const std::uint64_t key = flipped_weights_hash(
        weights_hash, group, zero_cols, weights.numel());

    // Bounded LRU (256 prepared tensors): concurrent first requests
    // build exactly once, and a long-running batch can no longer grow
    // the prepared set without limit — in-flight holders keep an
    // evicted tensor alive until they drop it.
    static LruCache<std::uint64_t, Int8Tensor> cache(256, "bitflip_twins");
    return cache.get_or_build(key, [&] {
        trace::Span span("bitflip.build", "bitflip");
        span.arg("elements", static_cast<std::uint64_t>(weights.numel()));
        span.arg("zero_columns", static_cast<std::uint64_t>(zero_cols));
        return bitflip_tensor(weights, group, zero_cols);
    });
}

std::vector<std::shared_ptr<const Int8Tensor>>
cached_flip_heavy_layers(const Workload &w, double weight_share, int group,
                         int zero_cols)
{
    BitflipSpec spec;
    spec.mode = BitflipSpec::Mode::kHeavyLayers;
    spec.weight_share = weight_share;
    spec.group_size = group;
    spec.zero_columns = zero_cols;

    std::vector<std::shared_ptr<const Int8Tensor>> out(w.layers.size());
    for (std::size_t i : bitflip_layer_set(w, spec)) {
        out[i] = cached_bitflip(w.layers[i].weights,
                                w.layers[i].weights_hash, group, zero_cols);
    }
    return out;
}

}  // namespace bitwave::eval
