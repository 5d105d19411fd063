#include "search/cost.hpp"

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "nn/layer.hpp"

namespace bitwave::search {

const char *
mapping_policy_name(MappingPolicy policy)
{
    switch (policy) {
      case MappingPolicy::kUtilization: return "utilization";
      case MappingPolicy::kCostAware: return "cost-aware";
    }
    return "?";
}

std::shared_ptr<const BitColumnStats>
cached_cycle_stats(const BitPlanes &planes, int group_size,
                   std::int64_t row_len, std::uint64_t content_hash)
{
    // A row of whole groups cuts the flat groups: share the flat entry.
    if (group_size > 0 && row_len % group_size == 0) {
        row_len = planes.n;
    }
    const auto build = [&] {
        return analyze_bit_columns(planes, group_size, row_len);
    };
    if (content_hash == 0) {
        return std::make_shared<const BitColumnStats>(build());
    }
    std::uint64_t key = hash_combine(
        content_hash, static_cast<std::uint64_t>(planes.repr));
    key = hash_combine(key, static_cast<std::uint64_t>(group_size));
    key = hash_combine(key, static_cast<std::uint64_t>(row_len));
    static LruCache<std::uint64_t, BitColumnStats> memo(4096,
                                                        "mapping_cycles");
    return memo.get_or_build(key, build);
}

MappingCost
mapping_cost(const LayerDesc &desc, const SpatialUnrolling &su,
             const BitPlanes *planes, std::uint64_t content_hash,
             const MappingCostConfig &cfg, const TechParams &tech,
             const DramModel &dram)
{
    if (planes == nullptr &&
        (cfg.skip_zero_columns || cfg.compress_weights)) {
        fatal("mapping_cost: weight planes required for BCS pricing");
    }

    MappingCost r;
    r.utilization = spatial_utilization(desc, su);
    const double macs = static_cast<double>(desc.macs());
    const std::int64_t iterations = temporal_iterations(desc, su);
    const int group = static_cast<int>(su.group_size());

    // Bit-column occupancy: mean streamed columns per group pass, over
    // the groups of weight_row_geometry()'s rows. A depthwise layer is
    // scanned as one flat row of all its K*FY*FX weights instead (ROADMAP
    // item 1).
    const WeightRowGeometry geom = weight_row_geometry(desc);
    double cycles_per_pass = 0.0;
    double mac_energy_scale = 1.0;
    double mean_columns_per_group = 8.0;
    if (cfg.skip_zero_columns) {
        const std::int64_t row_len =
            desc.kind == LayerKind::kDepthwiseConv ? planes->n
                                                   : geom.row_len;
        const auto cc =
            cached_cycle_stats(*planes, group, row_len, content_hash);
        cycles_per_pass = cc->mean_ceil_cycles(su.bit_columns);
        mean_columns_per_group = cc->mean_nonzero_columns();
        mac_energy_scale = mean_columns_per_group / 8.0;
    } else {
        cycles_per_pass = 8.0 / static_cast<double>(su.bit_columns);
    }
    r.compute_cycles = static_cast<double>(iterations) * cycles_per_pass;
    r.cycles_per_group = cycles_per_pass;

    // DRAM: the BCS stream of flat groups, which run across kernel rows
    // (ROADMAP item 2).
    CompressionFactors cf;
    if (cfg.compress_weights && cfg.skip_zero_columns) {
        const auto flat =
            cached_cycle_stats(*planes, group, planes->n, content_hash);
        cf.weight_fetch_ratio = 1.0 / flat->bcs_compression_ratio();
    }
    r.weight_fetch_ratio = cf.weight_fetch_ratio;

    ExecutionProfile exec;
    exec.utilization = r.utilization;
    // Compressed stream (payload columns + ZCIP index) crosses the
    // weight port once per layer sweep — the fetcher's double buffer
    // holds the active tile across spatial revisits. Every group
    // carries an index byte, so the stream is never empty and prices
    // the weight SRAM reads on its own.
    const double groups = static_cast<double>(
        geom.rows * ceil_div(geom.row_len, su.group_size()));
    exec.weight_stream_bits = groups *
        (mean_columns_per_group * static_cast<double>(su.group_size()) +
         kWordBits);
    // Layer-sequential machines spill the non-resident excess of maps
    // that overflow the activation SRAM (activation_spill_fraction, the
    // rule the baseline machines share).
    const auto spill_fraction = [&](std::int64_t elements) {
        return cfg.layer_sequential_dram
            ? activation_spill_fraction(elements, cfg.memory) : 0.0;
    };
    exec.input_dram_fraction =
        cfg.input_from_dram ? 1.0 : spill_fraction(desc.input_count());
    exec.output_dram_fraction =
        cfg.output_to_dram ? 1.0 : spill_fraction(desc.output_count());

    const AccessCounts ac =
        compute_access_counts(desc, su, cfg.memory, cf, exec);
    r.dram_cycles = dram.transfer_cycles(ac.dram_total_bits());

    LatencyParts lat;
    lat.compute_cycles = r.compute_cycles;
    lat.weight_fetch_cycles = ac.sram_read_weight_bits /
        static_cast<double>(cfg.memory.weight_port_bits);
    lat.act_fetch_cycles = ac.sram_read_act_bits /
        static_cast<double>(cfg.memory.act_port_bits);
    lat.dram_cycles = r.dram_cycles;
    lat.output_write_cycles =
        static_cast<double>(desc.output_count()) * kWordBits /
        static_cast<double>(cfg.memory.act_port_bits);
    r.weight_fetch_cycles = lat.weight_fetch_cycles;
    r.act_fetch_cycles = lat.act_fetch_cycles;
    r.output_write_cycles = lat.output_write_cycles;
    r.total_cycles = compose_latency(lat);

    EnergyActivity act;
    act.mac_units = macs * mac_energy_scale;
    act.e_mac_pj = tech.e_mac_bit_column_pj;
    act.sram_read_bits = ac.sram_read_weight_bits + ac.sram_read_act_bits;
    act.sram_write_bits =
        ac.sram_write_act_bits + ac.sram_write_weight_bits;
    act.reg_words = ac.reg_read_words + ac.reg_write_words;
    act.dram_bits = ac.dram_total_bits();
    act.cycles = r.total_cycles;
    r.energy = price_energy(act, tech, dram);
    return r;
}

const SpatialUnrolling &
select_su_cost_aware(const LayerDesc &desc,
                     const std::vector<SpatialUnrolling> &candidates,
                     const BitPlanes *planes, std::uint64_t content_hash,
                     const MappingCostConfig &cfg, const TechParams &tech,
                     const DramModel &dram)
{
    if (candidates.empty()) {
        fatal("select_su_cost_aware: empty candidate set");
    }
    const bool depthwise = desc.kind == LayerKind::kDepthwiseConv;
    const SpatialUnrolling *best = nullptr;
    double best_cycles = 0.0;
    for (const auto &su : candidates) {
        if (su.depthwise_only && !depthwise) {
            continue;
        }
        const double cycles =
            mapping_cost(desc, su, planes, content_hash, cfg, tech, dram)
                .total_cycles;
        if (best == nullptr || cycles < best_cycles) {
            best_cycles = cycles;
            best = &su;
        }
    }
    if (best == nullptr) {
        // Only depthwise-only SUs offered for a non-depthwise layer.
        return candidates.front();
    }
    return *best;
}

}  // namespace bitwave::search
