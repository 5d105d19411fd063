#include "model/performance.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <variant>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "compress/bcs.hpp"
#include "compress/zre.hpp"
#include "search/cost.hpp"
#include "sparsity/stats.hpp"
#include "tensor/bitplane.hpp"

namespace bitwave {

namespace {

/// The weight statistics the value- and bit-sparsity machines read.
enum class WeightStat { kSparsity, kSyncCycles, kInterleaveCycles, kZreRatio };

using WeightStatValue = std::variant<SparsityStats, double>;

/// One cache for every statistic: scalars only (never a ZRE stream).
ShardedLruCache<std::uint64_t, WeightStatValue> &
weight_stat_memo()
{
    static ShardedLruCache<std::uint64_t, WeightStatValue> memo(
        4096, 0, "baseline_stats");
    return memo;
}

/**
 * Statistic @p stat of @p w, served from the process-wide content-hash
 * memo (cache.baseline_stats). The key is the tensor's content and
 * element count, the statistic, and exactly the arguments its kernel
 * takes (@p kernel_args) — never AcceleratorConfig fields, so every
 * machine reading a statistic with the same arguments shares one scan.
 * @p content_hash 0 computes uncached.
 */
template <typename T, typename Build>
T
memoized(WeightStat stat, const Int8Tensor &w, std::uint64_t content_hash,
         std::initializer_list<std::uint64_t> kernel_args, Build &&build)
{
    if (content_hash == 0) {
        return build();
    }
    std::uint64_t key = hash_combine(
        content_hash, static_cast<std::uint64_t>(w.numel()));
    key = hash_combine(key, static_cast<std::uint64_t>(stat));
    for (const std::uint64_t arg : kernel_args) {
        key = hash_combine(key, arg);
    }
    return std::get<T>(*weight_stat_memo().get_or_build(
        key, [&] { return WeightStatValue(build()); }));
}

SparsityStats
weight_sparsity(const Int8Tensor &w, std::uint64_t content_hash)
{
    return memoized<SparsityStats>(WeightStat::kSparsity, w, content_hash,
                                   {}, [&] { return compute_sparsity(w); });
}

double
sync_cycles(const Int8Tensor &w, std::int64_t lanes, Representation repr,
            std::uint64_t content_hash)
{
    return memoized<double>(
        WeightStat::kSyncCycles, w, content_hash,
        {static_cast<std::uint64_t>(lanes),
         static_cast<std::uint64_t>(repr)},
        [&] { return bit_serial_sync_cycles(w, lanes, repr); });
}

double
interleave_cycles(const Int8Tensor &w, std::int64_t window,
                  Representation repr, std::uint64_t content_hash)
{
    return memoized<double>(
        WeightStat::kInterleaveCycles, w, content_hash,
        {static_cast<std::uint64_t>(window),
         static_cast<std::uint64_t>(repr)},
        [&] { return bit_interleave_cycles(w, window, repr); });
}

double
zre_compression_ratio(const Int8Tensor &w, std::uint64_t content_hash)
{
    return memoized<double>(
        WeightStat::kZreRatio, w, content_hash, {},
        [&] { return zre_compress(w).compression_ratio(); });
}

}  // namespace

double
WorkloadResult::runtime_ms(const TechParams &tech) const
{
    return total_cycles / tech.frequency_hz * 1e3;
}

double
WorkloadResult::gops(const TechParams &tech) const
{
    const double seconds = total_cycles / tech.frequency_hz;
    return seconds > 0
        ? static_cast<double>(nominal_macs) * 2.0 / seconds / 1e9 : 0.0;
}

double
WorkloadResult::tops_per_watt() const
{
    return energy.total_pj > 0
        ? static_cast<double>(nominal_macs) * 2.0 / energy.total_pj : 0.0;
}

AcceleratorModel::AcceleratorModel(AcceleratorConfig config,
                                   const TechParams &tech,
                                   const DramModel &dram)
    : config_(std::move(config)), tech_(tech), dram_(dram)
{
    if (config_.dataflows.empty()) {
        fatal("AcceleratorModel: %s has no dataflows",
              config_.name.c_str());
    }
}

LayerResult
AcceleratorModel::model_layer(const WorkloadLayer &layer,
                              const Int8Tensor *weights, LayerContext ctx,
                              std::uint64_t weights_hash) const
{
    const Int8Tensor &w = weights != nullptr ? *weights : layer.weights;
    // Matmul layers map their token batch onto OX (im2col view) on
    // machines whose dataflow supports it (SCNN's planar-tiled conv
    // dataflow does not, which is what sinks it on LSTM/BERT).
    const LayerDesc desc = config_.map_batch_to_ox
        ? normalized_for_mapping(layer.desc) : layer.desc;

    LayerResult r;
    r.layer_name = desc.name;

    // Content identity of the evaluated tensor for the shared
    // content-hash caches (bit planes, cycle stats, BCS sizes, baseline
    // weight statistics).
    const std::uint64_t content_hash =
        weights == nullptr ? layer.weights_hash : weights_hash;

    // Shared packed bit planes for the bit-column kernels, fetched (or
    // packed once) from the content-hash cache so scenario sweeps over
    // the same weights never re-pack. Lazy: baseline machines that never
    // touch bit columns never pay for packing.
    std::shared_ptr<const BitPlanes> planes;
    const auto weight_planes = [&]() -> const BitPlanes & {
        if (!planes) {
            planes = shared_bitplanes(w, config_.weight_repr,
                                      content_hash);
        }
        return *planes;
    };

    // ---- STEP1: dataflow selection & dense activity ----------------------
    const SpatialUnrolling *selected = nullptr;
    if (config_.mapping_policy == search::MappingPolicy::kCostAware &&
        config_.style == ComputeStyle::kBitColumnSerial) {
        // ZigZag-style cost-aware selection: rank candidates by the
        // mapping cost model's Eq. (5) latency instead of bare spatial
        // utilization (fetch-bound layers pick leaner streams).
        search::MappingCostConfig mcfg;
        mcfg.repr = config_.weight_repr;
        mcfg.memory = config_.memory;
        mcfg.skip_zero_columns =
            config_.sparsity == SparsityMode::kWeightBitColumn;
        mcfg.compress_weights = config_.compress_weights;
        mcfg.layer_sequential_dram = config_.layer_sequential_dram;
        const BitPlanes *pp =
            mcfg.skip_zero_columns || mcfg.compress_weights
                ? &weight_planes() : nullptr;
        selected = &search::select_su_cost_aware(
            desc, config_.dataflows, pp, content_hash, mcfg, tech_,
            dram_);
    } else {
        selected = &select_su(desc, config_.dataflows);
    }
    const SpatialUnrolling &su = *selected;
    r.su_name = su.name;
    r.utilization = spatial_utilization(desc, su);
    const double macs = static_cast<double>(desc.macs());
    const std::int64_t iterations = temporal_iterations(desc, su);

    // ---- STEP2: sparsity statistics --------------------------------------
    // Only the value/bit-sparsity machines read them (memoized by
    // content); the bit-column machines derive everything from the
    // packed planes.
    const double sw = config_.sparsity == SparsityMode::kValue
        ? weight_sparsity(w, content_hash).value_sparsity() : 0.0;
    const double sa = layer.activation_sparsity;

    // ---- STEP3: effective compute ----------------------------------------
    // Cycles each spatial tile occupies the array, by compute style.
    double cycles_per_pass = 1.0;     // bit-parallel default
    double mac_energy_scale = 1.0;    // fraction of bit work actually done
    double e_mac_pj = tech_.e_mac_bit_parallel_pj;
    // Mean streamed columns per weight group (BCS machines only; 0
    // selects the port-based weight-traffic accounting).
    double mean_columns_per_group = 0.0;

    switch (config_.style) {
      case ComputeStyle::kBitParallel:
        cycles_per_pass = 1.0;
        break;
      case ComputeStyle::kBitSerial:
        e_mac_pj = tech_.e_mac_bit_serial_pj;
        if (config_.sparsity == SparsityMode::kWeightBit) {
            cycles_per_pass = sync_cycles(w, config_.sync_lanes,
                                          config_.weight_repr, content_hash);
            const SparsityStats stats = weight_sparsity(w, content_hash);
            mac_energy_scale = 1.0 - stats.bit_sparsity(config_.weight_repr);
        } else if (config_.sparsity ==
                   SparsityMode::kWeightBitInterleaved) {
            // Bitlet: cycles bounded by the worst-loaded significance of
            // each interleaving window.
            const double window_cycles =
                interleave_cycles(w, config_.interleave_window,
                                  config_.weight_repr, content_hash);
            cycles_per_pass = window_cycles * 8.0 /
                static_cast<double>(config_.interleave_window) *
                config_.interleave_overhead;
            const SparsityStats stats = weight_sparsity(w, content_hash);
            mac_energy_scale = 1.0 - stats.bit_sparsity(config_.weight_repr);
        } else {
            cycles_per_pass = 8.0;  // Stripes: all bits, every time.
        }
        break;
      case ComputeStyle::kBitColumnSerial:
        e_mac_pj = tech_.e_mac_bit_column_pj;
        if (config_.sparsity == SparsityMode::kWeightBitColumn) {
            // Compressed columns stream directly into the array; the
            // fetcher's double buffering decouples group boundaries, so
            // throughput follows the MEAN occupancy (the sync-limited
            // variant is exercised by the ablation bench).
            const auto cc = search::cached_cycle_stats(
                weight_planes(), desc, static_cast<int>(su.group_size()),
                su.factor(Dim::kK), content_hash);
            cycles_per_pass = cc->mean_ceil_cycles(su.bit_columns);
            mac_energy_scale = cc->mean_cycles_per_group / 8.0;
            mean_columns_per_group = cc->mean_cycles_per_group;
        } else {
            // Dense mode: all 8 columns, bit_columns per cycle.
            cycles_per_pass =
                8.0 / static_cast<double>(su.bit_columns);
            mean_columns_per_group = 8.0;
        }
        break;
    }

    double compute_cycles =
        static_cast<double>(iterations) * cycles_per_pass;
    double value_skip = 1.0;
    if (config_.sparsity == SparsityMode::kValue) {
        // Eq. (1) with the load-imbalance adjustment of STEP2. The
        // product is deliberately NOT capped at 1: on low-sparsity
        // layers the Cartesian-product scheduling and output-crossbar
        // conflicts make value-skipping machines *slower* than a dense
        // array (the SCNN pathology behind the paper's Fig. 14, where
        // every baseline outruns SCNN on the benchmark suite).
        value_skip = (1.0 - sw) * (1.0 - sa) * config_.value_imbalance;
        compute_cycles *= value_skip;
    }
    // Crossbar starvation multiplier of matmul tiles (> 1 only on
    // planar-crossbar machines); the energy side charges the conflict
    // share of the resulting cycles as arbitration churn below.
    double starvation = 1.0;
    if (layer.desc.kind == LayerKind::kLinear ||
        layer.desc.kind == LayerKind::kLstm) {
        double penalty = config_.matmul_penalty;
        if (config_.planar_crossbar) {
            // Conv-specialized machines run matmuls as degenerate 1x1
            // convolutions; the planar output tile starves when the
            // token batch cannot fill the OXu x OYu crossbar (BERT's 4
            // tokens vs a 64-position tile) and conflicts grow with the
            // fill deficit. Exponent calibrated against the paper's
            // Fig. 14 CNN-LSTM and Bert-Base bars (together with
            // make_scnn()'s value_imbalance).
            const double positions = static_cast<double>(
                su.factor(Dim::kOX) * su.factor(Dim::kOY));
            const double tokens = std::clamp(
                static_cast<double>(desc.ox), 1.0, positions);
            starvation = std::pow(positions / tokens,
                                  kPlanarStarvationExponent);
            penalty *= starvation;
        }
        compute_cycles *= penalty;
    }
    r.compute_cycles = compute_cycles;
    r.cycles_per_group = cycles_per_pass;

    // Effective MACs (Eq. 1) for energy pricing.
    double effective_macs = macs;
    if (config_.sparsity == SparsityMode::kValue) {
        effective_macs = macs * (1.0 - sw) * (1.0 - sa);
    }
    r.effective_macs = effective_macs;

    // ---- Compression factors ---------------------------------------------
    CompressionFactors cf;
    if (config_.compress_weights) {
        if (config_.sparsity == SparsityMode::kWeightBitColumn) {
            const auto compressed = search::cached_bcs_size(
                weight_planes(), static_cast<int>(su.group_size()),
                content_hash);
            cf.weight_fetch_ratio = 1.0 / compressed->compression_ratio();
            // BCS fetch savings come from skipped column cycles; the
            // remaining on-chip overhead is the 8b index per group.
            cf.weight_sram_overhead = 1.0 +
                static_cast<double>(kWordBits) /
                    (cycles_per_pass *
                     static_cast<double>(su.group_size()));
        } else if (config_.sparsity == SparsityMode::kValue) {
            cf.weight_fetch_ratio =
                1.0 / zre_compression_ratio(w, content_hash);
            // 12-bit ZRE entries for the (1 - Sw) surviving weights.
            cf.weight_sram_overhead = (1.0 - sw) * 12.0 / 8.0;
        }
    }
    if (config_.compress_acts) {
        // Analytic ZRE on activations: (1 - Sa) entries of 12 bits each,
        // plus closing entries for long zero runs.
        const double entries = (1.0 - sa) + sa / 15.0;
        cf.act_fetch_ratio = std::max(entries * 12.0 / 8.0, 0.05);
        cf.act_store_ratio = cf.act_fetch_ratio;
        cf.act_sram_overhead = cf.act_fetch_ratio;
    }
    r.weight_fetch_ratio = cf.weight_fetch_ratio;

    // ---- Memory activity & Eq. (5) latency --------------------------------
    ExecutionProfile exec;
    exec.utilization = r.utilization;
    exec.compute_cycles = r.compute_cycles;
    // Active fetch rate is bounded by the physical weight port (Table I:
    // every BitWave SU keeps W BW <= 1024 bits/cycle).
    exec.weight_port_active_bits = std::min(
        static_cast<double>(su.weight_bandwidth_bits()) *
            static_cast<double>(su.bit_columns),
        static_cast<double>(config_.memory.weight_port_bits));
    if (mean_columns_per_group > 0.0) {
        // Bit-column machines stream exactly the (compressed) column
        // payload plus the 8-bit ZCIP index per weight group, ONCE per
        // layer sweep — the fetcher's double buffer holds the active
        // tile across spatial revisits. The identical accounting runs
        // in BitWaveNpu::run_layer, which is what keeps sim-vs-model
        // agreement on fetch-bound layers.
        std::int64_t rows = 0, row_len = 1;
        switch (layer.desc.kind) {
          case LayerKind::kConv:
          case LayerKind::kPointwiseConv:
            rows = layer.desc.k * layer.desc.fy * layer.desc.fx;
            row_len = layer.desc.c;
            break;
          case LayerKind::kDepthwiseConv:
            rows = layer.desc.k;
            row_len = layer.desc.fy * layer.desc.fx;
            break;
          case LayerKind::kLinear:
          case LayerKind::kLstm:
            rows = layer.desc.k;
            row_len = layer.desc.c;
            break;
        }
        const double groups = static_cast<double>(
            rows * ceil_div(row_len, su.group_size()));
        exec.weight_stream_bits = groups *
            (mean_columns_per_group *
                 static_cast<double>(su.group_size()) +
             kWordBits);
    }
    exec.weight_stationary = config_.style == ComputeStyle::kBitParallel;
    exec.c_tiles = ceil_div(desc.c, su.factor(Dim::kC));
    exec.psum_in_accumulators = config_.accumulator_banks;
    // BitWave keeps intermediate feature maps on chip (depth-first halo
    // tiling); only the network input and output cross DRAM. The
    // baselines' layer-sequential schedules instead spill the
    // non-resident excess of every map that overflows the activation
    // SRAM. Each layer prices its own view of the tensor: the consumer
    // side includes the conv halo/padding extent, so its read bits can
    // slightly exceed the producer's written bits — deliberate (the
    // halo is re-fetched traffic), and part of the Fig. 15-calibrated
    // accounting.
    const auto spill_fraction = [&](std::int64_t elements) {
        return config_.layer_sequential_dram
            ? activation_spill_fraction(elements, config_.memory) : 0.0;
    };
    exec.input_dram_fraction =
        ctx.first_layer ? 1.0 : spill_fraction(desc.input_count());
    exec.output_dram_fraction =
        ctx.last_layer ? 1.0 : spill_fraction(desc.output_count());

    const AccessCounts ac =
        compute_access_counts(desc, su, config_.memory, cf, exec);
    r.dram_cycles = dram_.transfer_cycles(ac.dram_total_bits());

    LatencyParts lat;
    lat.compute_cycles = r.compute_cycles;
    lat.weight_fetch_cycles = ac.sram_read_weight_bits /
        static_cast<double>(config_.memory.weight_port_bits);
    lat.act_fetch_cycles = ac.sram_read_act_bits /
        static_cast<double>(config_.memory.act_port_bits);
    lat.dram_cycles = r.dram_cycles;
    lat.output_write_cycles =
        static_cast<double>(desc.output_count()) * kWordBits /
        static_cast<double>(config_.memory.act_port_bits);
    r.total_cycles = compose_latency(lat);

    // ---- STEP4: energy (Eq. 4), shared pricing core ----------------------
    EnergyActivity act;
    act.mac_units = effective_macs * mac_energy_scale;
    act.e_mac_pj = e_mac_pj;
    act.sram_read_bits = ac.sram_read_weight_bits + ac.sram_read_act_bits;
    act.sram_write_bits = ac.sram_write_act_bits + ac.sram_write_weight_bits;
    act.reg_words = ac.reg_read_words + ac.reg_write_words;
    act.dram_bits = ac.dram_total_bits();
    // Static/clock-tree energy accrues with runtime: slow mappings pay.
    act.cycles = r.total_cycles;

    // ---- Baseline-machine activity (all zero for BitWave configs) -------
    if (config_.accumulator_banks) {
        // Every Cartesian product performs a 32b read-modify-write in
        // the crossbar-fed accumulator banks (conflict replays are
        // charged separately via the crossbar term).
        act.accbank_bits = effective_macs * 2.0 * 32.0;
    }
    if (config_.planar_crossbar && starvation > 1.0) {
        // Token-starved matmul tiles: each surviving product re-issues
        // into the contended OXu x OYu crossbar (starvation - 1) extra
        // times on average, and every replay re-arbitrates the full
        // output-port set. Unit energy calibrated against the paper's
        // Fig. 15 SCNN / Bert-Base anchor (~2 pJ per crossbar port per
        // replayed product).
        act.crossbar_replays = effective_macs * (starvation - 1.0);
        act.e_crossbar_pj = config_.e_crossbar_conflict_pj;
    }
    if (config_.e_lane_overhead_pj > 0.0) {
        // Bit-serial shift registers / sync / online scheduling churn.
        act.lane_overhead_cycles =
            r.compute_cycles * static_cast<double>(su.total_lanes());
        act.e_lane_overhead_pj = config_.e_lane_overhead_pj;
    }
    if (config_.sparsity == SparsityMode::kValue &&
        (config_.compress_weights || config_.compress_acts)) {
        // ZRE codec: every stored-form word crossing DRAM is encoded or
        // decoded by the sparse codec pipeline.
        act.codec_words = ac.dram_total_bits() / kWordBits;
    }
    r.energy = price_energy(act, tech_, dram_);
    return r;
}

WorkloadResult
AcceleratorModel::model_workload(const Workload &workload,
                                 const std::vector<Int8Tensor> *weights)
    const
{
    validated_weight_override(workload, weights, "model_workload");
    WorkloadResult out;
    out.accelerator = config_.name;
    out.workload = workload.name;
    out.nominal_macs = workload.total_macs();
    for_each_layer(
        workload, weights,
        [&](std::size_t, const WorkloadLayer &layer, const Int8Tensor *w,
            const LayerContext &ctx) {
            LayerResult lr = model_layer(layer, w, ctx);
            out.total_cycles += lr.total_cycles;
            out.energy += lr.energy;
            out.layers.push_back(std::move(lr));
        });
    return out;
}

}  // namespace bitwave
