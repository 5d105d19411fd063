#include "model/performance.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <variant>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
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
LruCache<std::uint64_t, WeightStatValue> &
weight_stat_memo()
{
    static LruCache<std::uint64_t, WeightStatValue> memo(4096,
                                                         "baseline_stats");
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

std::string
model_config_error(const AcceleratorConfig &config)
{
    const SparsityMode mode = config.sparsity;
    const bool serial = config.style == ComputeStyle::kBitSerial;
    const bool columns = config.style == ComputeStyle::kBitColumnSerial;
    if (std::string why = dataflows_error(config.dataflows); !why.empty()) {
        return why;
    }
    const MemoryHierarchy &mem = config.memory;
    if (mem.weight_sram_bytes < 1 || mem.act_sram_bytes < 1 ||
        mem.weight_port_bits < 1 || mem.act_port_bits < 1) {
        return "SRAM size or port width < 1";
    }
    if (serial && ((mode == SparsityMode::kWeightBit && config.sync_lanes < 1)
                   || (mode == SparsityMode::kWeightBitInterleaved &&
                       config.interleave_window < 1))) {
        return "sync_lanes or interleave_window < 1";
    }
    if (mode != SparsityMode::kNone &&
        (mode == SparsityMode::kWeightBitColumn) != columns) {
        return "sparsity mode the compute style cannot skip";
    }
    if (!columns) {
        return {};
    }
    // search::mapping_cost prices bit-column machines and reads none of
    // the baseline-only knobs.
    if (config.compress_acts || config.accumulator_banks ||
        config.planar_crossbar || config.e_lane_overhead_pj != 0.0) {
        return "baseline-only knob on a bit-column machine";
    }
    for (const auto &su : config.dataflows) {
        if ((mode != SparsityMode::kNone || config.compress_weights) &&
            (su.group_size() < 1 || su.group_size() > 64)) {
            return su.name + ": BCS group size out of [1, 64]";
        }
    }
    return {};
}

AcceleratorModel::AcceleratorModel(AcceleratorConfig config,
                                   const TechParams &tech,
                                   const DramModel &dram)
    : config_(std::move(config)), tech_(tech), dram_(dram)
{
    if (const std::string why = model_config_error(config_); !why.empty()) {
        fatal("AcceleratorModel: %s: %s", config_.name.c_str(),
              why.c_str());
    }
}

LayerResult
AcceleratorModel::model_layer(const WorkloadLayer &layer,
                              const Int8Tensor *weights, LayerContext ctx,
                              std::uint64_t weights_hash) const
{
    const Int8Tensor &w = weights != nullptr ? *weights : layer.weights;
    // Matmul layers map their token batch onto OX (im2col view) on
    // every machine. On SCNN's planar-tiled dataflow that view leaves
    // the OXu x OYu crossbar token-starved, which is what sinks it on
    // LSTM/BERT (the starvation factor below).
    const LayerDesc desc = normalized_for_mapping(layer.desc);

    LayerResult r;
    r.layer_name = desc.name;

    // Content identity of the evaluated tensor for the shared
    // content-hash caches (bit planes, column statistics, baseline weight
    // statistics).
    const std::uint64_t content_hash =
        weights == nullptr ? layer.weights_hash : weights_hash;

    if (config_.style == ComputeStyle::kBitColumnSerial) {
        // STEP1-STEP4 of a bit-column machine are the mapping cost
        // model's, the same pricing cost-aware selection ranks by.
        search::MappingCostConfig mcfg;
        mcfg.repr = config_.weight_repr;
        mcfg.memory = config_.memory;
        mcfg.skip_zero_columns =
            config_.sparsity == SparsityMode::kWeightBitColumn;
        mcfg.compress_weights = config_.compress_weights;
        mcfg.layer_sequential_dram = config_.layer_sequential_dram;
        // Shared packed bit planes from the content-hash cache, so
        // sweeps over the same weights never re-pack; dense pricing
        // reads none.
        std::shared_ptr<const BitPlanes> planes;
        if (mcfg.skip_zero_columns || mcfg.compress_weights) {
            planes = shared_bitplanes(w, config_.weight_repr, content_hash);
        }
        // Selection prices every candidate as an interior layer, so the
        // chosen SU is a property of (layer, machine).
        const SpatialUnrolling &su =
            config_.mapping_policy == search::MappingPolicy::kCostAware
            ? search::select_su_cost_aware(desc, config_.dataflows,
                                           planes.get(), content_hash,
                                           mcfg, tech_, dram_)
            : select_su(desc, config_.dataflows);
        mcfg.input_from_dram = ctx.first_layer;
        mcfg.output_to_dram = ctx.last_layer;
        const search::MappingCost c = search::mapping_cost(
            desc, su, planes.get(), content_hash, mcfg, tech_, dram_);
        r.su_name = su.name;
        r.utilization = c.utilization;
        r.compute_cycles = c.compute_cycles;
        r.dram_cycles = c.dram_cycles;
        r.total_cycles = c.total_cycles;
        r.energy = c.energy;
        r.weight_fetch_ratio = c.weight_fetch_ratio;
        r.cycles_per_group = c.cycles_per_group;
        return r;
    }

    // ---- STEP1: dataflow selection & dense activity ----------------------
    const SpatialUnrolling &su = select_su(desc, config_.dataflows);
    r.su_name = su.name;
    r.utilization = spatial_utilization(desc, su);
    const double macs = static_cast<double>(desc.macs());
    const std::int64_t iterations = temporal_iterations(desc, su);

    // ---- STEP2: sparsity statistics (memoized by content) ----------------
    const double sw = config_.sparsity == SparsityMode::kValue
        ? weight_sparsity(w, content_hash).value_sparsity() : 0.0;
    const double sa = layer.activation_sparsity;

    // ---- STEP3: effective compute ----------------------------------------
    // Cycles each spatial tile occupies the array: one on bit-parallel
    // machines, the serialized weight bits on bit-serial ones.
    double cycles_per_pass = 1.0;
    double mac_energy_scale = 1.0;    // fraction of bit work actually done
    double e_mac_pj = tech_.e_mac_bit_parallel_pj;
    if (config_.style == ComputeStyle::kBitSerial) {
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
    const bool matmul = layer.desc.kind == LayerKind::kLinear ||
        layer.desc.kind == LayerKind::kLstm;
    if (config_.planar_crossbar && matmul) {
        // Conv-specialized machines run matmuls as degenerate 1x1
        // convolutions; the planar output tile starves when the token
        // batch cannot fill the OXu x OYu crossbar (BERT's 4 tokens vs
        // a 64-position tile) and conflicts grow with the fill deficit.
        // Exponent calibrated against the paper's Fig. 14 CNN-LSTM and
        // Bert-Base bars (together with make_scnn()'s value_imbalance).
        const double positions = static_cast<double>(
            su.factor(Dim::kOX) * su.factor(Dim::kOY));
        const double tokens = std::clamp(
            static_cast<double>(desc.ox), 1.0, positions);
        starvation =
            std::pow(positions / tokens, kPlanarStarvationExponent);
        compute_cycles *= starvation;
    }
    r.compute_cycles = compute_cycles;
    r.cycles_per_group = cycles_per_pass;

    // Effective MACs (Eq. 1) for energy pricing.
    double effective_macs = macs;
    if (config_.sparsity == SparsityMode::kValue) {
        effective_macs = macs * (1.0 - sw) * (1.0 - sa);
    }

    // ---- Compression factors ---------------------------------------------
    CompressionFactors cf;
    if (config_.compress_weights &&
        config_.sparsity == SparsityMode::kValue) {
        cf.weight_fetch_ratio = 1.0 / zre_compression_ratio(w, content_hash);
        // 12-bit ZRE entries for the (1 - Sw) surviving weights.
        cf.weight_sram_overhead = (1.0 - sw) * 12.0 / 8.0;
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
    // Active fetch rate is bounded by the physical weight port.
    exec.weight_port_active_bits = std::min(
        static_cast<double>(su.weight_bandwidth_bits()) *
            static_cast<double>(su.bit_columns),
        static_cast<double>(config_.memory.weight_port_bits));
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

    // ---- Baseline-machine activity ---------------------------------------
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

}  // namespace bitwave
