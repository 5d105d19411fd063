#include "sim/npu.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "compress/bcs.hpp"
#include "nn/reference.hpp"
#include "nn/synthesis.hpp"
#include "sim/bce.hpp"
#include "sim/zcip.hpp"

namespace bitwave {

NpuConfig::NpuConfig() : dataflows(bitwave_sus()) {}

double
LayerSimResult::mean_columns_per_group() const
{
    return group_passes > 0
        ? static_cast<double>(nonzero_columns_streamed) /
              static_cast<double>(group_passes)
        : 0.0;
}

BitWaveNpu::BitWaveNpu(NpuConfig config, const TechParams &tech,
                       const DramModel &dram)
    : config_(std::move(config)), tech_(tech), dram_(dram)
{
    if (const std::string why = dataflows_error(config_.dataflows);
        !why.empty()) {
        fatal("BitWaveNpu: %s", why.c_str());
    }
    const MemoryHierarchy &mem = config_.memory;
    if (mem.weight_sram_bytes < 1 || mem.act_sram_bytes < 1 ||
        mem.weight_port_bits < 1 || mem.act_port_bits < 1) {
        fatal("BitWaveNpu: SRAM size or port width < 1");
    }
}

LayerSimResult
BitWaveNpu::run_layer(const WorkloadLayer &layer, const Int8Tensor *input,
                      const Int8Tensor *weights, bool compute_output,
                      LayerContext ctx, std::uint64_t weights_hash) const
{
    if (compute_output && config_.repr != Representation::kSignMagnitude) {
        fatal("BitWaveNpu: functional execution requires sign-magnitude");
    }
    const Int8Tensor &w = weights != nullptr ? *weights : layer.weights;
    const LayerDesc &desc = layer.desc;
    const LayerDesc mapped = normalized_for_mapping(desc);

    // Pack (or fetch from the content-hash cache) the weight bit planes
    // once; SU selection, compression, cycle accounting and the
    // functional BCE pass all read columns straight out of them.
    const std::uint64_t content_hash =
        weights == nullptr ? layer.weights_hash : weights_hash;
    const auto planes = shared_bitplanes(w, config_.repr, content_hash);

    const SpatialUnrolling *selected = nullptr;
    if (config_.mapping_policy == search::MappingPolicy::kCostAware) {
        // The same offline cost-aware selection the analytical model
        // replays (search/cost.hpp), so both engines pick one SU.
        search::MappingCostConfig mcfg;
        mcfg.repr = config_.repr;
        mcfg.memory = config_.memory;
        mcfg.skip_zero_columns = !config_.dense_mode;
        mcfg.compress_weights = !config_.dense_mode;
        selected = &search::select_su_cost_aware(
            mapped, config_.dataflows, planes.get(), content_hash, mcfg,
            tech_, dram_);
    } else {
        selected = &select_su(mapped, config_.dataflows);
    }
    const SpatialUnrolling &su = *selected;

    // Group size: the SU's BCS group — the C unrolling for standard
    // layers, SU7's G unrolling (64) for depthwise. The analytical model
    // reads the same su.group_size(), but on depthwise layers the two
    // engines group different weights under it: SU7's group is 64
    // channels at one tap, while the sim's groups run along one
    // channel's 9 taps (weight_row_geometry()), so it counts 1/9 of the
    // model's compute cycles there (ROADMAP item 1).
    const int group_size =
        std::clamp(static_cast<int>(su.group_size()), 1, 64);

    LayerSimResult result;
    result.layer_name = desc.name;
    result.su_name = su.name;
    result.group_size = group_size;

    // The weight stream the fetcher reads: every kernel row splits into
    // row-aligned BCS groups (Section III-C), one index byte plus one
    // G-bit word per non-zero column each.
    const WeightRowGeometry geom = weight_row_geometry(desc);
    if (geom.rows * geom.row_len != planes->n) {
        fatal("BitWaveNpu: weight tensor does not match layer %s",
              desc.to_string().c_str());
    }
    const BcsCompressed stream =
        bcs_compress(*planes, w.shape(), group_size, geom.row_len);
    const std::int64_t groups_per_row = ceil_div(geom.row_len, group_size);
    const double bc = static_cast<double>(su.bit_columns);

    // ---- Cycle accounting over the temporal tile schedule ---------------
    const std::int64_t revisits = ceil_div(mapped.ox, su.factor(Dim::kOX)) *
        ceil_div(mapped.oy, su.factor(Dim::kOY)) * mapped.batch;
    const std::int64_t ku = su.factor(Dim::kK);
    const std::int64_t k_total = mapped.k;

    double decoupled = 0.0;
    double lockstep = 0.0;
    std::int64_t group_passes_once = 0;     // per single revisit
    std::int64_t nz_streamed_once = 0;
    std::int64_t weight_bits_once = 0;
    // Streamed columns times the weights each covers: a row's tail group
    // holds fewer than group_size weights when C is not a multiple of G.
    std::int64_t column_weights_once = 0;
    // Each group pass streams its columns plus, in sparse mode, its
    // one-byte zero-column index; dense mode streams no index.
    const std::int64_t index_bits = config_.dense_mode ? 0 : kWordBits;

    for (std::int64_t k0 = 0; k0 < k_total; k0 += ku) {
        const std::int64_t k1 = std::min<std::int64_t>(k0 + ku, k_total);
        double tile_work = 0.0;
        // All kernels in the tile share row structure (same layer), so
        // lockstep cost maxes over kernels per (row-in-kernel, group).
        for (std::int64_t f = 0; f < geom.rows_per_kernel; ++f) {
            for (std::int64_t g = 0; g < groups_per_row; ++g) {
                const std::int64_t len = std::min<std::int64_t>(
                    group_size, geom.row_len - g * group_size);
                double worst = 0.0;
                for (std::int64_t k = k0; k < k1; ++k) {
                    // The ZCIP's Sync.ctr: the group's streamed columns,
                    // all eight in dense mode.
                    const int nz = config_.dense_mode
                        ? kWordBits
                        : popcount8(stream.groups[static_cast<std::size_t>(
                              (k * geom.rows_per_kernel + f) *
                                  groups_per_row + g)].index);
                    const double cycles = std::max(
                        1.0, std::ceil(static_cast<double>(nz) / bc));
                    tile_work += cycles;
                    worst = std::max(worst, cycles);
                    ++group_passes_once;
                    nz_streamed_once += nz;
                    column_weights_once += nz * len;
                    weight_bits_once += index_bits +
                        static_cast<std::int64_t>(nz) * group_size;
                }
                lockstep += worst;
            }
        }
        decoupled += tile_work / static_cast<double>(k1 - k0);
    }

    const double rev = static_cast<double>(revisits);
    result.cycles_decoupled = decoupled * rev;
    result.cycles_lockstep = lockstep * rev;
    result.group_passes = group_passes_once * revisits;
    result.nonzero_columns_streamed = nz_streamed_once * revisits;
    // The fetcher's double buffer holds the active weight tile across
    // spatial revisits, so the compressed stream (columns + index)
    // crosses the SRAM weight port once per layer sweep — and DRAM once
    // per layer.
    result.weight_bits_fetched = weight_bits_once;
    result.weight_bits_dram = weight_bits_once;
    result.output_words = desc.output_count();

    // Activation fetches: one group-wide activation vector per k-tile
    // group pass, covering OXu output positions, re-fetched per revisit.
    const std::int64_t k_tiles = ceil_div(k_total, ku);
    result.act_bits_fetched = k_tiles * geom.rows_per_kernel *
        groups_per_row * group_size * su.factor(Dim::kOX) * kWordBits *
        revisits;

    // Activations cross DRAM only at the network boundary (the Fig. 16
    // residency assumption the analytical model applies): first layers
    // stream their input in, last layers drain their output.
    result.act_bits_dram =
        (ctx.first_layer ? desc.input_count() * kWordBits : 0) +
        (ctx.last_layer ? desc.output_count() * kWordBits : 0);

    // ---- SRAM / DRAM composition (Eq. 5) ---------------------------------
    const MemoryHierarchy &mem = config_.memory;
    result.act_fetch_cycles =
        static_cast<double>(result.act_bits_fetched) /
        static_cast<double>(mem.act_port_bits);
    result.dram_cycles = dram_.transfer_cycles(
        static_cast<double>(result.weight_bits_dram +
                            result.act_bits_dram));
    LatencyParts lat;
    lat.compute_cycles = result.cycles_decoupled;
    // The compressed weight stream (non-zero columns + ZCIP index)
    // occupies the physical weight port; fetch-bound layers pace on it
    // (the same accounting the analytical model applies).
    lat.weight_fetch_cycles =
        static_cast<double>(result.weight_bits_fetched) /
        static_cast<double>(mem.weight_port_bits);
    lat.act_fetch_cycles = result.act_fetch_cycles;
    lat.dram_cycles = result.dram_cycles;
    lat.output_write_cycles =
        static_cast<double>(result.output_words) * kWordBits /
        static_cast<double>(mem.act_port_bits);
    result.total_cycles = compose_latency(lat);

    // ---- Energy (shared Eq. 4 pricing) -----------------------------------
    EnergyActivity activity;
    // MAC-equivalents: each streamed column covers its group's weights'
    // worth of 1b work across OXu output positions; 8 columns = one full
    // 8b MAC per weight.
    activity.mac_units =
        static_cast<double>(column_weights_once * revisits) / 8.0 *
        static_cast<double>(su.factor(Dim::kOX));
    activity.e_mac_pj = tech_.e_mac_bit_column_pj;
    activity.sram_read_bits =
        static_cast<double>(result.weight_bits_fetched +
                            result.act_bits_fetched);
    // Writes: the output map; input streamed from DRAM, which lands in
    // the activation SRAM first; and the compressed weight stream's
    // DRAM -> SRAM refill. The model charges the same three.
    activity.sram_write_bits =
        static_cast<double>(result.output_words) * kWordBits +
        (ctx.first_layer
             ? static_cast<double>(desc.input_count()) * kWordBits : 0.0) +
        static_cast<double>(result.weight_bits_dram);
    // Registers: two operand reads and one accumulator write per MAC,
    // skipped bit columns or not.
    activity.reg_words = 3.0 * static_cast<double>(desc.macs());
    activity.dram_bits = static_cast<double>(result.weight_bits_dram +
                                             result.act_bits_dram);
    activity.cycles = result.total_cycles;
    result.energy = price_energy(activity, tech_, dram_);

    // ---- Functional execution through the BCE datapath -------------------
    if (compute_output) {
        Int8Tensor synthesized;
        const Int8Tensor *in = input;
        if (in == nullptr) {
            Rng rng(config_.act_seed);
            synthesized = synthesize_activations(
                layer_input_shape(desc), layer.activation_sparsity, 12.0,
                layer.activation_sparsity > 0.2, rng);
            in = &synthesized;
        }
        const std::int64_t iy_n = desc.iy(), ix_n = desc.ix();
        Int32Tensor out({desc.batch, desc.k, desc.oy, desc.ox});
        std::vector<std::int8_t> acts(static_cast<std::size_t>(group_size));
        std::vector<std::int32_t> accs(static_cast<std::size_t>(desc.k));
        const bool depthwise = desc.kind == LayerKind::kDepthwiseConv;

        // The ZCIP parses each group's index, and the BCE reads the
        // stream's own columns. Dense mode takes the same path: the
        // columns it would add are zero and contribute nothing.
        const ZeroColumnIndexParser zcip;
        const auto group_pass = [&](std::span<const std::int8_t> acts_in,
                                    std::int64_t row, std::int64_t g) {
            const BcsGroup &grp = stream.groups[static_cast<std::size_t>(
                row * groups_per_row + g)];
            // Columns are stored in ascending bit order: the data columns
            // first, then the sign column when index bit 7 is set.
            const ZcipDecode decode = zcip.parse(grp.index);
            return bce_group_pass(
                acts_in, decode, {grp.columns.data(), decode.shifts.size()},
                decode.sign_request ? grp.columns.back() : 0);
        };

        // Batched gathers: for standard layers a group's activation
        // vector depends only on (b, oy, ox, f, g), so it is gathered
        // ONCE per group pass and broadcast to all K kernel rows — the
        // Ku-lane activation reuse of the real dispatcher — instead of
        // re-gathering per output channel. Depthwise taps address the
        // per-channel plane, so they keep the per-kernel gather.
        for (std::int64_t b = 0; b < desc.batch; ++b) {
            for (std::int64_t oy = 0; oy < desc.oy; ++oy) {
                for (std::int64_t ox = 0; ox < desc.ox; ++ox) {
                    std::fill(accs.begin(), accs.end(), 0);
                    for (std::int64_t f = 0; f < geom.rows_per_kernel;
                         ++f) {
                        const std::int64_t fy = f / desc.fx;
                        const std::int64_t fx = f % desc.fx;
                        for (std::int64_t g = 0; g < groups_per_row;
                             ++g) {
                            const std::int64_t c0 = g * group_size;
                            const std::int64_t len =
                                std::min<std::int64_t>(
                                    group_size, geom.row_len - c0);
                            if (!depthwise) {
                                for (std::int64_t j = 0; j < len; ++j) {
                                    std::int64_t idx = 0;
                                    switch (desc.kind) {
                                      case LayerKind::kConv:
                                      case LayerKind::kPointwiseConv: {
                                        const std::int64_t iy =
                                            oy * desc.stride + fy;
                                        const std::int64_t ix =
                                            ox * desc.stride + fx;
                                        idx = ((b * desc.c + c0 + j) *
                                               iy_n + iy) * ix_n + ix;
                                        break;
                                      }
                                      default:  // kLinear / kLstm
                                        idx = b * desc.c + c0 + j;
                                        break;
                                    }
                                    acts[static_cast<std::size_t>(j)] =
                                        (*in)[idx];
                                }
                            }
                            for (std::int64_t k = 0; k < desc.k; ++k) {
                                if (depthwise) {
                                    for (std::int64_t j = 0; j < len;
                                         ++j) {
                                        const std::int64_t tap = c0 + j;
                                        const std::int64_t iy =
                                            oy * desc.stride +
                                            tap / desc.fx;
                                        const std::int64_t ix =
                                            ox * desc.stride +
                                            tap % desc.fx;
                                        acts[static_cast<std::size_t>(
                                            j)] =
                                            (*in)[((b * desc.k + k) *
                                                   iy_n + iy) * ix_n +
                                                  ix];
                                    }
                                }
                                accs[static_cast<std::size_t>(k)] +=
                                    group_pass(
                                        {acts.data(),
                                         static_cast<std::size_t>(len)},
                                        k * geom.rows_per_kernel + f, g);
                            }
                        }
                    }
                    for (std::int64_t k = 0; k < desc.k; ++k) {
                        out[((b * desc.k + k) * desc.oy + oy) * desc.ox +
                            ox] = accs[static_cast<std::size_t>(k)];
                    }
                }
            }
        }
        result.output = std::move(out);
    }
    return result;
}

}  // namespace bitwave
