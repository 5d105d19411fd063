#include "dataflow/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "sparsity/bitcolumn.hpp"

namespace bitwave {

double
ColumnCycleStats::mean_ceil_cycles(int bit_columns) const
{
    if (groups == 0 || bit_columns < 1) {
        return mean_cycles_per_group;
    }
    double total = 0.0;
    for (int nz = 0; nz <= 8; ++nz) {
        const double cycles = std::max(
            1.0, std::ceil(static_cast<double>(nz) /
                           static_cast<double>(bit_columns)));
        total += cycles * static_cast<double>(occupancy_hist[nz]);
    }
    return total / static_cast<double>(groups);
}

namespace {

/// Element-at-a-time tail of the cycle statistics (mean and
/// lockstep-synchronized occupancy from the per-(row, group) index
/// masks) — the oracle reference for the word-parallel tail below,
/// used by column_cycle_stats_scalar.
ColumnCycleStats
cycle_stats_from_indexes(const std::vector<std::uint8_t> &idx,
                         const LayerDesc &desc, std::int64_t rows,
                         std::int64_t groups_per_row, std::int64_t ku)
{
    ColumnCycleStats stats;
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t fyx = desc.fy * desc.fx;

    // Mean occupancy.
    std::int64_t total_nz = 0;
    for (auto i : idx) {
        const int nz = popcount8(i);
        total_nz += nz;
        ++stats.occupancy_hist[nz];
    }
    stats.groups = rows * groups_per_row;
    stats.mean_cycles_per_group = stats.groups > 0
        ? static_cast<double>(total_nz) / static_cast<double>(stats.groups)
        : 0.0;

    // Synchronized occupancy: kernels (the K axis) advance in lockstep in
    // tiles of ku; rows interleave K and FY*FX, with K outermost, so the
    // kernels synchronized on one (fy, fx, c-group) position are rows
    // {k * fyx + f : k in tile}.
    const std::int64_t k_rows = has_c_axis ? desc.k : 1;
    const std::int64_t f_rows = has_c_axis ? rows / std::max<std::int64_t>(
        k_rows, 1) : 1;
    double sync_total = 0.0;
    std::int64_t sync_steps = 0;
    for (std::int64_t k0 = 0; k0 < k_rows; k0 += ku) {
        const std::int64_t k1 = std::min<std::int64_t>(k0 + ku, k_rows);
        for (std::int64_t f = 0; f < f_rows; ++f) {
            for (std::int64_t g = 0; g < groups_per_row; ++g) {
                int worst = 0;
                for (std::int64_t k = k0; k < k1; ++k) {
                    const std::int64_t row = k * fyx + f;
                    worst = std::max(
                        worst,
                        popcount8(idx[static_cast<std::size_t>(
                            row * groups_per_row + g)]));
                }
                sync_total += worst;
                ++sync_steps;
            }
        }
    }
    stats.sync_cycles_per_group = sync_steps > 0
        ? sync_total / static_cast<double>(sync_steps)
        : stats.mean_cycles_per_group;
    return stats;
}

}  // namespace

// ---- Word-parallel tail (the packed path) -------------------------------
//
// The per-(row, group) masks are bytes, so eight groups process per
// 64-bit word: popcounts via the classic SWAR ladder, and the lockstep
// max-reduction as a per-byte unsigned maximum accumulated over the Ku
// kernels of a tile (each kernel's rows_per_kernel x groups block is
// contiguous in the mask array). All partial sums are exact integers,
// so the result is bit-identical to the scalar tail above, which stays
// behind column_cycle_stats_scalar as the oracle.

namespace {

/// Per-byte popcount of 8 packed masks.
inline std::uint64_t
popcount_bytes(std::uint64_t v)
{
    v = v - ((v >> 1) & 0x5555555555555555ULL);
    v = (v & 0x3333333333333333ULL) +
        ((v >> 2) & 0x3333333333333333ULL);
    return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/// Per-byte unsigned max; valid while every byte is < 0x80 (group
/// popcounts are <= 8).
inline std::uint64_t
bytemax(std::uint64_t x, std::uint64_t y)
{
    const std::uint64_t kHi = 0x8080808080808080ULL;
    // Byte b of ge is 1 exactly when x_b >= y_b.
    const std::uint64_t ge = (((x | kHi) - y) & kHi) >> 7;
    const std::uint64_t mask = (ge * 0x7FULL) | (ge << 7);
    return (x & mask) | (y & ~mask);
}

/// Unaligned 8-byte load / store.
inline std::uint64_t
load_u64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store_u64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

ColumnCycleStats
cycle_stats_from_indexes_swar(const std::vector<std::uint8_t> &idx,
                              const LayerDesc &desc, std::int64_t rows,
                              std::int64_t groups_per_row,
                              std::int64_t ku)
{
    ColumnCycleStats stats;
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;

    // Per-mask popcounts, eight masks per word (zero-padded tail).
    // Padded by a word so the per-block SWAR loops below may read (but
    // never sum) up to 7 bytes past any block boundary.
    const std::size_t n = idx.size();
    std::vector<std::uint8_t> pc(((n + 7) & ~std::size_t{7}) + 8);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        store_u64(pc.data() + i, popcount_bytes(load_u64(idx.data() + i)));
    }
    for (; i < n; ++i) {
        pc[i] = static_cast<std::uint8_t>(popcount8(idx[i]));
    }

    // Mean occupancy + histogram (sums of small integers: exact).
    std::int64_t total_nz = 0;
    for (std::size_t g = 0; g < n; ++g) {
        total_nz += pc[g];
        ++stats.occupancy_hist[pc[g]];
    }
    stats.groups = rows * groups_per_row;
    stats.mean_cycles_per_group = stats.groups > 0
        ? static_cast<double>(total_nz) / static_cast<double>(stats.groups)
        : 0.0;

    // Lockstep occupancy: per-byte max over the kernels of each Ku
    // tile. Kernel k's (rows_per_kernel x groups_per_row) block is
    // contiguous, so the reduction is a running byte-max of blocks.
    const std::int64_t k_rows = has_c_axis ? desc.k : 1;
    const std::int64_t f_rows = has_c_axis
        ? rows / std::max<std::int64_t>(k_rows, 1) : 1;
    const std::size_t block =
        static_cast<std::size_t>(f_rows * groups_per_row);
    std::vector<std::uint8_t> worst(((block + 7) & ~std::size_t{7}) + 8);
    std::int64_t sync_total = 0;
    std::int64_t sync_steps = 0;
    for (std::int64_t k0 = 0; k0 < k_rows; k0 += ku) {
        const std::int64_t k1 = std::min<std::int64_t>(k0 + ku, k_rows);
        std::memcpy(worst.data(),
                    pc.data() + static_cast<std::size_t>(k0) * block,
                    block);
        for (std::int64_t k = k0 + 1; k < k1; ++k) {
            const std::uint8_t *src =
                pc.data() + static_cast<std::size_t>(k) * block;
            for (std::size_t b = 0; b < block; b += 8) {
                store_u64(worst.data() + b,
                          bytemax(load_u64(worst.data() + b),
                                  load_u64(src + b)));
            }
        }
        for (std::size_t b = 0; b < block; ++b) {
            sync_total += worst[b];
        }
        sync_steps += static_cast<std::int64_t>(block);
    }
    stats.sync_cycles_per_group = sync_steps > 0
        ? static_cast<double>(sync_total) /
            static_cast<double>(sync_steps)
        : stats.mean_cycles_per_group;
    return stats;
}

}  // namespace

ColumnCycleStats
column_cycle_stats(const BitPlanes &planes, const LayerDesc &desc,
                   int group_size, std::int64_t ku)
{
    if (group_size < 1 || ku < 1) {
        fatal("column_cycle_stats: group_size and ku must be >= 1");
    }
    // Weights are C-innermost: view as [rows, C] with rows = K*FY*FX
    // (or [1, numel] for layouts without a C axis, e.g. depthwise).
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t c_len = has_c_axis ? desc.c : planes.n;
    const std::int64_t rows = has_c_axis && c_len > 0
        ? planes.n / c_len : 1;
    const std::int64_t groups_per_row = ceil_div(c_len, group_size);

    std::vector<std::uint8_t> idx(
        static_cast<std::size_t>(rows * groups_per_row));
    if (planes.n > 0) {
        scan_group_indexes(planes, c_len, group_size, idx.data());
    }
    return cycle_stats_from_indexes_swar(idx, desc, rows, groups_per_row,
                                         ku);
}

ColumnCycleStats
column_cycle_stats(const Int8Tensor &weights, const LayerDesc &desc,
                   int group_size, std::int64_t ku, Representation repr)
{
    return column_cycle_stats(pack_bitplanes(weights, repr), desc,
                              group_size, ku);
}

ColumnCycleStats
column_cycle_stats_scalar(const Int8Tensor &weights, const LayerDesc &desc,
                          int group_size, std::int64_t ku,
                          Representation repr)
{
    if (group_size < 1 || ku < 1) {
        fatal("column_cycle_stats: group_size and ku must be >= 1");
    }
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t c_len = has_c_axis ? desc.c : weights.numel();
    const std::int64_t rows = has_c_axis && c_len > 0
        ? weights.numel() / c_len : 1;
    const std::int64_t groups_per_row = ceil_div(c_len, group_size);

    std::vector<std::uint8_t> idx(
        static_cast<std::size_t>(rows * groups_per_row));
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t g = 0; g < groups_per_row; ++g) {
            const std::int64_t start = r * c_len + g * group_size;
            const std::int64_t len =
                std::min<std::int64_t>(group_size, c_len - g * group_size);
            idx[static_cast<std::size_t>(r * groups_per_row + g)] =
                column_index({weights.data() + start,
                              static_cast<std::size_t>(len)},
                             repr);
        }
    }
    return cycle_stats_from_indexes(idx, desc, rows, groups_per_row, ku);
}

double
bit_serial_sync_cycles(const Int8Tensor &weights, std::int64_t lanes,
                       Representation repr)
{
    if (lanes < 1) {
        fatal("bit_serial_sync_cycles: lanes must be >= 1");
    }
    const std::int64_t n = weights.numel();
    const std::int8_t *data = weights.data();
    double total = 0.0;
    std::int64_t steps = 0;
    for (std::int64_t start = 0; start < n; start += lanes) {
        const std::int64_t end = std::min<std::int64_t>(start + lanes, n);
        int worst = 0;
        for (std::int64_t i = start; i < end; ++i) {
            worst = std::max(
                worst,
                kBitCounts[static_cast<std::uint8_t>(data[i])].in(repr));
        }
        total += worst;
        ++steps;
    }
    return steps > 0 ? total / static_cast<double>(steps) : 0.0;
}

double
bit_interleave_cycles(const Int8Tensor &weights, std::int64_t window,
                      Representation repr)
{
    if (window < 1) {
        fatal("bit_interleave_cycles: window must be >= 1");
    }
    const std::int64_t n = weights.numel();
    double total = 0.0;
    std::int64_t steps = 0;
    for (std::int64_t start = 0; start < n; start += window) {
        const std::int64_t end = std::min<std::int64_t>(start + window, n);
        int per_significance[8] = {};
        for (std::int64_t i = start; i < end; ++i) {
            const std::uint8_t enc =
                repr == Representation::kTwosComplement
                ? static_cast<std::uint8_t>(weights[i])
                : to_sign_magnitude(weights[i]);
            for (int b = 0; b < 8; ++b) {
                per_significance[b] += (enc >> b) & 1;
            }
        }
        total += *std::max_element(per_significance, per_significance + 8);
        ++steps;
    }
    return steps > 0 ? total / static_cast<double>(steps) : 0.0;
}

double
activation_spill_fraction(std::int64_t elements,
                          const MemoryHierarchy &mem)
{
    const double cap = static_cast<double>(mem.act_sram_bytes) * 8.0;
    const double bits = static_cast<double>(elements) * kWordBits;
    return bits > cap ? (bits - cap) / bits : 0.0;
}

AccessCounts
compute_access_counts(const LayerDesc &desc, const SpatialUnrolling &su,
                      const MemoryHierarchy &mem,
                      const CompressionFactors &cf,
                      const ExecutionProfile &exec)
{
    AccessCounts out;

    const double weight_bits =
        static_cast<double>(desc.weight_count()) * kWordBits;
    const double in_bits =
        static_cast<double>(desc.input_count()) * kWordBits;
    const double out_bits =
        static_cast<double>(desc.output_count()) * kWordBits;
    const double macs = static_cast<double>(desc.macs());
    const double util = std::max(exec.utilization, 1e-6);

    // Off-chip: weights cross DRAM once per layer; once more per
    // activation tile when neither the (compressed) weights nor the input
    // can stay resident. Activations move only when not resident on chip.
    const double w_stored = weight_bits * cf.weight_fetch_ratio;
    double weight_passes = 1.0;
    if (w_stored > static_cast<double>(mem.weight_sram_bytes) * 8 &&
        in_bits > static_cast<double>(mem.act_sram_bytes) * 8) {
        weight_passes = std::ceil(
            in_bits / (static_cast<double>(mem.act_sram_bytes) * 8));
    }
    out.dram_read_weight_bits = w_stored * weight_passes;
    out.dram_read_act_bits =
        in_bits * cf.act_fetch_ratio * exec.input_dram_fraction;
    out.dram_write_act_bits =
        out_bits * cf.act_store_ratio * exec.output_dram_fraction;

    // On-chip SRAM. Bit-serial machines pull the active weight port
    // width every compute cycle (skipped columns are never fetched);
    // weight-stationary machines fetch each weight once into PE
    // registers and spill 32b partial sums across input-channel tiles.
    // Activations: one operand fetch per MAC, amortized over the kernel
    // broadcast (Ku lanes share an activation) and inflated by spatial
    // under-utilization (idle lanes still burn fetch bandwidth).
    const double k_reuse = static_cast<double>(su.factor(Dim::kK));
    out.sram_read_act_bits =
        macs * kWordBits / k_reuse / util * cf.act_sram_overhead;
    out.sram_write_act_bits = out_bits + out.dram_read_act_bits;
    if (exec.weight_stationary) {
        out.sram_read_weight_bits =
            weight_bits * cf.weight_sram_overhead * weight_passes;
        const double psum_spills = exec.psum_in_accumulators
            ? 0.0
            : static_cast<double>(
                  std::max<std::int64_t>(exec.c_tiles, 1) - 1);
        const double psum_bits = out_bits * 4.0 * psum_spills;
        out.sram_read_act_bits += psum_bits;   // re-read for accumulate
        out.sram_write_act_bits += psum_bits;  // spill
    } else if (exec.weight_stream_bits > 0.0) {
        out.sram_read_weight_bits = exec.weight_stream_bits;
    } else {
        out.sram_read_weight_bits = exec.compute_cycles *
            exec.weight_port_active_bits * cf.weight_sram_overhead;
    }
    out.sram_write_weight_bits = out.dram_read_weight_bits;

    // Registers: two operand reads and one accumulator write per MAC.
    out.reg_read_words = 2.0 * macs;
    out.reg_write_words = macs;
    return out;
}

}  // namespace bitwave
