#include "dataflow/mapping.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/logging.hpp"

namespace bitwave {

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
