#include "model/accelerator.hpp"

namespace bitwave {

std::int64_t
AcceleratorConfig::peak_macs_per_cycle() const
{
    // Bit-serial arrays hold 8x the 1b lanes for the same 8b throughput.
    if (dataflows.empty()) {
        return 0;
    }
    const std::int64_t lanes = dataflows.front().total_lanes();
    return style == ComputeStyle::kBitParallel ? lanes : lanes / 8;
}

std::vector<SpatialUnrolling>
huaa_sus()
{
    // 512-lane bit-parallel SUs covering deep, wide, kernel-heavy and
    // depthwise shapes (the HUAA paper's reconfigurable mappings).
    std::vector<SpatialUnrolling> v;
    v.push_back({"CK", {{Dim::kC, 16}, {Dim::kK, 32}}});
    v.push_back({"KC", {{Dim::kC, 32}, {Dim::kK, 16}}});
    v.push_back({"KxC", {{Dim::kC, 8}, {Dim::kK, 64}}});
    v.push_back({"XK", {{Dim::kOX, 16}, {Dim::kK, 32}}});
    v.push_back({"XYK", {{Dim::kOX, 8}, {Dim::kOY, 8}, {Dim::kK, 8}}});
    SpatialUnrolling dw{"DW", {{Dim::kK, 64}, {Dim::kOX, 8}}};
    dw.depthwise_only = true;
    v.push_back(std::move(dw));
    return v;
}

namespace {

/// Fixed 4096-lane bit-serial SU shared by Stripes/Pragmatic/Bitlet.
std::vector<SpatialUnrolling>
bit_serial_fixed_su()
{
    return {{"CK16x16", {{Dim::kC, 16}, {Dim::kK, 16}, {Dim::kOX, 16}}}};
}

}  // namespace

AcceleratorConfig
make_dense_reference()
{
    AcceleratorConfig c;
    c.name = "Dense-BP";
    c.style = ComputeStyle::kBitParallel;
    c.sparsity = SparsityMode::kNone;
    // 512 bit-parallel MACs to match the common compute budget.
    c.dataflows = {{"CK dense", {{Dim::kC, 16}, {Dim::kK, 32}}}};
    c.layer_sequential_dram = true;
    return c;
}

AcceleratorConfig
make_huaa()
{
    AcceleratorConfig c;
    c.name = "HUAA";
    c.style = ComputeStyle::kBitParallel;
    c.sparsity = SparsityMode::kNone;
    c.dataflows = huaa_sus();
    // Layer-by-layer schedule: spilled feature maps stream uncompressed.
    c.layer_sequential_dram = true;
    return c;
}

AcceleratorConfig
make_stripes()
{
    AcceleratorConfig c;
    c.name = "Stripes";
    c.style = ComputeStyle::kBitSerial;
    c.sparsity = SparsityMode::kNone;
    c.dataflows = bit_serial_fixed_su();
    c.layer_sequential_dram = true;
    // 4096 serial lanes shift their weight operand every cycle.
    c.e_lane_overhead_pj = 0.010;
    return c;
}

AcceleratorConfig
make_pragmatic()
{
    AcceleratorConfig c;
    c.name = "Pragmatic";
    c.style = ComputeStyle::kBitSerial;
    c.sparsity = SparsityMode::kWeightBit;
    c.weight_repr = Representation::kTwosComplement;
    c.dataflows = bit_serial_fixed_su();
    c.sync_lanes = 8;
    c.layer_sequential_dram = true;
    // Shift registers + the zero-bit skip/sync network per lane.
    c.e_lane_overhead_pj = 0.012;
    return c;
}

AcceleratorConfig
make_bitlet()
{
    AcceleratorConfig c;
    c.name = "Bitlet";
    c.style = ComputeStyle::kBitSerial;
    c.sparsity = SparsityMode::kWeightBitInterleaved;
    c.weight_repr = Representation::kTwosComplement;
    c.dataflows = bit_serial_fixed_su();
    c.interleave_window = 64;
    c.interleave_overhead = 1.25;
    c.layer_sequential_dram = true;
    // Shift registers + the runtime significance-interleaving scheduler.
    c.e_lane_overhead_pj = 0.014;
    return c;
}

AcceleratorConfig
make_scnn()
{
    AcceleratorConfig c;
    c.name = "SCNN";
    c.style = ComputeStyle::kBitParallel;
    c.sparsity = SparsityMode::kValue;
    // SCNN's planar-tiled dataflow (spatial outputs x kernels).
    c.dataflows = {{"PT", {{Dim::kOX, 8}, {Dim::kOY, 8}, {Dim::kK, 8}}}};
    c.compress_weights = true;
    c.compress_acts = true;
    c.accumulator_banks = true;  // crossbar-fed accumulator SRAM
    // Cartesian-product scheduling + output-crossbar conflicts; uncapped,
    // so low-sparsity layers run *slower* than dense (Fig. 14's regime).
    c.value_imbalance = 2.3;
    // FC/LSTM projections run as degenerate 1x1 convolutions: the token
    // batch im2cols onto OX and token-starved planar tiles pay the
    // calibrated crossbar-conflict inflation.
    c.planar_crossbar = true;
    // Energy side (Fig. 15 calibration): layer-sequential feature-map
    // spills, accumulator-bank RMW per Cartesian product attempt (via
    // accumulator_banks above) and the crossbar-conflict arbitration
    // energy of token-starved matmul tiles, calibrated against the
    // paper's 13.23x Bert-Base anchor.
    c.layer_sequential_dram = true;
    c.e_crossbar_conflict_pj = 126.0;
    return c;
}

AcceleratorConfig
make_bitwave(BitWaveVariant variant)
{
    AcceleratorConfig c;
    c.style = ComputeStyle::kBitColumnSerial;
    c.weight_repr = Representation::kSignMagnitude;
    switch (variant) {
      case BitWaveVariant::kDenseSu:
        c.name = "BitWave";
        c.sparsity = SparsityMode::kNone;
        c.dataflows = {dense_reference_su()};
        // The Fig. 13 dense baseline assumes ideal weight bandwidth for
        // its [Ku=64, Cu=64] mapping (4096 fresh bits/cycle).
        c.memory.weight_port_bits = 4096;
        break;
      case BitWaveVariant::kDynamicDf:
        c.name = "BitWave+DF";
        c.sparsity = SparsityMode::kNone;
        c.dataflows = bitwave_sus();
        break;
      case BitWaveVariant::kDfSm:
        c.name = "BitWave+DF+SM";
        c.sparsity = SparsityMode::kWeightBitColumn;
        c.dataflows = bitwave_sus();
        c.compress_weights = true;
        break;
      case BitWaveVariant::kDfSmBf:
        c.name = "BitWave+DF+SM+BF";
        c.sparsity = SparsityMode::kWeightBitColumn;
        c.dataflows = bitwave_sus();
        c.compress_weights = true;
        break;
    }
    return c;
}

const char *
bitwave_variant_name(BitWaveVariant variant)
{
    switch (variant) {
      case BitWaveVariant::kDenseSu: return "Dense";
      case BitWaveVariant::kDynamicDf: return "+DF";
      case BitWaveVariant::kDfSm: return "+DF+SM";
      case BitWaveVariant::kDfSmBf: return "+DF+SM+BF";
    }
    return "?";
}

}  // namespace bitwave
