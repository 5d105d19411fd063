/**
 * @file
 * Tests for the cycle-level BitWave simulator: ZCIP decode, BCE datapath,
 * bit-exact functional equivalence against the reference kernels, and
 * the Section V-B style cross-validation against the analytical model.
 */
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "eval/runner.hpp"
#include "model/performance.hpp"
#include "nn/reference.hpp"
#include "nn/synthesis.hpp"
#include "nn/workloads.hpp"
#include "bitflip/bitflip.hpp"
#include "sparsity/bitcolumn.hpp"
#include "sim/bce.hpp"
#include "sim/npu.hpp"
#include "sim/zcip.hpp"

namespace bitwave {
namespace {

// --------------------------------------------------------------- ZCIP ---

TEST(Zcip, AllZeroIndexDecodesToNothing)
{
    ZeroColumnIndexParser parser;
    const auto d = parser.parse(0x00);
    EXPECT_FALSE(d.sign_request);
    EXPECT_TRUE(d.shifts.empty());
    EXPECT_EQ(d.nonzero_columns, 0);
}

TEST(Zcip, SignBitRaisesSignRequest)
{
    ZeroColumnIndexParser parser;
    const auto d = parser.parse(0x80);
    EXPECT_TRUE(d.sign_request);
    EXPECT_TRUE(d.shifts.empty());
    EXPECT_EQ(d.nonzero_columns, 1);
}

TEST(Zcip, ShiftsAreAscendingSignificances)
{
    ZeroColumnIndexParser parser;
    const auto d = parser.parse(0b1010'0101);
    EXPECT_TRUE(d.sign_request);
    EXPECT_EQ(d.shifts, (std::vector<int>{0, 2, 5}));
    EXPECT_EQ(d.nonzero_columns, 4);
}

TEST(Zcip, SyncCounterMatchesPopcount)
{
    ZeroColumnIndexParser parser;
    for (int idx = 0; idx < 256; ++idx) {
        const auto d = parser.parse(static_cast<std::uint8_t>(idx));
        EXPECT_EQ(d.nonzero_columns,
                  popcount8(static_cast<std::uint8_t>(idx)));
    }
}

// ---------------------------------------------------------------- BCE ---

TEST(Bce, SingleColumnMultiply)
{
    // Weights {1, 0, 1} at bit0, activations {3, 5, 7}: 3 + 7 = 10.
    Bce bce;
    const std::int8_t acts[3] = {3, 5, 7};
    bce.load_inputs(acts, 0);
    bce.process_column(0b101, 0);
    EXPECT_EQ(bce.output(), 10);
}

TEST(Bce, ShiftAppliesAfterAccumulation)
{
    Bce bce;
    const std::int8_t acts[2] = {1, 1};
    bce.load_inputs(acts, 0);
    bce.process_column(0b11, 3);  // (1 + 1) << 3 = 16
    EXPECT_EQ(bce.output(), 16);
}

TEST(Bce, SignBitsNegatePartialProducts)
{
    Bce bce;
    const std::int8_t acts[2] = {10, 10};
    bce.load_inputs(acts, 0b01);  // weight 0 negative
    bce.process_column(0b11, 0);
    EXPECT_EQ(bce.output(), 0);  // -10 + 10
}

TEST(Bce, GroupPassComputesExactDotProduct)
{
    // Exhaustive-ish check: random groups, compare against the plain
    // int8 dot product.
    Rng rng(21);
    ZeroColumnIndexParser parser;
    for (int trial = 0; trial < 300; ++trial) {
        const int g = 1 + static_cast<int>(rng.uniform_int(0, 15));
        std::vector<std::int8_t> wts(static_cast<std::size_t>(g));
        std::vector<std::int8_t> acts(static_cast<std::size_t>(g));
        for (int j = 0; j < g; ++j) {
            wts[static_cast<std::size_t>(j)] =
                static_cast<std::int8_t>(rng.uniform_int(-127, 127));
            acts[static_cast<std::size_t>(j)] =
                static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        const auto idx =
            column_index({wts.data(), wts.size()},
                         Representation::kSignMagnitude);
        const auto decode = parser.parse(idx);
        std::vector<std::uint64_t> cols;
        for (int shift : decode.shifts) {
            cols.push_back(column_bits({wts.data(), wts.size()}, shift,
                                       Representation::kSignMagnitude));
        }
        const auto sign_col = column_bits(
            {wts.data(), wts.size()}, 7, Representation::kSignMagnitude);
        const std::int32_t got = bce_group_pass(
            {acts.data(), acts.size()}, decode,
            {cols.data(), cols.size()}, sign_col);
        EXPECT_EQ(got, dot_int8(acts.data(), wts.data(), g))
            << "trial " << trial;
    }
}

// ------------------------------------------------ functional equivalence ---

/// Build a small layer of the given kind with synthesized operands.
struct SimFixture
{
    LayerDesc desc;
    WorkloadLayer layer;
    Int8Tensor input;

    explicit SimFixture(LayerDesc d, std::uint64_t seed = 77)
        : desc(std::move(d))
    {
        Rng rng(seed);
        WeightProfile profile;
        profile.scale = 9.0;
        profile.zero_probability = 0.08;
        layer.desc = desc;
        layer.weights = synthesize_weights(desc, profile, rng);
        layer.activation_sparsity = 0.3;
        input = synthesize_activations(layer_input_shape(desc), 0.3, 14.0,
                                       false, rng);
    }
};

class SimEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    static LayerDesc layer_for(int which)
    {
        switch (which) {
          case 0: return make_conv("conv", 8, 16, 5, 5, 3, 3);
          case 1: return make_conv("strided", 4, 8, 4, 4, 3, 3, 2);
          case 2: return make_pointwise("pw", 16, 32, 6, 6);
          case 3: return make_depthwise("dw", 12, 5, 5, 3);
          case 4: return make_linear("fc", 24, 40, 3);
          case 5: return make_lstm("lstm", 8, 8, 4);
          default: return make_conv("c3", 4, 3, 4, 4, 3, 3);
        }
    }
};

TEST_P(SimEquivalence, SparseModeMatchesReferenceBitExactly)
{
    SimFixture fx(layer_for(GetParam()));
    BitWaveNpu npu;
    const auto result = npu.run_layer(fx.layer, &fx.input);
    ASSERT_TRUE(result.output.has_value());
    const auto golden =
        layer_forward_int8(fx.desc, fx.input, fx.layer.weights);
    ASSERT_EQ(result.output->numel(), golden.numel());
    for (std::int64_t i = 0; i < golden.numel(); ++i) {
        ASSERT_EQ((*result.output)[i], golden[i]) << "element " << i;
    }
}

TEST_P(SimEquivalence, DenseModeMatchesReferenceBitExactly)
{
    SimFixture fx(layer_for(GetParam()), 99);
    NpuConfig cfg;
    cfg.dense_mode = true;
    BitWaveNpu npu(cfg);
    const auto result = npu.run_layer(fx.layer, &fx.input);
    ASSERT_TRUE(result.output.has_value());
    const auto golden =
        layer_forward_int8(fx.desc, fx.input, fx.layer.weights);
    for (std::int64_t i = 0; i < golden.numel(); ++i) {
        ASSERT_EQ((*result.output)[i], golden[i]) << "element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllLayerKinds, SimEquivalence,
                         ::testing::Range(0, 7));

TEST(SimFunctional, BatchedGatherBitExactOnWideKernelLayers)
{
    // The functional BCE pass gathers each group's activations once and
    // broadcasts them across all K kernels; pin bit-exactness against
    // the int8 reference on shapes with many kernels (the broadcast
    // axis), partial tail groups, and strides.
    const LayerDesc shapes[] = {
        make_conv("wide", 48, 24, 6, 6, 3, 3),         // C tail at G=16
        make_conv("strided", 32, 40, 5, 5, 3, 3, 2),
        make_depthwise("dw", 40, 6, 6, 3),             // per-kernel taps
        make_linear("fc", 64, 56, 5),
    };
    for (const auto &desc : shapes) {
        SimFixture fx(desc, 0xACE5);
        BitWaveNpu npu;
        const auto result = npu.run_layer(fx.layer, &fx.input);
        ASSERT_TRUE(result.output.has_value());
        const auto golden =
            layer_forward_int8(fx.desc, fx.input, fx.layer.weights);
        ASSERT_EQ(result.output->numel(), golden.numel());
        for (std::int64_t i = 0; i < golden.numel(); ++i) {
            ASSERT_EQ((*result.output)[i], golden[i])
                << desc.name << " element " << i;
        }
    }
}

// --------------------------------------------------------- cycle model ---

TEST(SimConfig, UnrunnableConfigIsFatal)
{
    // A zero port width or bit_columns would price every layer at inf
    // cycles, and a zero unrolling factor divides by zero: the NPU
    // refuses them, as the model does.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto expect_fatal = [](const NpuConfig &cfg, const char *why) {
        EXPECT_EXIT(BitWaveNpu{cfg}, ::testing::ExitedWithCode(1), why);
    };
    for (const auto field :
         {&MemoryHierarchy::weight_sram_bytes,
          &MemoryHierarchy::act_sram_bytes,
          &MemoryHierarchy::weight_port_bits,
          &MemoryHierarchy::act_port_bits}) {
        NpuConfig cfg;
        cfg.memory.*field = 0;
        expect_fatal(cfg, "SRAM size or port width < 1");
    }
    NpuConfig no_sus;
    no_sus.dataflows.clear();
    expect_fatal(no_sus, "no dataflows");
    NpuConfig k0;
    k0.dataflows.front().factors[Dim::kK] = 0;
    expect_fatal(k0, "K factor < 1");
    NpuConfig bc0;
    bc0.dataflows.front().bit_columns = 0;
    expect_fatal(bc0, "bit_columns < 1");
}

TEST(SimCycles, SparseNeverSlowerThanDense)
{
    SimFixture fx(make_conv("c", 16, 32, 8, 8, 3, 3));
    BitWaveNpu sparse;
    NpuConfig dense_cfg;
    dense_cfg.dense_mode = true;
    BitWaveNpu dense(dense_cfg);
    const auto rs = sparse.run_layer(fx.layer, &fx.input, nullptr, false);
    const auto rd = dense.run_layer(fx.layer, &fx.input, nullptr, false);
    EXPECT_LE(rs.cycles_decoupled, rd.cycles_decoupled + 1e-9);
    EXPECT_LT(rs.weight_bits_fetched, rd.weight_bits_fetched);
}

TEST(SimCycles, DenseModeStreamsNoIndex)
{
    // Dense mode streams all 8 columns of every group and no zero-column
    // index (sim/zcip.hpp): one weight sweep is exactly 8 * G bits per
    // group, a row's C-tail group included (C = 24 at G = 16).
    NpuConfig cfg;
    cfg.dense_mode = true;
    const BitWaveNpu npu(cfg);
    for (const auto &desc : {make_conv("c", 16, 32, 8, 8, 3, 3),
                             make_conv("tail", 48, 24, 6, 6, 3, 3)}) {
        SimFixture fx(desc);
        const auto r = npu.run_layer(fx.layer, &fx.input, nullptr, false);
        const WeightRowGeometry geom = weight_row_geometry(fx.desc);
        const std::int64_t groups =
            geom.rows * ceil_div(geom.row_len, r.group_size);
        EXPECT_EQ(r.weight_bits_fetched, groups * kWordBits * r.group_size)
            << desc.name;
    }
}

TEST(SimCycles, LockstepIsAtLeastDecoupled)
{
    SimFixture fx(make_conv("c", 16, 32, 8, 8, 3, 3));
    BitWaveNpu npu;
    const auto r = npu.run_layer(fx.layer, &fx.input, nullptr, false);
    EXPECT_GE(r.cycles_lockstep, r.cycles_decoupled - 1e-9);
}

TEST(SimCycles, BitFlipBalancesLockstepTowardDecoupled)
{
    // After flipping every group to a fixed zero-column budget the
    // lockstep/decoupled gap shrinks (the Bit-Flip load-balance claim of
    // Section III-D), and both counts drop.
    SimFixture fx(make_linear("fc", 64, 256, 2));
    BitWaveNpu npu;
    const auto before = npu.run_layer(fx.layer, &fx.input, nullptr, false);
    const Int8Tensor flipped =
        bitflip_tensor(fx.layer.weights, before.group_size, 4);
    const auto after = npu.run_layer(fx.layer, &fx.input, &flipped, false);

    const double gap_before =
        before.cycles_lockstep / before.cycles_decoupled;
    const double gap_after = after.cycles_lockstep / after.cycles_decoupled;
    EXPECT_GE(gap_before, 1.0);
    EXPECT_LE(gap_after, gap_before + 1e-9);
    EXPECT_LT(after.cycles_decoupled, before.cycles_decoupled);
}

TEST(SimCycles, PackedAccountingMatchesScalarRecomputation)
{
    // The sim's token accounting now reads packed bit planes; recompute
    // the streamed-column and weight-bit totals with the scalar
    // column_index oracle over the same row/group geometry and require
    // exact agreement (the "sim cycle counts" half of the scalar-vs-
    // packed equivalence contract).
    const LayerDesc descs[] = {make_conv("conv", 8, 16, 5, 5, 3, 3),
                               make_depthwise("dw", 12, 5, 5, 3),
                               make_linear("fc", 24, 40, 3)};
    for (const LayerDesc &desc : descs) {
        SimFixture fx(desc, 1234);
        BitWaveNpu npu;
        const auto r = npu.run_layer(fx.layer, &fx.input, nullptr, false);

        const auto geom = weight_row_geometry(fx.desc);
        const LayerDesc mapped = normalized_for_mapping(fx.desc);
        const SpatialUnrolling &su =
            select_su(mapped, npu.config().dataflows);
        const std::int64_t revisits =
            ceil_div(mapped.ox, su.factor(Dim::kOX)) *
            ceil_div(mapped.oy, su.factor(Dim::kOY)) * mapped.batch;
        std::int64_t nz_total = 0, weight_bits = 0, groups = 0;
        for (std::int64_t row = 0; row < geom.rows; ++row) {
            for (std::int64_t c0 = 0; c0 < geom.row_len;
                 c0 += r.group_size) {
                const std::int64_t len = std::min<std::int64_t>(
                    r.group_size, geom.row_len - c0);
                const int nz = popcount8(column_index(
                    {fx.layer.weights.data() + row * geom.row_len + c0,
                     static_cast<std::size_t>(len)},
                    Representation::kSignMagnitude));
                nz_total += nz;
                weight_bits += kWordBits +
                    static_cast<std::int64_t>(nz) * r.group_size;
                ++groups;
            }
        }
        EXPECT_EQ(r.nonzero_columns_streamed, nz_total * revisits)
            << fx.desc.name;
        EXPECT_EQ(r.group_passes, groups * revisits) << fx.desc.name;
        EXPECT_EQ(r.weight_bits_fetched, weight_bits) << fx.desc.name;
    }
}

TEST(SimCycles, DepthwiseGroupSizeMatchesModelAccounting)
{
    // Regression for the sim/model split: the simulator used to account
    // depthwise layers with G = 8 while the analytical model used SU7's
    // G unrolling (64). Both sides now take the group size from the
    // selected SU, pinned here to SU7's 64.
    const LayerDesc dw = make_depthwise("dw", 32, 6, 6, 3);
    BitWaveNpu npu;
    const SpatialUnrolling &su = select_su(dw, npu.config().dataflows);
    EXPECT_EQ(su.name, "SU7");
    EXPECT_EQ(su.group_size(), 64);

    SimFixture fx(dw, 55);
    const auto r = npu.run_layer(fx.layer, &fx.input, nullptr, false);
    EXPECT_EQ(r.group_size, 64) << "sim must follow the SU's BCS group";
}

TEST(SimCycles, MeanColumnsMatchesAnalyticalStats)
{
    SimFixture fx(make_conv("c", 16, 32, 8, 8, 3, 3));
    BitWaveNpu npu;
    const auto r = npu.run_layer(fx.layer, &fx.input, nullptr, false);
    // The simulator's streamed column count per group must agree with the
    // sparsity analysis at the same group size.
    const auto stats = analyze_bit_columns(
        fx.layer.weights, r.group_size, Representation::kSignMagnitude);
    EXPECT_NEAR(r.mean_columns_per_group(), stats.mean_nonzero_columns(),
                0.5);
}

TEST(SimCycles, LayerContextAddsBoundaryDramTraffic)
{
    // First layers read their input from DRAM, last layers write their
    // output back; interior layers move no activations off chip — the
    // residency assumption shared with the analytical model.
    SimFixture fx(make_conv("c", 16, 32, 8, 8, 3, 3));
    BitWaveNpu npu;
    const auto interior =
        npu.run_layer(fx.layer, &fx.input, nullptr, false);
    EXPECT_EQ(interior.act_bits_dram, 0);

    LayerContext first;
    first.first_layer = true;
    const auto as_first =
        npu.run_layer(fx.layer, &fx.input, nullptr, false, first);
    EXPECT_EQ(as_first.act_bits_dram,
              fx.layer.desc.input_count() * kWordBits);

    LayerContext both = first;
    both.last_layer = true;
    const auto as_both =
        npu.run_layer(fx.layer, &fx.input, nullptr, false, both);
    EXPECT_EQ(as_both.act_bits_dram,
              (fx.layer.desc.input_count() +
               fx.layer.desc.output_count()) * kWordBits);

    // The extra traffic shows up in DRAM occupancy, total cycles
    // (Eq. 5 serializes DRAM), and DRAM energy — compute is untouched.
    EXPECT_GT(as_both.dram_cycles, interior.dram_cycles);
    EXPECT_GT(as_both.total_cycles, interior.total_cycles);
    EXPECT_GT(as_both.energy.dram_pj, interior.energy.dram_pj);
    EXPECT_EQ(as_both.cycles_decoupled, interior.cycles_decoupled);
}

TEST(SimCycles, TotalCyclesMatchAnalyticalModelWithContext)
{
    // With boundary DRAM wired through, total_cycles (not just compute)
    // agrees between the engines on first/last layers.
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    BitWaveNpu npu;
    AcceleratorModel model(make_bitwave(BitWaveVariant::kDfSm));
    for (std::size_t l : {std::size_t{0}, w.layers.size() - 1}) {
        LayerContext ctx;
        ctx.first_layer = l == 0;
        ctx.last_layer = l + 1 == w.layers.size();
        const auto &layer = w.layers[l];
        const auto sim =
            npu.run_layer(layer, nullptr, nullptr, false, ctx);
        const auto mod = model.model_layer(layer, nullptr, ctx);
        EXPECT_NEAR(sim.total_cycles / mod.total_cycles, 1.0, 0.15)
            << layer.desc.name;
    }
}

TEST(SimValidation, SimWithinTenPercentOfAnalyticalModel)
{
    // The paper validates its analytical model against the BitWave RTL
    // at < 6 % deviation; we reproduce the cross-check between our two
    // independent implementations at a 15 % tolerance.
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    BitWaveNpu npu;
    AcceleratorModel model(make_bitwave(BitWaveVariant::kDfSm));
    for (const char *name : {"LSTM.0", "LSTM.1", "fc_in"}) {
        const auto &layer = w.layers[w.layer_index(name)];
        const auto sim = npu.run_layer(layer, nullptr, nullptr, false);
        const auto mod = model.model_layer(layer);
        const double ratio = sim.cycles_decoupled / mod.compute_cycles;
        EXPECT_GT(ratio, 0.85) << name;
        EXPECT_LT(ratio, 1.15) << name;
    }
}

TEST(SimValidation, EnergyComponentsMatchAnalyticalModelPerLayer)
{
    // Both engines price Eq. 4 through energy/pricing.hpp, so they can
    // differ only in the activity they count: MAC-equivalents, register
    // words, SRAM reads and writes (the DRAM -> SRAM weight refill
    // included), DRAM bits and cycles. Each Eq. 4 component must agree
    // per layer up to summation order. Left out: MobileNetV2, whose
    // depthwise groups the engines still lay out differently (ROADMAP
    // item 1). The conv1 layers, whose C is not a multiple of the BCS
    // group, are checked on MAC energy only: the model's flat-group DRAM
    // stream differs from the sim's row-aligned one (ROADMAP item 2).
    // Their MAC work counts each group's own weights in both engines;
    // the sim also runs the last OX tile's idle lanes, so its MAC energy
    // is first divided by ceil(OX / OXu) * OXu / OX (1.12 on CNN-LSTM,
    // OX = 100 on 16 lanes). Bert-Base is probed on its first and last
    // blocks, which cover the network-boundary DRAM traffic. A private
    // workload seed with a layer filter synthesizes only the probed
    // layers.
    for (const WorkloadId id : {WorkloadId::kResNet18, WorkloadId::kCnnLstm,
                                WorkloadId::kBertBase}) {
        eval::Scenario model;
        model.workload = id;
        model.workload_seed = 0xE4E4;
        const Workload skeleton =
            build_workload_skeleton(id, model.workload_seed);
        for (const auto &layer : skeleton.layers) {
            const std::string &name = layer.desc.name;
            const bool probed = id != WorkloadId::kBertBase ||
                name.starts_with("layer.0.") ||
                name.starts_with("layer.11.");
            if (probed) {
                model.layer_filter.push_back(name);
            }
        }
        eval::Scenario sim = model;
        sim.engine = eval::EngineKind::kCycleSim;
        const auto results = eval::ScenarioRunner().run({model, sim});
        const auto &m = results[0].layers;
        const auto &s = results[1].layers;
        ASSERT_EQ(m.size(), model.layer_filter.size());
        ASSERT_EQ(s.size(), m.size());
        for (std::size_t i = 0; i < m.size(); ++i) {
            const auto agree = [&](const char *what, double sim_pj,
                                   double model_pj) {
                EXPECT_NEAR(sim_pj / model_pj, 1.0, 1e-9)
                    << workload_name(id) << " " << m[i].layer_name << " "
                    << what << ": sim " << sim_pj << " pJ, model "
                    << model_pj << " pJ";
            };
            if (m[i].layer_name == "conv1") {
                const LayerDesc *desc = nullptr;
                for (const auto &layer : skeleton.layers) {
                    if (layer.desc.name == "conv1") {
                        desc = &layer.desc;
                    }
                }
                ASSERT_NE(desc, nullptr);
                const std::int64_t ox = normalized_for_mapping(*desc).ox;
                std::int64_t oxu = 0;
                for (const auto &su : bitwave_sus()) {
                    if (su.name == s[i].su_name) {
                        oxu = su.factor(Dim::kOX);
                    }
                }
                ASSERT_GT(oxu, 0) << s[i].su_name;
                const double idle_lanes =
                    static_cast<double>(ceil_div(ox, oxu) * oxu) /
                    static_cast<double>(ox);
                agree("mac", s[i].energy.mac_pj / idle_lanes,
                      m[i].energy.mac_pj);
                continue;
            }
            agree("mac", s[i].energy.mac_pj, m[i].energy.mac_pj);
            agree("sram", s[i].energy.sram_pj, m[i].energy.sram_pj);
            agree("reg", s[i].energy.reg_pj, m[i].energy.reg_pj);
            agree("dram", s[i].energy.dram_pj, m[i].energy.dram_pj);
            agree("static", s[i].energy.static_pj, m[i].energy.static_pj);
        }
    }
}

}  // namespace
}  // namespace bitwave
