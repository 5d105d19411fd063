/**
 * @file
 * Helpers shared by the eval, service and chaos tests: a scoped fault
 * spec, the catalogue of unservable scenarios, and the field-by-field
 * bit-identity check of two results.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "eval/engine.hpp"

namespace bitwave {

/// Arms a fault spec for one test and guarantees disarm on every exit
/// path — a leaked spec would poison every later test in the binary.
class FaultGuard
{
  public:
    FaultGuard(const std::string &spec, std::uint64_t seed)
    {
        fault::configure(spec, seed);
    }
    ~FaultGuard() { fault::reset(); }
    FaultGuard(const FaultGuard &) = delete;
    FaultGuard &operator=(const FaultGuard &) = delete;
};

/**
 * Scenarios no engine can serve over @p net, each named by its defect:
 * every field an engine would otherwise fatal() on, every baseline-only
 * knob a bit-column machine cannot be priced with, and every machine
 * the simulator cannot run.
 */
inline std::vector<std::pair<std::string, eval::Scenario>>
unservable_scenarios(const std::shared_ptr<const Workload> &net)
{
    std::vector<std::pair<std::string, eval::Scenario>> cases;
    const auto add = [&](std::string what, auto &&edit) {
        eval::Scenario s;
        s.custom_workload = net;
        edit(s);
        cases.emplace_back(std::move(what), std::move(s));
    };
    add("unknown layer", [](eval::Scenario &s) {
        s.layer_filter = {"no_such_layer"};
    });
    add("override arity", [&](eval::Scenario &s) {
        s.weight_override = std::make_shared<const std::vector<Int8Tensor>>(
            std::vector<Int8Tensor>{net->layers.front().weights});
    });
    add("override size", [&](eval::Scenario &s) {
        s.weight_override = std::make_shared<const std::vector<Int8Tensor>>(
            std::vector<Int8Tensor>(net->layers.size(),
                                    net->layers.back().weights));
    });
    add("no model dataflows",
        [](eval::Scenario &s) { s.accel.dataflows.clear(); });
    add("no sim dataflows", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.dataflows.clear();
    });
    add("sim activation port 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.memory.act_port_bits = 0;
    });
    add("HUAA K factor 0", [](eval::Scenario &s) {
        s.accel = make_huaa();
        s.accel.dataflows.front().factors[Dim::kK] = 0;
    });
    add("sim K factor 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.dataflows.front().factors[Dim::kK] = 0;
    });
    add("dense SU bit_columns 0", [](eval::Scenario &s) {
        s.accel = make_bitwave(BitWaveVariant::kDenseSu);
        s.accel.dataflows.front().bit_columns = 0;
    });
    add("sim bit_columns 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.dataflows.front().bit_columns = 0;
    });
    add("weight SRAM 0",
        [](eval::Scenario &s) { s.accel.memory.weight_sram_bytes = 0; });
    add("activation SRAM -1",
        [](eval::Scenario &s) { s.accel.memory.act_sram_bytes = -1; });
    add("weight port 0",
        [](eval::Scenario &s) { s.accel.memory.weight_port_bits = 0; });
    add("activation port 0",
        [](eval::Scenario &s) { s.accel.memory.act_port_bits = 0; });
    add("sim weight SRAM 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.memory.weight_sram_bytes = 0;
    });
    add("sim weight port 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.memory.weight_port_bits = 0;
    });
    // Machines the model prices but the simulator cannot run.
    add("SCNN on the sim", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel = make_scnn();
    });
    add("sim column skipping without compression", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.compress_weights = false;
    });
    add("sim compression without column skipping", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.sparsity = SparsityMode::kNone;
    });
    add("sim layer_sequential_dram", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kCycleSim;
        s.accel.layer_sequential_dram = true;
    });
    add("bitflip group 0", [](eval::Scenario &s) {
        s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
        s.bitflip.group_size = 0;
    });
    for (const int zero_cols : {9, -1}) {
        add("bitflip zero columns " + std::to_string(zero_cols),
            [&](eval::Scenario &s) {
                s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
                s.bitflip.zero_columns = zero_cols;
            });
    }
    add("stats group 0", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kStats;
        s.stats.group_size = 0;
    });
    add("stats group 65", [](eval::Scenario &s) {
        s.engine = eval::EngineKind::kStats;
        s.stats.group_size = 65;
    });
    add("pragmatic sync lanes 0", [](eval::Scenario &s) {
        s.accel = make_pragmatic();
        s.accel.sync_lanes = 0;
    });
    add("bitlet window 0", [](eval::Scenario &s) {
        s.accel = make_bitlet();
        s.accel.interleave_window = 0;
    });
    add("bit-column sparsity on HUAA", [](eval::Scenario &s) {
        s.accel = make_huaa();
        s.accel.sparsity = SparsityMode::kWeightBitColumn;
    });
    add("BCS group 128", [](eval::Scenario &s) {
        s.accel.dataflows.front().factors[Dim::kC] = 128;
    });
    for (const auto mode :
         {SparsityMode::kValue, SparsityMode::kWeightBit,
          SparsityMode::kWeightBitInterleaved}) {
        add("bit-column machine, sparsity " +
                std::to_string(static_cast<int>(mode)),
            [&](eval::Scenario &s) { s.accel.sparsity = mode; });
    }
    add("bit-column compress_acts",
        [](eval::Scenario &s) { s.accel.compress_acts = true; });
    add("bit-column accumulator_banks",
        [](eval::Scenario &s) { s.accel.accumulator_banks = true; });
    add("bit-column planar_crossbar",
        [](eval::Scenario &s) { s.accel.planar_crossbar = true; });
    add("bit-column e_lane_overhead_pj",
        [](eval::Scenario &s) { s.accel.e_lane_overhead_pj = 0.01; });
    return cases;
}

/// Every component of two energy breakdowns, bit for bit.
inline void
expect_identical(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    EXPECT_EQ(a.mac_pj, b.mac_pj);
    EXPECT_EQ(a.sram_pj, b.sram_pj);
    EXPECT_EQ(a.reg_pj, b.reg_pj);
    EXPECT_EQ(a.dram_pj, b.dram_pj);
    EXPECT_EQ(a.static_pj, b.static_pj);
    EXPECT_EQ(a.total_pj, b.total_pj);
}

/// Bit-identical, not approximately equal: the determinism contract.
/// Covers every result field but the host-side diagnostics
/// (wall_seconds, stats_memo_hits, stats_from_memo).
inline void
expect_identical(const eval::ScenarioResult &a, const eval::ScenarioResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.rng_seed, b.rng_seed);
    EXPECT_EQ(a.total_cycles, b.total_cycles) << a.name;
    expect_identical(a.energy, b.energy);
    EXPECT_EQ(a.nominal_macs, b.nominal_macs) << a.name;
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        const eval::LayerEval &x = a.layers[l];
        const eval::LayerEval &y = b.layers[l];
        EXPECT_EQ(x.layer_name, y.layer_name);
        EXPECT_EQ(x.su_name, y.su_name);
        EXPECT_EQ(x.utilization, y.utilization);
        EXPECT_EQ(x.compute_cycles, y.compute_cycles);
        EXPECT_EQ(x.cycles_lockstep, y.cycles_lockstep);
        EXPECT_EQ(x.dram_cycles, y.dram_cycles);
        EXPECT_EQ(x.total_cycles, y.total_cycles);
        EXPECT_EQ(x.cycles_per_group, y.cycles_per_group);
        expect_identical(x.energy, y.energy);
        // kStats records carry no cycles: compare their statistics.
        ASSERT_EQ(x.stats == nullptr, y.stats == nullptr);
        if (x.stats) {
            const eval::LayerStatsEval &p = *x.stats;
            const eval::LayerStatsEval &q = *y.stats;
            EXPECT_EQ(p.sparsity.words, q.sparsity.words);
            EXPECT_EQ(p.sparsity.zero_words, q.sparsity.zero_words);
            EXPECT_EQ(p.sparsity.zero_bits_2c, q.sparsity.zero_bits_2c);
            EXPECT_EQ(p.sparsity.zero_bits_sm, q.sparsity.zero_bits_sm);
            EXPECT_EQ(p.columns_2c.bcs_bits(), q.columns_2c.bcs_bits());
            EXPECT_EQ(p.columns_sm.bcs_bits(), q.columns_sm.bcs_bits());
            for (int z = 0; z <= 8; ++z) {
                EXPECT_EQ(p.columns_2c.zero_column_hist[z],
                          q.columns_2c.zero_column_hist[z]);
                EXPECT_EQ(p.columns_sm.zero_column_hist[z],
                          q.columns_sm.zero_column_hist[z]);
            }
            EXPECT_EQ(p.weight_bits, q.weight_bits);
            EXPECT_EQ(p.zre_bits, q.zre_bits);
            EXPECT_EQ(p.zre_ideal_bits, q.zre_ideal_bits);
            EXPECT_EQ(p.csr_bits, q.csr_bits);
            EXPECT_EQ(p.csr_ideal_bits, q.csr_ideal_bits);
        }
    }
}

}  // namespace bitwave
