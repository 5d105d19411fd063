/**
 * @file
 * Tests for the unified evaluation subsystem: Scenario naming and
 * seeding, the shared energy-pricing/latency core, sim-vs-model
 * agreement through the scenario engine, ScenarioRunner determinism
 * under 1 vs N threads, private workload seeds synthesized layer by
 * layer inside the runner's units, its per-scenario failure contract
 * (in-place retry, isolation, invalid requests), and the
 * core/pipeline facade that drives it.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "bitflip/bitflip.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/pipeline.hpp"
#include "energy/pricing.hpp"
#include "eval/error.hpp"
#include "eval/runner.hpp"
#include "nn/synthesis.hpp"
#include "nn/workloads.hpp"
#include "sim/npu.hpp"
#include "sparsity/stats.hpp"
#include "test_util.hpp"

namespace bitwave {
namespace {

// ------------------------------------------------------ shared pricing ---

TEST(Pricing, EnergyComponentsSumToTotal)
{
    EnergyActivity a;
    a.mac_units = 1000.0;
    a.e_mac_pj = 0.1;
    a.sram_read_bits = 4096.0;
    a.sram_write_bits = 512.0;
    a.reg_words = 64.0;
    a.dram_bits = 8192.0;
    a.cycles = 100.0;
    const EnergyBreakdown e =
        price_energy(a, default_tech(), default_dram());
    EXPECT_GT(e.mac_pj, 0.0);
    EXPECT_GT(e.sram_pj, 0.0);
    EXPECT_GT(e.reg_pj, 0.0);
    EXPECT_GT(e.dram_pj, 0.0);
    EXPECT_GT(e.static_pj, 0.0);
    EXPECT_NEAR(e.total_pj,
                e.mac_pj + e.sram_pj + e.reg_pj + e.dram_pj + e.static_pj,
                e.total_pj * 1e-12);
}

TEST(Pricing, BreakdownAccumulates)
{
    EnergyActivity a;
    a.mac_units = 10.0;
    a.e_mac_pj = 1.0;
    a.cycles = 5.0;
    EnergyBreakdown sum = price_energy(a, default_tech(), default_dram());
    const EnergyBreakdown one = sum;
    sum += one;
    EXPECT_DOUBLE_EQ(sum.total_pj, 2.0 * one.total_pj);
    EXPECT_DOUBLE_EQ(sum.mac_pj, 2.0 * one.mac_pj);
}

TEST(Pricing, LatencyOverlapsFetchAndCompute)
{
    LatencyParts p;
    p.compute_cycles = 100.0;
    p.weight_fetch_cycles = 40.0;
    p.act_fetch_cycles = 250.0;  // fetch-bound layer
    p.dram_cycles = 10.0;
    p.output_write_cycles = 5.0;
    EXPECT_DOUBLE_EQ(compose_latency(p), 10.0 + 5.0 + 250.0);
    p.act_fetch_cycles = 20.0;  // compute-bound layer
    EXPECT_DOUBLE_EQ(compose_latency(p), 10.0 + 5.0 + 100.0);
}

// ------------------------------------------------------------ scenario ---

TEST(Scenario, NameDescribesTheCombination)
{
    eval::Scenario s;
    s.accel = make_scnn();
    s.workload = WorkloadId::kResNet18;
    EXPECT_EQ(s.name(), s.accel.name + "/ResNet18");

    s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    s.bitflip.group_size = 16;
    s.bitflip.zero_columns = 4;
    EXPECT_NE(s.name().find("+bf(g16,z4)"), std::string::npos);

    s.engine = eval::EngineKind::kCycleSim;
    EXPECT_NE(s.name().find("(sim)"), std::string::npos);

    s.label = "custom";
    EXPECT_EQ(s.name(), "custom");
}

TEST(Scenario, RngSeedIsDeterministicAndPositionDependent)
{
    eval::Scenario s;
    s.workload = WorkloadId::kMobileNetV2;
    EXPECT_EQ(eval::scenario_rng_seed(s, 3), eval::scenario_rng_seed(s, 3));
    EXPECT_NE(eval::scenario_rng_seed(s, 3), eval::scenario_rng_seed(s, 4));
    eval::Scenario salted = s;
    salted.seed = 17;
    EXPECT_NE(eval::scenario_rng_seed(s, 3),
              eval::scenario_rng_seed(salted, 3));
}

// A small private workload so eval tests never pay BERT/ResNet synthesis.
Workload
tiny_workload(std::uint64_t seed = 7)
{
    Workload net;
    net.name = "tiny";
    net.metric_name = "top-1";
    net.base_metric = 90.0;
    net.error_sensitivity = 40.0;
    Rng rng(seed);
    auto add = [&](LayerDesc desc, double act_sparsity) {
        WeightProfile profile;
        profile.scale = 6.0;
        WorkloadLayer layer;
        layer.desc = std::move(desc);
        layer.weights = synthesize_weights(layer.desc, profile, rng);
        layer.activation_sparsity = act_sparsity;
        net.layers.push_back(std::move(layer));
    };
    add(make_conv("stem", 16, 3, 16, 16, 3, 3, 1), 0.0);
    add(make_pointwise("pw", 32, 16, 16, 16), 0.4);
    add(make_linear("fc", 10, 32), 0.4);
    return net;
}

TEST(Scenario, LayerFilterRestrictsEvaluation)
{
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario s;
    s.custom_workload = net;
    s.accel = make_bitwave(BitWaveVariant::kDfSm);
    s.layer_filter = {"pw"};
    const auto r = eval::evaluate_scenario(s);
    ASSERT_EQ(r.layers.size(), 1u);
    EXPECT_EQ(r.layers.front().layer_name, "pw");
    EXPECT_EQ(r.nominal_macs, net->layers[1].desc.macs());
    EXPECT_GT(r.total_cycles, 0.0);
}

TEST(Scenario, SeedChangesNothingButRngSeed)
{
    // Scenario sweeps run the simulator for its accounting only
    // (compute_output = false), and only the functional pass draws
    // synthetic activations from NpuConfig::act_seed. So neither the
    // scenario's salt nor its batch position reaches a result: on all
    // three engines every field but rng_seed matches across two salts
    // at two batch positions.
    const auto net = std::make_shared<Workload>(tiny_workload());
    for (const auto engine :
         {eval::EngineKind::kAnalytical, eval::EngineKind::kCycleSim,
          eval::EngineKind::kStats}) {
        eval::Scenario s;
        s.custom_workload = net;
        s.accel = make_bitwave(BitWaveVariant::kDfSm);
        s.engine = engine;
        const auto golden =
            eval::evaluate_scenario(s, eval::scenario_rng_seed(s, 0));
        for (const std::uint64_t salt : {0ull, 17ull}) {
            for (const std::size_t index : {std::size_t{0}, std::size_t{5}}) {
                eval::Scenario salted = s;
                salted.seed = salt;
                const std::uint64_t seed =
                    eval::scenario_rng_seed(salted, index);
                auto r = eval::evaluate_scenario(salted, seed);
                EXPECT_EQ(r.rng_seed, seed);
                if (salt != 0 || index != 0) {
                    EXPECT_NE(seed, golden.rng_seed);
                }
                r.rng_seed = golden.rng_seed;
                expect_identical(r, golden);
            }
        }
    }
}

// ----------------------------------------- sim vs model (shared core) ---

TEST(Engine, SimAndModelAgreeThroughTheSharedCore)
{
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario model;
    model.custom_workload = net;
    model.accel = make_bitwave(BitWaveVariant::kDfSm);
    eval::Scenario sim = model;
    sim.engine = eval::EngineKind::kCycleSim;

    const auto results = eval::ScenarioRunner().run({model, sim});
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].layers.size(), results[1].layers.size());
    for (std::size_t l = 0; l < results[0].layers.size(); ++l) {
        const auto &m = results[0].layers[l];
        const auto &s = results[1].layers[l];
        EXPECT_EQ(m.layer_name, s.layer_name);
        // Independent implementations of the same machine: compute
        // cycles within the validation bench's tolerance.
        EXPECT_NEAR(s.compute_cycles / m.compute_cycles, 1.0, 0.15)
            << m.layer_name;
    }
}

TEST(Engine, SimRunsTheMachineItsAccelDescribes)
{
    // A sim scenario runs the NPU its `accel` describes, layer by layer
    // equal to a BitWaveNpu built from the same machine, and its result
    // is named after that machine.
    const auto net = std::make_shared<Workload>(tiny_workload());
    const auto sim_of = [&](const AcceleratorConfig &accel) {
        eval::Scenario s;
        s.custom_workload = net;
        s.engine = eval::EngineKind::kCycleSim;
        s.accel = accel;
        const eval::ScenarioResult r = eval::evaluate_scenario(s);
        EXPECT_EQ(r.accelerator, accel.name);
        EXPECT_EQ(r.name, accel.name + "/" + net->name + " (sim)");
        return r;
    };
    const auto expect_runs = [&](const eval::ScenarioResult &r,
                                 const NpuConfig &cfg) {
        const BitWaveNpu npu(cfg);
        ASSERT_EQ(r.layers.size(), net->layers.size());
        for (std::size_t l = 0; l < net->layers.size(); ++l) {
            LayerContext ctx;
            ctx.first_layer = l == 0;
            ctx.last_layer = l + 1 == net->layers.size();
            const LayerSimResult want = npu.run_layer(
                net->layers[l], nullptr, nullptr, false, ctx);
            const eval::LayerEval &got = r.layers[l];
            EXPECT_EQ(got.su_name, want.su_name) << r.name;
            EXPECT_EQ(got.compute_cycles, want.cycles_decoupled) << r.name;
            EXPECT_EQ(got.cycles_lockstep, want.cycles_lockstep) << r.name;
            EXPECT_EQ(got.cycles_per_group, want.mean_columns_per_group())
                << r.name;
            EXPECT_EQ(got.total_cycles, want.total_cycles) << r.name;
            expect_identical(got.energy, want.energy);
        }
    };

    // +DF+SM is the default NPU.
    const auto sparse = sim_of(make_bitwave(BitWaveVariant::kDfSm));
    expect_runs(sparse, NpuConfig{});

    // +DF skips no columns: the ZCIP's dense mode streams all 8 columns
    // of every group.
    NpuConfig dense;
    dense.dense_mode = true;
    const auto dynamic = sim_of(make_bitwave(BitWaveVariant::kDynamicDf));
    expect_runs(dynamic, dense);
    for (const auto &layer : dynamic.layers) {
        EXPECT_EQ(layer.cycles_per_group, 8.0) << layer.layer_name;
    }

    // A narrower weight port reaches the simulator and slows it down.
    AcceleratorConfig narrow = make_bitwave(BitWaveVariant::kDfSm);
    narrow.name = "BitWave+DF+SM@8b";
    narrow.memory.weight_port_bits = 8;
    NpuConfig narrow_npu;
    narrow_npu.memory.weight_port_bits = 8;
    const auto narrow_run = sim_of(narrow);
    expect_runs(narrow_run, narrow_npu);
    EXPECT_GT(narrow_run.total_cycles, sparse.total_cycles);
}

// -------------------------------------------------------------- runner ---

std::vector<eval::Scenario>
determinism_batch()
{
    const auto net = std::make_shared<Workload>(tiny_workload());
    std::vector<eval::Scenario> scenarios;
    for (const auto &cfg : {make_scnn(), make_stripes(), make_bitlet(),
                            make_huaa(),
                            make_bitwave(BitWaveVariant::kDfSm)}) {
        eval::Scenario s;
        s.custom_workload = net;
        s.accel = cfg;
        scenarios.push_back(std::move(s));
    }
    eval::Scenario flipped;
    flipped.custom_workload = net;
    flipped.accel = make_bitwave(BitWaveVariant::kDfSmBf);
    flipped.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    scenarios.push_back(std::move(flipped));
    eval::Scenario sim;
    sim.custom_workload = net;
    sim.engine = eval::EngineKind::kCycleSim;
    scenarios.push_back(std::move(sim));
    return scenarios;
}

TEST(ScenarioRunner, NThreadsBitIdenticalToOneThread)
{
    const auto scenarios = determinism_batch();

    eval::RunnerOptions serial;
    serial.threads = 1;
    eval::RunnerOptions parallel;
    parallel.threads = 4;

    eval::RunnerReport report;
    const auto a = eval::ScenarioRunner(serial).run(scenarios);
    const auto b = eval::ScenarioRunner(parallel).run(scenarios, &report);

    EXPECT_EQ(report.threads_used, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].rng_seed, b[i].rng_seed);
        // Bit-identical, not approximately equal: the runner's contract.
        EXPECT_EQ(a[i].total_cycles, b[i].total_cycles) << a[i].name;
        EXPECT_EQ(a[i].energy.total_pj, b[i].energy.total_pj) << a[i].name;
        ASSERT_EQ(a[i].layers.size(), b[i].layers.size());
        for (std::size_t l = 0; l < a[i].layers.size(); ++l) {
            EXPECT_EQ(a[i].layers[l].total_cycles,
                      b[i].layers[l].total_cycles);
            EXPECT_EQ(a[i].layers[l].energy.total_pj,
                      b[i].layers[l].energy.total_pj);
        }
    }
}

TEST(ScenarioRunner, IntraScenarioSplittingIsBitIdentical)
{
    // One scenario, many shards: splitting by layer ranges across N
    // threads must reproduce the unsplit single-thread result bit for
    // bit — including the sim engine, whose per-layer RNG streams are
    // derived from (scenario seed, layer index), never from shards.
    for (const auto engine :
         {eval::EngineKind::kAnalytical, eval::EngineKind::kCycleSim,
          eval::EngineKind::kStats}) {
        eval::Scenario s;
        s.custom_workload = std::make_shared<Workload>(tiny_workload());
        s.engine = engine;
        s.accel = make_bitwave(BitWaveVariant::kDfSm);
        s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;

        eval::RunnerOptions unsplit;
        unsplit.threads = 1;
        unsplit.shard_layers = 0;  // whole scenario in one task
        eval::RunnerOptions split;
        split.threads = 4;
        split.shard_layers = 1;  // one task per layer

        eval::RunnerReport report;
        const auto a = eval::ScenarioRunner(unsplit).run({s});
        const auto b = eval::ScenarioRunner(split).run({s}, &report);
        EXPECT_EQ(report.chunks, 3);
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0].total_cycles, b[0].total_cycles);
        EXPECT_EQ(a[0].energy.total_pj, b[0].energy.total_pj);
        EXPECT_EQ(a[0].nominal_macs, b[0].nominal_macs);
        ASSERT_EQ(a[0].layers.size(), b[0].layers.size());
        for (std::size_t l = 0; l < a[0].layers.size(); ++l) {
            EXPECT_EQ(a[0].layers[l].layer_name, b[0].layers[l].layer_name);
            EXPECT_EQ(a[0].layers[l].total_cycles,
                      b[0].layers[l].total_cycles);
            EXPECT_EQ(a[0].layers[l].energy.total_pj,
                      b[0].layers[l].energy.total_pj);
        }
    }
}

TEST(ScenarioRunner, AdversarialStealOrderIsBitIdentical)
{
    // The scheduling contract: thread count, chunk grain and chunk
    // order must never show up in results. Run the same batch under the
    // chaos scheduler (chunks handed out in a seeded permutation),
    // several chaos seeds, and 1 vs N threads, and require
    // bit-identical ScenarioResults throughout.
    const auto scenarios = determinism_batch();

    eval::RunnerOptions serial;
    serial.threads = 1;
    const auto golden = eval::ScenarioRunner(serial).run(scenarios);

    std::vector<eval::RunnerOptions> variants;
    for (const std::uint64_t seed : {1ull, 99ull, 0xD15EA5Eull}) {
        eval::RunnerOptions chaotic;
        chaotic.threads = 4;
        chaotic.shard_layers = 1;  // max splitting: one chunk per layer
        chaotic.chaos_seed = seed;
        variants.push_back(chaotic);
    }
    {
        eval::RunnerOptions coarse_chaos;
        coarse_chaos.threads = 3;
        coarse_chaos.shard_layers = 2;
        coarse_chaos.chaos_seed = 7;
        variants.push_back(coarse_chaos);
        eval::RunnerOptions plain;
        plain.threads = 4;
        variants.push_back(plain);
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const auto got = eval::ScenarioRunner(variants[v]).run(scenarios);
        ASSERT_EQ(got.size(), golden.size()) << "variant " << v;
        for (std::size_t i = 0; i < golden.size(); ++i) {
            EXPECT_EQ(got[i].name, golden[i].name) << "variant " << v;
            EXPECT_EQ(got[i].rng_seed, golden[i].rng_seed);
            EXPECT_EQ(got[i].total_cycles, golden[i].total_cycles)
                << "variant " << v << " " << golden[i].name;
            EXPECT_EQ(got[i].energy.total_pj, golden[i].energy.total_pj)
                << "variant " << v << " " << golden[i].name;
            ASSERT_EQ(got[i].layers.size(), golden[i].layers.size());
            for (std::size_t l = 0; l < golden[i].layers.size(); ++l) {
                EXPECT_EQ(got[i].layers[l].total_cycles,
                          golden[i].layers[l].total_cycles);
                EXPECT_EQ(got[i].layers[l].energy.total_pj,
                          golden[i].layers[l].energy.total_pj);
            }
        }
    }
}

TEST(ScenarioRunner, ReportsConsistentDiagnostics)
{
    const auto scenarios = determinism_batch();
    eval::RunnerOptions chaotic;
    chaotic.threads = 4;
    chaotic.shard_layers = 1;
    chaotic.chaos_seed = 3;  // chunks in a seeded order
    eval::RunnerReport report;
    eval::ScenarioRunner(chaotic).run(scenarios, &report);
    EXPECT_EQ(report.threads_used, 4);
    // 7 scenarios x 3 layers at grain 1.
    EXPECT_EQ(report.chunks, 21);
}

TEST(ScenarioRunner, ShardedEvaluationMatchesEvaluateScenario)
{
    // The runner's prepare/evaluate-range/finalize pipeline must agree
    // with the direct evaluate_scenario() path for the same seed.
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario s;
    s.custom_workload = net;
    s.accel = make_scnn();
    const auto direct =
        eval::evaluate_scenario(s, eval::scenario_rng_seed(s, 0));
    eval::RunnerOptions options;
    options.threads = 2;
    options.shard_layers = 2;
    const auto batch = eval::ScenarioRunner(options).run({s});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(direct.total_cycles, batch[0].total_cycles);
    EXPECT_EQ(direct.energy.total_pj, batch[0].energy.total_pj);
}

// ---------------------------------------------------- failure contract ---

eval::ErrorKind
error_kind_of(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const eval::EvalError &e) {
        return e.kind();
    } catch (...) {
        return eval::ErrorKind::kInternal;
    }
}

/// Runner configurations the failure tests sweep: inline, split across
/// a real pool, and the same under the chaos scheduler.
std::vector<eval::RunnerOptions>
failure_variants()
{
    eval::RunnerOptions serial;
    serial.threads = 1;
    eval::RunnerOptions split;
    split.threads = 4;
    split.shard_layers = 1;
    eval::RunnerOptions chaotic = split;
    chaotic.chaos_seed = 99;
    return {serial, split, chaotic};
}

TEST(ScenarioRunner, FailingScenarioFailsAloneAfterInPlaceRetries)
{
    // A scenario whose every layer-range attempt faults ends with its
    // own transient error after max_attempts tries of its one range;
    // the batch's other scenarios come back bit-identical to a
    // fault-free run of the same batch.
    auto batch = determinism_batch();
    eval::Scenario poison;
    poison.custom_workload = batch.front().custom_workload;
    poison.accel = make_scnn();
    poison.label = "poison";
    poison.layer_filter = {"pw"};  // one layer: one range under any split
    const std::size_t poison_at = 3;
    batch.insert(batch.begin() + poison_at, poison);
    const auto golden = eval::ScenarioRunner().run(batch);
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        seeds.push_back(eval::scenario_rng_seed(batch[i], i));
    }

    FaultGuard guard("runner.chunk@poison=1:transient", 7);
    eval::RetryPolicy retry;
    retry.max_attempts = 3;
    retry.backoff_seconds = 0.0;
    for (const auto &options : failure_variants()) {
        const eval::ScenarioRunner runner(options);
        eval::RunnerReport report;
        const auto outcomes = runner.run_outcomes(batch, {}, retry, &report);
        ASSERT_EQ(outcomes.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (i == poison_at) {
                ASSERT_TRUE(outcomes[i].error);
                EXPECT_EQ(error_kind_of(outcomes[i].error),
                          eval::ErrorKind::kTransient);
                continue;
            }
            ASSERT_FALSE(outcomes[i].error) << batch[i].name();
            expect_identical(outcomes[i].result, golden[i]);
        }
        EXPECT_EQ(report.retries, retry.max_attempts - 1);

        try {
            runner.run_seeded(batch, seeds);
            ADD_FAILURE() << "run_seeded swallowed the poison's error";
        } catch (const eval::EvalError &e) {
            EXPECT_EQ(e.kind(), eval::ErrorKind::kTransient);
        }
    }
}

TEST(ScenarioRunner, TransientStormRetriesInPlaceBitIdentical)
{
    // p = 0.5 per layer-range attempt and 26 attempts: one range
    // exhausts with probability 0.5^26 = 1.5e-8, so a batch of at most
    // 21 ranges fails with probability below 1e-6.
    const auto batch = determinism_batch();
    const auto golden = eval::ScenarioRunner().run(batch);

    eval::RetryPolicy retry;
    retry.max_attempts = 26;
    retry.backoff_seconds = 1e-5;
    retry.max_backoff_seconds = 1e-4;
    for (const auto &options : failure_variants()) {
        FaultGuard storm("runner.chunk=0.5:transient", 11);
        eval::RunnerReport report;
        const auto outcomes =
            eval::ScenarioRunner(options).run_outcomes(batch, {}, retry,
                                                       &report);
        ASSERT_EQ(outcomes.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ASSERT_FALSE(outcomes[i].error) << batch[i].name();
            expect_identical(outcomes[i].result, golden[i]);
        }
        EXPECT_GT(report.retries, 0) << "storm never fired";
    }
}

// ---------------------------------------------------- private workloads ---

/// CNN-LSTM scenarios on private workload seeds base, base+1, ...:
/// analytical with and without uniform Bit-Flip, heavy-layer Bit-Flip on
/// the cycle sim, kStats, and one layer-filtered scenario.
std::vector<eval::Scenario>
private_batch(std::uint64_t base)
{
    std::vector<eval::Scenario> batch;
    const auto add = [&](eval::Scenario s) {
        s.workload = WorkloadId::kCnnLstm;
        s.workload_seed = base + batch.size();
        batch.push_back(std::move(s));
    };
    eval::Scenario plain;
    plain.accel = make_bitwave(BitWaveVariant::kDfSm);
    add(plain);
    eval::Scenario flipped;
    flipped.accel = make_bitwave(BitWaveVariant::kDfSmBf);
    flipped.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    add(flipped);
    eval::Scenario sim;
    sim.engine = eval::EngineKind::kCycleSim;
    sim.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
    add(sim);
    eval::Scenario stats;
    stats.engine = eval::EngineKind::kStats;
    add(stats);
    eval::Scenario filtered = plain;
    filtered.layer_filter = {"LSTM.1", "conv1"};
    add(filtered);
    return batch;
}

/// The same scenarios on their workloads prebuilt by build_workload().
std::vector<eval::Scenario>
prebuilt(std::vector<eval::Scenario> batch)
{
    for (auto &s : batch) {
        s.custom_workload = std::make_shared<const Workload>(
            build_workload(s.workload, s.workload_seed));
    }
    return batch;
}

TEST(ScenarioRunner, PrivateWorkloadSeedsMatchPrebuiltWorkloads)
{
    // A private workload_seed is synthesized layer by layer inside the
    // evaluating units; the results must equal, bit for bit, the same
    // scenarios on build_workload()'s whole-network synthesis — at any
    // thread count, grain and chunk order.
    const auto batch = private_batch(0x9000);
    const auto golden = eval::ScenarioRunner().run(prebuilt(batch));

    std::vector<eval::RunnerOptions> variants;
    for (const int threads : {1, 4}) {
        for (const int shard : {0, 1, 2}) {
            eval::RunnerOptions options;
            options.threads = threads;
            options.shard_layers = shard;
            variants.push_back(options);
        }
    }
    eval::RunnerOptions chaotic;
    chaotic.threads = 4;
    chaotic.chaos_seed = 5;
    variants.push_back(chaotic);

    for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        const auto got = eval::ScenarioRunner(variants[v]).run(batch);
        ASSERT_EQ(got.size(), golden.size());
        for (std::size_t i = 0; i < golden.size(); ++i) {
            expect_identical(got[i], golden[i]);
        }
    }

    // Each selected layer is synthesized exactly once, by its unit; the
    // filtered scenario never draws the layers it skips. On fresh seeds
    // every tensor an engine reads is packed once per representation
    // (a `bitplane.pack` span per plane-cache miss), and a re-run of the
    // same batch packs nothing.
    using Pairs = std::multiset<std::pair<std::uint64_t, std::uint64_t>>;
    const auto cold = private_batch(0x9100);
    const auto traced_run = [&](Pairs &drawn, Pairs &packed) {
        trace::clear();
        trace::start();
        eval::RunnerOptions options;
        options.threads = 4;
        eval::ScenarioRunner(options).run(cold);
        trace::stop();
        for (const auto &e : trace::snapshot_events()) {
            const std::string name = e.name;
            if (name == "workload.synthesize") {
                drawn.emplace(e.arg0, e.arg1);
            } else if (name == "bitplane.pack") {
                packed.emplace(e.arg0, e.arg1);
            }
        }
        trace::clear();
    };
    Pairs drawn, packed, warm_drawn, warm_packed;
    traced_run(drawn, packed);
    traced_run(warm_drawn, warm_packed);

    Pairs expected;
    for (std::uint64_t i = 0; i + 1 < cold.size(); ++i) {
        for (std::uint64_t l = 0; l < 6; ++l) {
            expected.emplace(i, l);
        }
    }
    expected.emplace(cold.size() - 1, 0);  // conv1
    expected.emplace(cold.size() - 1, 4);  // LSTM.1
    EXPECT_EQ(drawn, expected);
    EXPECT_EQ(warm_drawn, expected);

    // (elements, representation) per pack: each scenario's tensors are
    // its own, so none is shared. The model and the sim read
    // sign-magnitude planes (a Bit-Flip twin in place of the weights it
    // flips), and kStats reads both representations.
    const auto sm =
        static_cast<std::uint64_t>(Representation::kSignMagnitude);
    const auto tc =
        static_cast<std::uint64_t>(Representation::kTwosComplement);
    const Workload skeleton = build_workload_skeleton(
        WorkloadId::kCnnLstm, cold.front().workload_seed);
    const auto elements = [&](std::size_t l) {
        return static_cast<std::uint64_t>(shape_numel(
            WorkloadLayer::weight_shape(skeleton.layers[l].desc)));
    };
    Pairs expected_packs;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        for (std::size_t l = 0; l < 6; ++l) {
            const bool selected =
                cold[i].layer_filter.empty() || l == 0 || l == 4;
            if (selected) {
                expected_packs.emplace(elements(l), sm);
            }
            if (selected && cold[i].engine == eval::EngineKind::kStats) {
                expected_packs.emplace(elements(l), tc);
            }
        }
    }
    EXPECT_EQ(packed, expected_packs);
    EXPECT_TRUE(warm_packed.empty()) << warm_packed.size() << " warm packs";
}

TEST(ScenarioRunner, PrivateWorkloadRetriesInPlaceBitIdentical)
{
    // A range that faults before its units synthesize their layers
    // re-runs in place; the layers are drawn on the attempt that gets
    // through, from the same (workload seed, layer index), so results
    // still match the prebuilt workloads. p = 0.5 and 26 attempts: one
    // range exhausts with probability 1.5e-8, and the batch has at most
    // 26 ranges.
    const auto batch = private_batch(0xA000);
    const auto golden = eval::ScenarioRunner().run(prebuilt(batch));

    eval::RetryPolicy retry;
    retry.max_attempts = 26;
    retry.backoff_seconds = 1e-5;
    retry.max_backoff_seconds = 1e-4;
    for (const auto &options : failure_variants()) {
        FaultGuard storm("runner.chunk=0.5:transient", 13);
        eval::RunnerReport report;
        const auto outcomes = eval::ScenarioRunner(options).run_outcomes(
            batch, {}, retry, &report);
        ASSERT_EQ(outcomes.size(), golden.size());
        for (std::size_t i = 0; i < golden.size(); ++i) {
            ASSERT_FALSE(outcomes[i].error) << batch[i].name();
            expect_identical(outcomes[i].result, golden[i]);
        }
        EXPECT_GT(report.retries, 0) << "storm never fired";
    }
}

TEST(ScenarioRunner, InvalidScenarioThrowsInvalidEvalError)
{
    // Unservable requests are errors of kind kInvalid, not process
    // exits: every field an engine would fatal() on, and every
    // baseline-only knob a bit-column machine cannot be priced with.
    const auto net = std::make_shared<Workload>(tiny_workload());
    for (const auto &[what, s] : unservable_scenarios(net)) {
        try {
            eval::ScenarioRunner().run({s});
            ADD_FAILURE() << "no error for " << what;
        } catch (const eval::EvalError &e) {
            EXPECT_EQ(e.kind(), eval::ErrorKind::kInvalid)
                << what << ": " << e.what();
        }
    }
}

// --------------------------------------------------------- prep caches ---

TEST(PrepCache, CachedBitflipSharesOnePreparedTensor)
{
    const Workload net = tiny_workload();
    const auto &weights = net.layers[0].weights;
    const auto a = eval::cached_bitflip(weights, 0, 16, 4);
    const auto b = eval::cached_bitflip(weights, 0, 16, 4);
    ASSERT_TRUE(a != nullptr);
    EXPECT_EQ(a.get(), b.get()) << "repeated prep must hit the cache";
    // Cache hit correctness: identical to a fresh flip.
    const Int8Tensor fresh = bitflip_tensor(weights, 16, 4);
    ASSERT_EQ(a->numel(), fresh.numel());
    for (std::int64_t i = 0; i < fresh.numel(); ++i) {
        ASSERT_EQ((*a)[i], fresh[i]) << "at " << i;
    }
    // A different flip target is a different entry.
    const auto c = eval::cached_bitflip(weights, 0, 16, 5);
    EXPECT_NE(a.get(), c.get());
}

TEST(PrepCache, PrepareWeightsOnlyFlipsSelectedLayers)
{
    // A filtered scenario marks only its selected layers for flipping,
    // so it never pays for flipping layers it skips.
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario s;
    s.custom_workload = net;
    s.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    s.layer_filter = {"pw"};
    const eval::ScenarioPrep prep = eval::prepare_scenario(s);
    EXPECT_EQ(prep.layers, std::vector<std::size_t>{1});
    EXPECT_EQ(prep.flip, (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(PrepCache, HeavyLayerSetCoversTheWeightShare)
{
    const Workload net = tiny_workload();
    eval::BitflipSpec spec;
    spec.mode = eval::BitflipSpec::Mode::kHeavyLayers;
    spec.weight_share = 0.5;
    const auto heavy = eval::bitflip_layer_set(net, spec);
    ASSERT_FALSE(heavy.empty());
    std::int64_t covered = 0;
    for (std::size_t i : heavy) {
        covered += net.layers[i].desc.weight_count();
    }
    EXPECT_GE(static_cast<double>(covered),
              0.5 * static_cast<double>(net.total_weights()));
}

// ------------------------------------------------------------- kStats ---

TEST(StatsEngine, MatchesDirectSparsityAnalysis)
{
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario s;
    s.custom_workload = net;
    s.engine = eval::EngineKind::kStats;
    const auto r = eval::evaluate_scenario(s);
    ASSERT_EQ(r.layers.size(), net->layers.size());
    for (std::size_t l = 0; l < r.layers.size(); ++l) {
        ASSERT_TRUE(r.layers[l].stats != nullptr);
        const auto direct = compute_sparsity(net->layers[l].weights);
        EXPECT_EQ(r.layers[l].stats->sparsity.zero_words,
                  direct.zero_words);
        EXPECT_EQ(r.layers[l].stats->sparsity.zero_bits_sm,
                  direct.zero_bits_sm);
        const std::int64_t bcs_bits =
            r.layers[l].stats->columns_sm.bcs_bits();
        EXPECT_GT(bcs_bits, 0);
        EXPECT_LE(bcs_bits,
                  r.layers[l].stats->weight_bits +
                      r.layers[l].stats->weight_bits / 8);
    }
    EXPECT_EQ(r.engine, "stats");
    EXPECT_EQ(r.total_cycles, 0.0);
}

TEST(StatsEngine, SparsityOnlyScenarioPacksNoPlanes)
{
    // Sparsity comes from the byte histogram: a scenario that asks for
    // no column, BCS or codec record packs no bit plane. The weights
    // are fresh (a seed no other test draws), so neither the plane
    // cache nor the stats memo can already hold them.
    const auto net = std::make_shared<Workload>(tiny_workload(8191));
    eval::Scenario s;
    s.custom_workload = net;
    s.engine = eval::EngineKind::kStats;
    s.stats.column_stats = false;
    s.stats.reference_codecs = false;

    const auto &plane_misses = metrics::counter("cache.bitplanes.misses");
    const std::uint64_t before = plane_misses.value();
    const auto r = eval::evaluate_scenario(s);
    EXPECT_EQ(plane_misses.value(), before);
    ASSERT_EQ(r.layers.size(), net->layers.size());
    for (std::size_t l = 0; l < r.layers.size(); ++l) {
        ASSERT_TRUE(r.layers[l].stats != nullptr);
        const SparsityStats &got = r.layers[l].stats->sparsity;
        const SparsityStats want = compute_sparsity(net->layers[l].weights);
        EXPECT_EQ(got.words, want.words);
        EXPECT_EQ(got.zero_words, want.zero_words);
        EXPECT_EQ(got.bits, want.bits);
        EXPECT_EQ(got.zero_bits_2c, want.zero_bits_2c);
        EXPECT_EQ(got.zero_bits_sm, want.zero_bits_sm);
    }
}

TEST(StatsEngine, WarmReRunHitsTheStatsMemo)
{
    // Repeated kStats sweeps over the same weights must be served by the
    // content-hash stats memo; the hit count is surfaced per scenario.
    const auto net = std::make_shared<Workload>(tiny_workload());
    eval::Scenario s;
    s.custom_workload = net;
    s.engine = eval::EngineKind::kStats;
    s.stats.group_size = 24;  // spec unique to this test => cold start

    const auto cold = eval::evaluate_scenario(s);
    EXPECT_EQ(cold.stats_memo_hits, 0);
    const auto warm = eval::evaluate_scenario(s);
    EXPECT_EQ(warm.stats_memo_hits,
              static_cast<std::int64_t>(net->layers.size()));
    // Memoized records are identical (same shared instances).
    ASSERT_EQ(warm.layers.size(), cold.layers.size());
    for (std::size_t l = 0; l < warm.layers.size(); ++l) {
        EXPECT_EQ(warm.layers[l].stats.get(), cold.layers[l].stats.get());
        EXPECT_TRUE(warm.layers[l].stats_from_memo);
    }
    // A different stats spec is a different memo entry.
    eval::Scenario other = s;
    other.stats.group_size = 25;
    EXPECT_EQ(eval::evaluate_scenario(other).stats_memo_hits, 0);
}

TEST(ScenarioRunner, ResultsComeBackInBatchOrder)
{
    const auto scenarios = determinism_batch();
    const auto results = eval::ScenarioRunner().run(scenarios);
    ASSERT_EQ(results.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(results[i].name, scenarios[i].name());
    }
}

TEST(ScenarioRunner, EmptyBatch)
{
    eval::RunnerReport report;
    const auto results = eval::ScenarioRunner().run({}, &report);
    EXPECT_TRUE(results.empty());
    EXPECT_GE(report.threads_used, 1);
}

// ---------------------------------------------------- pipeline facade ---

TEST(Pipeline, DeployReportsLosslessDeployment)
{
    const Workload net = tiny_workload();
    const PipelineReport report = deploy(net);
    EXPECT_EQ(report.workload, "tiny");
    ASSERT_EQ(report.layers.size(), net.layers.size());
    // Lossless: metric untouched, weights compress, BitWave beats dense.
    EXPECT_DOUBLE_EQ(report.estimated_metric, report.base_metric);
    EXPECT_GT(report.weight_compression_ratio, 1.0);
    EXPECT_GT(report.speedup_vs_dense, 1.0);
    EXPECT_GT(report.energy_ratio_vs_dense, 1.0);
    EXPECT_GT(report.runtime_ms, 0.0);
    EXPECT_FALSE(report.to_string().empty());
}

TEST(Pipeline, DeployWithBitflipStaysWithinBudget)
{
    const Workload net = tiny_workload();
    PipelineOptions options;
    options.use_bitflip = true;
    options.max_metric_drop = 0.5;
    options.threads = 2;
    const PipelineReport report = deploy(net, options);
    EXPECT_GE(report.estimated_metric,
              report.base_metric - options.max_metric_drop - 1e-9);
    // Bit-Flip must not compress worse than lossless BCS.
    const PipelineReport lossless = deploy(net);
    EXPECT_GE(report.weight_compression_ratio,
              lossless.weight_compression_ratio - 1e-9);
}

}  // namespace
}  // namespace bitwave
