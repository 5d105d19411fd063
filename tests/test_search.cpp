/**
 * @file
 * Tests for the src/search/ subsystem: the mapping cost model (agreement
 * with the analytical model, cost-aware SU selection, policy regression
 * pins) and the design-space explorer (pareto invariants, feasibility
 * pruning, thread-count determinism).
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "model/performance.hpp"
#include "nn/synthesis.hpp"
#include "search/cost.hpp"
#include "search/explore.hpp"
#include "sim/npu.hpp"
#include "tensor/bitplane.hpp"

namespace bitwave {
namespace {

/// Probe layer with deterministic synthesized weights.
struct Probe
{
    WorkloadLayer layer;

    explicit Probe(LayerDesc desc, std::uint64_t seed = 42)
    {
        Rng rng(seed);
        WeightProfile profile;
        profile.zero_probability = 0.05;
        layer.desc = std::move(desc);
        layer.weights = synthesize_weights(layer.desc, profile, rng);
        layer.weights_hash = layer.compute_weights_hash();
        layer.activation_sparsity = 0.35;
    }
};

// ------------------------------------------------------- cost model ---

TEST(MappingCost, AgreesWithAnalyticalModelPerCandidate)
{
    // model_layer prices a bit-column machine through mapping_cost:
    // forcing the model onto each single candidate SU must reproduce
    // that candidate's mapping_cost bit for bit, for the dense and the
    // column-skipping variants, at every network position (first and
    // last layers move activations across DRAM).
    const LayerDesc probes[] = {
        make_conv("late", 512, 512, 7, 7, 3, 3),
        make_linear("ffn_out", 768, 3072, 4),
        make_pointwise("pw", 96, 16, 112, 112),
    };
    LayerContext first, last;
    first.first_layer = true;
    last.last_layer = true;
    for (const auto variant :
         {BitWaveVariant::kDenseSu, BitWaveVariant::kDynamicDf,
          BitWaveVariant::kDfSm}) {
        const auto machine = make_bitwave(variant);
        search::MappingCostConfig cfg;
        cfg.repr = machine.weight_repr;
        cfg.memory = machine.memory;
        cfg.skip_zero_columns =
            machine.sparsity == SparsityMode::kWeightBitColumn;
        cfg.compress_weights = machine.compress_weights;
        ASSERT_EQ(cfg.skip_zero_columns, cfg.compress_weights);
        for (const auto &desc : probes) {
            const Probe probe(desc);
            const LayerDesc mapped = normalized_for_mapping(desc);
            const auto planes =
                shared_bitplanes(probe.layer.weights, cfg.repr,
                                 probe.layer.weights_hash);
            for (const auto &su : machine.dataflows) {
                if (su.depthwise_only) {
                    continue;
                }
                auto config = machine;
                config.dataflows = {su};
                const AcceleratorModel model(config);
                for (const LayerContext ctx : {LayerContext{}, first, last}) {
                    const LayerResult r =
                        model.model_layer(probe.layer, nullptr, ctx);
                    cfg.input_from_dram = ctx.first_layer;
                    cfg.output_to_dram = ctx.last_layer;
                    const search::MappingCost c = search::mapping_cost(
                        mapped, su,
                        cfg.skip_zero_columns ? planes.get() : nullptr,
                        probe.layer.weights_hash, cfg);
                    const std::string what = machine.name + " / " +
                        desc.name + " / " + su.name + " / first " +
                        std::to_string(ctx.first_layer) + " last " +
                        std::to_string(ctx.last_layer);
                    EXPECT_EQ(c.total_cycles, r.total_cycles) << what;
                    EXPECT_EQ(c.compute_cycles, r.compute_cycles) << what;
                    EXPECT_EQ(c.energy.total_pj, r.energy.total_pj)
                        << what;
                    EXPECT_EQ(c.energy.dram_pj, r.energy.dram_pj) << what;
                    EXPECT_EQ(c.weight_fetch_ratio, r.weight_fetch_ratio)
                        << what;
                }
            }
        }
    }
}

TEST(MappingCost, OneCycleStatScanPerGroupSize)
{
    // The occupancy histogram depends on the group size and the row
    // length, never on Ku: SU1 and SU4 (both Cu = 8, Ku = 32 and 128)
    // price one conv layer from one scan. The seed draws weights no
    // other test does, so the scan cannot already be cached.
    const Probe probe(make_conv("conv", 128, 64, 14, 14, 3, 3), 20261017);
    const auto &sus = bitwave_sus();
    const SpatialUnrolling &su1 = sus[0];
    const SpatialUnrolling &su4 = sus[3];
    ASSERT_EQ(su1.group_size(), 8);
    ASSERT_EQ(su4.group_size(), 8);
    ASSERT_EQ(su1.factor(Dim::kK), 32);
    ASSERT_EQ(su4.factor(Dim::kK), 128);

    const search::MappingCostConfig cfg;
    const auto planes = shared_bitplanes(probe.layer.weights, cfg.repr,
                                         probe.layer.weights_hash);
    const auto &misses = metrics::counter("cache.mapping_cycles.misses");
    const std::uint64_t before = misses.value();
    for (const SpatialUnrolling *su : {&su1, &su4}) {
        search::mapping_cost(probe.layer.desc, *su, planes.get(),
                             probe.layer.weights_hash, cfg);
    }
    EXPECT_EQ(misses.value(), before + 1);
}

TEST(MappingCost, OneScanServesOccupancyAndDram)
{
    // The compressed, column-skipping flagship prices a layer's occupancy
    // and its BCS DRAM stream from one column histogram. When C is a
    // multiple of the group size the row-aligned groups are the flat
    // ones, so one scan serves both; C = 3 scans rows and flat groups
    // once each. The misses are summed over every mapping cache, so the
    // count holds however many caches there are. Seeds draw weights no
    // other test does.
    const auto machine = make_bitwave(BitWaveVariant::kDfSm);
    search::MappingCostConfig cfg;
    cfg.repr = machine.weight_repr;
    cfg.memory = machine.memory;
    ASSERT_EQ(machine.sparsity, SparsityMode::kWeightBitColumn);
    ASSERT_TRUE(machine.compress_weights);
    const SpatialUnrolling &su = machine.dataflows.front();
    ASSERT_EQ(su.group_size(), 8);
    const auto mapping_misses = [] {
        std::uint64_t total = 0;
        for (const auto &[name, value] : metrics::snapshot().counters) {
            if (name.starts_with("cache.mapping") &&
                name.ends_with(".misses")) {
                total += value;
            }
        }
        return total;
    };
    for (const auto &[c, scans] : {std::pair{64, 1}, std::pair{3, 2}}) {
        const Probe probe(make_conv("conv", 32, c, 14, 14, 3, 3),
                          20261018 + static_cast<std::uint64_t>(c));
        const auto planes = shared_bitplanes(
            probe.layer.weights, cfg.repr, probe.layer.weights_hash);
        const std::uint64_t before = mapping_misses();
        search::mapping_cost(probe.layer.desc, su, planes.get(),
                             probe.layer.weights_hash, cfg);
        EXPECT_EQ(mapping_misses(), before + scans) << "C = " << c;
    }
}

TEST(MappingCost, CostAwareNeverWorseThanUtilizationOnProbes)
{
    // kCostAware picks the latency argmin over the same candidates, so
    // its modeled layer latency can never exceed the utilization pick.
    const LayerDesc probes[] = {
        make_conv("early", 64, 3, 112, 112, 7, 7, 2),
        make_conv("late", 512, 512, 7, 7, 3, 3),
        make_depthwise("dwcv", 96, 56, 56, 3),
        make_pointwise("pw_late", 320, 1280, 7, 7),
        make_linear("bert_proj", 768, 768, 4),
        make_lstm("lstm", 512, 512, 100),
    };
    auto util_cfg = make_bitwave(BitWaveVariant::kDfSm);
    auto cost_cfg = util_cfg;
    cost_cfg.mapping_policy = search::MappingPolicy::kCostAware;
    const AcceleratorModel util_model(util_cfg), cost_model(cost_cfg);
    for (const auto &desc : probes) {
        const Probe probe(desc);
        const auto u = util_model.model_layer(probe.layer);
        const auto c = cost_model.model_layer(probe.layer);
        EXPECT_LE(c.total_cycles, u.total_cycles * (1.0 + 1e-12))
            << desc.name;
    }
}

TEST(MappingCost, StrictlyImprovesFetchBoundLateConv)
{
    // The acceptance probe: the late ResNet-class convolution is
    // fetch-heavy (512 x 512 x 3 x 3 weights against 7 x 7 outputs).
    // Utilization ranking picks SU4 (spatial utilization 1.0), but
    // SU4's Ku = 128 drags 4 bit columns per cycle through group-8
    // streams; the cost model finds SU2's leaner schedule and strictly
    // improves the modeled total latency.
    const Probe probe(make_conv("late", 512, 512, 7, 7, 3, 3));
    auto util_cfg = make_bitwave(BitWaveVariant::kDfSm);
    auto cost_cfg = util_cfg;
    cost_cfg.mapping_policy = search::MappingPolicy::kCostAware;
    const auto u = AcceleratorModel(util_cfg).model_layer(probe.layer);
    const auto c = AcceleratorModel(cost_cfg).model_layer(probe.layer);
    EXPECT_EQ(u.su_name, "SU4");
    EXPECT_EQ(c.su_name, "SU2");
    EXPECT_LT(c.total_cycles, u.total_cycles);
}

TEST(MappingCost, DefaultPolicyIsBitCompatibleUtilization)
{
    // The default stays the historic ranking: same enum value, same
    // selected SU as a direct select_su call.
    EXPECT_EQ(AcceleratorConfig{}.mapping_policy,
              search::MappingPolicy::kUtilization);
    EXPECT_EQ(NpuConfig{}.mapping_policy,
              search::MappingPolicy::kUtilization);
    const Probe probe(make_conv("late", 512, 512, 7, 7, 3, 3));
    const auto cfg = make_bitwave(BitWaveVariant::kDfSm);
    const auto r = AcceleratorModel(cfg).model_layer(probe.layer);
    EXPECT_EQ(r.su_name,
              select_su(probe.layer.desc, cfg.dataflows).name);
}

// Pin the selected SU for every paper workload layer class under both
// policies. Where the policies diverge, the comment says why.
TEST(MappingCost, SelectionPinsPerLayerClass)
{
    struct Pin
    {
        LayerDesc desc;
        const char *util_su;
        const char *cost_su;
    };
    const Pin pins[] = {
        // Early conv: C = 3 starves every Cu; SU1's Cu = 8 loses the
        // least and its OXu = 16 matches the wide feature map. Both
        // policies agree — the layer is compute-bound, so utilization
        // is the right proxy.
        {make_conv("early", 64, 3, 112, 112, 7, 7, 2), "SU1", "SU1"},
        // Mid conv: C = 128 fits Cu = 32 exactly and OXu = 4 matches
        // 28 x 28; SU3 maximizes utilization AND latency. No divergence.
        {make_conv("mid", 128, 128, 28, 28, 3, 3), "SU3", "SU3"},
        // Late conv: SU4 reaches utilization 1.0 (OXu = 1 fits the
        // 7 x 7 map perfectly), but its Ku = 128 / 4-column datapath
        // wastes whole cycles on sparse group-8 streams (ceil(nz/4)
        // with nz ~ 3); the cost model picks SU2, whose group-16
        // stream keeps the weight port and array balanced. DIVERGES.
        {make_conv("late", 512, 512, 7, 7, 3, 3), "SU4", "SU2"},
        // Depthwise: only SU7 parallelizes channels without a C axis;
        // both policies select it (Table I designed it for this class).
        {make_depthwise("dwcv", 96, 56, 56, 3), "SU7", "SU7"},
        // Early pointwise: like early conv, the wide map and small C
        // favor SU1 under both rankings.
        {make_pointwise("pwcv", 96, 16, 112, 112), "SU1", "SU1"},
        // Late pointwise (MobileNet head, C = 1280): SU5 wins spatial
        // utilization via its 4-column budget, but streaming 1280
        // channels in groups of 16 through 4 columns pays ceil waste;
        // the cost model prefers SU2's single-column group-16 stream.
        // DIVERGES.
        {make_pointwise("pw_late", 320, 1280, 7, 7), "SU5", "SU2"},
        // BERT projection (tokens = 4 on OX): SU3's OXu = 4 fits the
        // token batch exactly with utilization 1.0 and the best
        // latency too — divergence-free.
        {make_linear("bert_proj", 768, 768, 4), "SU3", "SU3"},
        // BERT FFN layers behave like the projection (exact Cu / Ku /
        // OXu fits at utilization 1.0).
        {make_linear("bert_ffn_in", 3072, 768, 4), "SU3", "SU3"},
        // LSTM (timesteps on OX): SU3 and SU2 tie near utilization
        // 1.0, but SU2's group-16 stream beats SU3's group-32 on the
        // 85 %-of-weights LSTM matrices (bigger groups expose fewer
        // zero columns). DIVERGES on latency grounds.
        {make_lstm("lstm", 512, 512, 100), "SU3", "SU2"},
    };
    auto util_cfg = make_bitwave(BitWaveVariant::kDfSm);
    auto cost_cfg = util_cfg;
    cost_cfg.mapping_policy = search::MappingPolicy::kCostAware;
    const AcceleratorModel util_model(util_cfg), cost_model(cost_cfg);
    for (const auto &pin : pins) {
        const Probe probe(pin.desc);
        EXPECT_EQ(util_model.model_layer(probe.layer).su_name,
                  pin.util_su)
            << pin.desc.name << " (utilization)";
        EXPECT_EQ(cost_model.model_layer(probe.layer).su_name,
                  pin.cost_su)
            << pin.desc.name << " (cost-aware)";
    }
}

TEST(MappingCost, SimConsumesTheSameSelection)
{
    // The simulator under kCostAware must land on the cost model's
    // choice (the offline selection both engines replay).
    const Probe probe(make_conv("late", 512, 512, 7, 7, 3, 3));
    NpuConfig cfg;
    cfg.mapping_policy = search::MappingPolicy::kCostAware;
    const BitWaveNpu npu(cfg);
    const auto r = npu.run_layer(probe.layer, nullptr, nullptr,
                                 /*compute_output=*/false);
    EXPECT_EQ(r.su_name, "SU2");

    const BitWaveNpu util_npu{NpuConfig{}};
    const auto u = util_npu.run_layer(probe.layer, nullptr, nullptr,
                                      /*compute_output=*/false);
    EXPECT_EQ(u.su_name, "SU4");
}

// --------------------------------------------------------- explorer ---

/// A small but representative exploration space over ResNet18.
search::ExploreSpec
small_spec()
{
    search::ExploreSpec spec;
    spec.workloads = {WorkloadId::kResNet18};
    spec.su_subsets = false;
    spec.group_sizes = {8, 16, 32, 64};
    spec.smm_budgets = {2048, 8192};
    spec.weight_sram_options = {128 * 1024, 256 * 1024, 512 * 1024};
    return spec;
}

TEST(Explore, ParetoInvariantsAndTableOnFront)
{
    std::vector<search::DesignPoint> infeasible;
    const auto evals =
        search::explore_designs(small_spec(), {}, &infeasible);
    ASSERT_FALSE(evals.empty());

    // Late ResNet18 convs need a 147 KB Ku-tile under the smallest
    // Table I Ku: the 128 KB weight-buffer variants of the Table I set
    // must be pruned as infeasible (as must Ku >= 64 singles whose
    // tile exceeds even 256 KB).
    bool pruned_128k = false;
    for (const auto &d : infeasible) {
        pruned_128k |= d.table1_su_set &&
            d.weight_sram_bytes == 128 * 1024;
    }
    EXPECT_TRUE(pruned_128k);

    // Pareto invariants: no front point dominated, every dominated
    // point dominated by some front point.
    std::size_t front = 0;
    for (const auto &a : evals) {
        bool dominated_by_front = false;
        for (const auto &b : evals) {
            if (&a == &b) {
                continue;
            }
            if (search::dominates(b, a)) {
                EXPECT_FALSE(a.pareto)
                    << a.design.name << " dominated by "
                    << b.design.name;
                dominated_by_front |= b.pareto;
            }
        }
        if (a.pareto) {
            ++front;
        } else {
            EXPECT_TRUE(dominated_by_front) << a.design.name;
        }
    }
    EXPECT_GT(front, 0u);

    // The canonical Table I design (paper geometry: 4096 SMMs,
    // 256 KB + 256 KB) is enumerated and non-dominated.
    bool table1_found = false;
    for (const auto &e : evals) {
        if (e.design.table1_su_set && e.design.smm_budget == 4096 &&
            e.design.weight_sram_bytes == 256 * 1024 &&
            e.design.policy == search::MappingPolicy::kCostAware) {
            table1_found = true;
            EXPECT_TRUE(e.pareto) << "Table I dominated";
        }
    }
    EXPECT_TRUE(table1_found);
}

TEST(Explore, BitIdenticalAcrossThreadCounts)
{
    const auto spec = small_spec();
    eval::RunnerOptions one, many;
    one.threads = 1;
    many.threads = 4;
    const auto a = search::explore_designs(spec, one);
    const auto b = search::explore_designs(spec, many);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].design.name, b[i].design.name);
        EXPECT_EQ(a[i].total_cycles, b[i].total_cycles) << a[i].design.name;
        EXPECT_EQ(a[i].energy_pj, b[i].energy_pj) << a[i].design.name;
        EXPECT_EQ(a[i].area_mm2, b[i].area_mm2) << a[i].design.name;
        EXPECT_EQ(a[i].pareto, b[i].pareto) << a[i].design.name;
    }
}

TEST(Explore, AreaScalesWithArrayAndBuffers)
{
    search::DesignPoint base;
    base.dataflows = bitwave_sus();
    search::DesignPoint big_array = base;
    big_array.smm_budget = 8192;
    search::DesignPoint big_buffers = base;
    big_buffers.weight_sram_bytes = 512 * 1024;
    EXPECT_GT(search::design_area_mm2(big_array),
              search::design_area_mm2(base));
    EXPECT_GT(search::design_area_mm2(big_buffers),
              search::design_area_mm2(base));
}

TEST(Explore, EnumerationCoversTheAcceptanceScale)
{
    // The bench's default space must offer >= 200 design points.
    const search::ExploreSpec spec;
    EXPECT_GE(enumerate_design_points(spec).size(), 200u);
}

}  // namespace
}  // namespace bitwave
