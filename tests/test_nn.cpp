/**
 * @file
 * Tests for layer descriptors, workload builders, synthesis statistics,
 * reference kernels, and the accuracy proxy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "nn/accuracy.hpp"
#include "nn/reference.hpp"
#include "nn/synthesis.hpp"
#include "nn/workloads.hpp"
#include "sparsity/bitcolumn.hpp"
#include "sparsity/stats.hpp"

namespace bitwave {
namespace {

// ------------------------------------------------------------- layers ---

TEST(Layer, ConvMacAndWeightCounts)
{
    const auto d = make_conv("c", 64, 32, 28, 28, 3, 3);
    EXPECT_EQ(d.macs(), 64LL * 32 * 28 * 28 * 9);
    EXPECT_EQ(d.weight_count(), 64LL * 32 * 9);
    EXPECT_EQ(d.output_count(), 64LL * 28 * 28);
    EXPECT_EQ(d.ix(), 30);
}

TEST(Layer, StridedConvInputExtent)
{
    const auto d = make_conv("c", 64, 3, 112, 112, 7, 7, 2);
    EXPECT_EQ(d.ix(), 111 * 2 + 7);
}

TEST(Layer, DepthwiseHasUnitC)
{
    const auto d = make_depthwise("dw", 96, 56, 56, 3);
    EXPECT_EQ(d.c, 1);
    EXPECT_EQ(d.macs(), 96LL * 56 * 56 * 9);
    EXPECT_EQ(d.weight_count(), 96LL * 9);
}

TEST(Layer, LinearAndLstmShapes)
{
    const auto fc = make_linear("fc", 1000, 512, 4);
    EXPECT_EQ(fc.macs(), 4LL * 1000 * 512);
    const auto lstm = make_lstm("l", 256, 128, 10);
    EXPECT_EQ(lstm.k, 1024);
    EXPECT_EQ(lstm.c, 384);
    EXPECT_EQ(lstm.macs(), 10LL * 1024 * 384);
}

// ----------------------------------------------------------- workloads ---

TEST(Workloads, SharedInstanceBuildsOnceUnderConcurrentFirstTouch)
{
    // Four threads touch CNN-LSTM at once (its first touch when the
    // suite runs in order): at most one build, one instance for every
    // caller, and the same instance behind get_workload() afterwards.
    const auto &misses = metrics::counter("cache.workloads.misses");
    const std::uint64_t before = misses.value();
    std::vector<std::shared_ptr<const Workload>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&got, t] {
            got[t] = shared_workload(WorkloadId::kCnnLstm);
        });
    }
    for (auto &thread : threads) {
        thread.join();
    }
    const std::uint64_t built = misses.value();
    EXPECT_LE(built, before + 1);
    for (const auto &w : got) {
        EXPECT_EQ(w.get(), got.front().get());
    }
    EXPECT_EQ(&get_workload(WorkloadId::kCnnLstm), got.front().get());
    EXPECT_EQ(misses.value(), built);
}

TEST(Workloads, ResNet18MatchesPublishedSize)
{
    const auto &w = get_workload(WorkloadId::kResNet18);
    // 11.7M params / 1.8 GMACs for 224x224 (Fig. 12 left).
    EXPECT_NEAR(static_cast<double>(w.total_weights()), 11.7e6, 0.2e6);
    EXPECT_NEAR(static_cast<double>(w.total_macs()), 1.81e9, 0.05e9);
    EXPECT_EQ(w.layers.size(), 21u);  // 17 convs + 3 downsamples + fc
}

TEST(Workloads, MobileNetV2MatchesPublishedSize)
{
    const auto &w = get_workload(WorkloadId::kMobileNetV2);
    EXPECT_NEAR(static_cast<double>(w.total_weights()), 3.47e6, 0.1e6);
    EXPECT_NEAR(static_cast<double>(w.total_macs()), 0.3e9, 0.02e9);
}

TEST(Workloads, MobileNetV2HasDepthwiseAndPointwise)
{
    const auto &w = get_workload(WorkloadId::kMobileNetV2);
    int dw = 0, pw = 0;
    for (const auto &l : w.layers) {
        dw += l.desc.kind == LayerKind::kDepthwiseConv;
        pw += l.desc.kind == LayerKind::kPointwiseConv;
    }
    EXPECT_EQ(dw, 17);  // 1 + 16 inverted-residual repeats
    EXPECT_GE(pw, 33);
}

TEST(Workloads, CnnLstmIsLstmDominated)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    std::int64_t lstm_weights = 0;
    for (const auto &l : w.layers) {
        if (l.desc.kind == LayerKind::kLstm) {
            lstm_weights += l.desc.weight_count();
        }
    }
    // Paper: LSTM.0 + LSTM.1 hold ~80 % of the weights.
    const double share = static_cast<double>(lstm_weights) /
        static_cast<double>(w.total_weights());
    EXPECT_GT(share, 0.75);
    EXPECT_LT(share, 0.95);
}

TEST(Workloads, BertBaseMatchesPublishedSize)
{
    const auto &w = get_workload(WorkloadId::kBertBase);
    // 12 x 7.08M encoder weights (embeddings excluded; not compute).
    EXPECT_NEAR(static_cast<double>(w.total_weights()), 85e6, 1e6);
    EXPECT_EQ(w.layers.size(), 72u);  // 12 layers x 6 projections
    for (const auto &l : w.layers) {
        EXPECT_EQ(l.desc.batch, 4) << "token size 4 per Fig. 13";
    }
}

TEST(Workloads, WeightShapesMatchDescriptors)
{
    for (auto id : kAllWorkloads) {
        const auto &w = get_workload(id);
        for (const auto &l : w.layers) {
            EXPECT_EQ(l.weights.shape(),
                      WorkloadLayer::weight_shape(l.desc))
                << w.name << "/" << l.desc.name;
        }
    }
}

TEST(Workloads, BuildersAreDeterministic)
{
    const auto a = build_workload(WorkloadId::kCnnLstm, 123);
    const auto b = build_workload(WorkloadId::kCnnLstm, 123);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].weights, b.layers[i].weights);
    }
    // Per-layer seed streams: content hashes are populated and seeds
    // actually matter.
    EXPECT_NE(a.content_hash, 0u);
    EXPECT_EQ(a.content_hash, b.content_hash);
    EXPECT_NE(a.content_hash,
              build_workload(WorkloadId::kCnnLstm, 124).content_hash);
    for (const auto &layer : a.layers) {
        EXPECT_NE(layer.weights_hash, 0u);
        EXPECT_EQ(layer.weights_hash, layer.compute_weights_hash());
    }
}

TEST(Workloads, SynthesisIsPinned)
{
    // Every figure anchor has a +-20 % band, so a change that shifts
    // every synthesized weight would pass them all. These content
    // hashes pin the bytes themselves. They depend on the libm's
    // log/exp under the default flags (no -march); if another libm
    // disagrees, that is a finding to report, not a value to re-pin.
    EXPECT_EQ(get_workload(WorkloadId::kResNet18).content_hash,
              0xad2c2edad42f75f9ULL);
    EXPECT_EQ(get_workload(WorkloadId::kMobileNetV2).content_hash,
              0x3bba38854a37a7acULL);
    EXPECT_EQ(get_workload(WorkloadId::kCnnLstm).content_hash,
              0x7e6cdfc7dbff1f75ULL);
    EXPECT_EQ(get_workload(WorkloadId::kBertBase).content_hash,
              0x19f29978f8316ebcULL);
    EXPECT_EQ(build_workload(WorkloadId::kCnnLstm, 20261016).content_hash,
              0xa17ee8e40b573217ULL);
}

TEST(Workloads, TracedBuildNamesEveryLayer)
{
    // build_workload's per-layer body is a `workload.build` span with
    // the network id and the layer index, so a traced set-up shows
    // where shared synthesis goes; a private layer's
    // `workload.synthesize` span is the runner's, not this one's.
    using Pairs = std::multiset<std::pair<std::uint64_t, std::uint64_t>>;
    trace::clear();
    trace::start();
    const Workload w = build_workload(WorkloadId::kCnnLstm, 0x7ACE);
    trace::stop();
    Pairs built;
    std::size_t synthesized = 0;
    for (const auto &e : trace::snapshot_events()) {
        const std::string name = e.name;
        if (name == "workload.build") {
            EXPECT_STREQ(e.arg0_name, "network");
            EXPECT_STREQ(e.arg1_name, "layer");
            built.emplace(e.arg0, e.arg1);
        }
        synthesized += name == "workload.synthesize";
    }
    trace::clear();
    Pairs expected;
    for (std::size_t l = 0; l < w.layers.size(); ++l) {
        expected.emplace(static_cast<std::uint64_t>(WorkloadId::kCnnLstm),
                         l);
    }
    EXPECT_EQ(built, expected);
    EXPECT_EQ(synthesized, 0u);
}

TEST(Workloads, SkeletonLayersSynthesizeLikeTheFullBuild)
{
    // A layer is a pure function of (seed, layer index): filling a
    // skeleton one layer at a time, in reverse order, reproduces
    // build_workload's parallel synthesis byte for byte.
    const auto full = build_workload(WorkloadId::kCnnLstm, 123);
    Workload skeleton = build_workload_skeleton(WorkloadId::kCnnLstm, 123);
    ASSERT_EQ(skeleton.layers.size(), full.layers.size());
    EXPECT_EQ(skeleton.seed, 123u);
    EXPECT_EQ(skeleton.content_hash, 0u);
    for (const auto &layer : skeleton.layers) {
        EXPECT_EQ(layer.weights.numel(), 0) << layer.desc.name;
    }
    for (std::size_t i = skeleton.layers.size(); i-- > 0;) {
        synthesize_layer(skeleton, i);
        EXPECT_EQ(skeleton.layers[i].weights, full.layers[i].weights)
            << full.layers[i].desc.name;
        EXPECT_EQ(skeleton.layers[i].weights_hash,
                  full.layers[i].weights_hash);
    }
}

TEST(Workloads, LayerIndexLookup)
{
    const auto &w = get_workload(WorkloadId::kResNet18);
    EXPECT_EQ(w.layers[w.layer_index("fc")].desc.name, "fc");
}

// Fig. 1 band check: bit sparsity exceeds value sparsity by roughly an
// order of magnitude, and SM beats 2C, on every benchmark network.
class WorkloadSparsity : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(WorkloadSparsity, Fig1SparsityOrdering)
{
    const auto &w = get_workload(GetParam());
    SparsityStats s;
    for (const auto &l : w.layers) {
        s.merge(compute_sparsity(l.weights));
    }
    EXPECT_LT(s.value_sparsity(), 0.15);
    EXPECT_GT(s.bit_sparsity(Representation::kTwosComplement),
              s.value_sparsity());
    EXPECT_GT(s.bit_sparsity(Representation::kSignMagnitude),
              s.bit_sparsity(Representation::kTwosComplement));
    // SR bands of Fig. 1: 5.67-32.5x (2C), 8.73-47.5x (SM); allow margin.
    EXPECT_GT(s.sparsity_ratio(Representation::kTwosComplement), 3.5);
    EXPECT_GT(s.sparsity_ratio(Representation::kSignMagnitude), 5.0);
    EXPECT_LT(s.sparsity_ratio(Representation::kSignMagnitude), 60.0);
}

INSTANTIATE_TEST_SUITE_P(AllNets, WorkloadSparsity,
                         ::testing::ValuesIn(kAllWorkloads));

TEST(Workloads, ResNetConv2MatchesFig4)
{
    // Fig. 4: conv2 of ResNet18, G=4 groups along C: ~20 % zero values,
    // ~17 % zero columns in 2C, ~59 % in SM (3.4x improvement).
    const auto &w = get_workload(WorkloadId::kResNet18);
    const auto &conv2 = w.layers[w.layer_index("l1.0.conv1")];
    const auto s = compute_sparsity(conv2.weights);
    EXPECT_NEAR(s.value_sparsity(), 0.20, 0.08);
    const double c2 =
        analyze_bit_columns(conv2.weights, 4,
                            Representation::kTwosComplement)
            .column_sparsity();
    const double csm =
        analyze_bit_columns(conv2.weights, 4,
                            Representation::kSignMagnitude)
            .column_sparsity();
    EXPECT_NEAR(c2, 0.17, 0.07);
    EXPECT_NEAR(csm, 0.59, 0.08);
    EXPECT_GT(csm / c2, 2.5);
}

TEST(Workloads, BertHasFewZeroColumns)
{
    // Section III-D: the original Int8 BERT has a limited number of zero
    // columns — the reason it needs Bit-Flip.
    const auto &bert = get_workload(WorkloadId::kBertBase);
    BitColumnStats stats;
    for (const auto &l : bert.layers) {
        stats.merge(
            analyze_bit_columns(l.weights, 16,
                                Representation::kSignMagnitude));
    }
    EXPECT_LT(stats.column_sparsity(), 0.15);
}

// ----------------------------------------------------------- synthesis ---

TEST(Synthesis, ZeroProbabilityControlsValueSparsity)
{
    Rng rng(5);
    WeightProfile p;
    p.scale = 20.0;
    p.zero_probability = 0.5;
    p.zero_avoidance = 0.0;
    const auto t = synthesize_weights(make_linear("l", 128, 128), p, rng);
    const auto s = compute_sparsity(t);
    EXPECT_NEAR(s.value_sparsity(), 0.5, 0.05);
}

TEST(Synthesis, ZeroAvoidanceSuppressesZeros)
{
    Rng rng(5);
    WeightProfile p;
    p.scale = 2.0;
    p.zero_probability = 0.0;
    p.zero_avoidance = 1.0;
    const auto t = synthesize_weights(make_linear("l", 64, 64), p, rng);
    EXPECT_EQ(compute_sparsity(t).value_sparsity(), 0.0);
}

TEST(Synthesis, ShardedSynthesisIsThreadInvariant)
{
    // synthesize_weights draws every kernel chunk from its own derived
    // seed stream, so a big layer shards into independent tasks whose
    // output is a pure function of (shape, profile, rng state) — the
    // worker count can never change the bytes.
    WeightProfile p;
    p.scale = 9.0;
    p.zero_probability = 0.04;
    const auto desc = make_linear("ffn", 512, 768);  // multi-chunk layer

    ASSERT_EQ(setenv("BITWAVE_THREADS", "1", 1), 0);
    Rng serial_rng(42);
    const auto serial = synthesize_weights(desc, p, serial_rng);
    ASSERT_EQ(setenv("BITWAVE_THREADS", "4", 1), 0);
    Rng parallel_rng(42);
    const auto parallel = synthesize_weights(desc, p, parallel_rng);
    ASSERT_EQ(unsetenv("BITWAVE_THREADS"), 0);

    EXPECT_EQ(serial, parallel);
    // And the caller's stream advanced identically either way.
    EXPECT_EQ(serial_rng.engine()(), parallel_rng.engine()());
}

/// The per-weight loop synthesize_weights() ran before it took its logs
/// in bulk, chunking included: every weight drawn with Rng::laplacian
/// or Rng::gaussian (std::log), rounded, then zero-avoided.
Int8Tensor
oracle_synthesize_weights(const LayerDesc &desc, const WeightProfile &profile,
                          Rng &rng)
{
    Int8Tensor out(WorkloadLayer::weight_shape(desc));
    const std::int64_t kernels = out.rank() > 0 ? out.dim(0) : 1;
    const std::int64_t per_kernel =
        kernels > 0 ? out.numel() / kernels : out.numel();
    const std::uint64_t base = rng.engine()();
    const std::int64_t chunk_kernels = std::max<std::int64_t>(
        1, (1 << 16) / std::max<std::int64_t>(per_kernel, 1));
    const std::int64_t chunks =
        ceil_div(std::max<std::int64_t>(kernels, 1), chunk_kernels);
    for (std::int64_t c = 0; c < chunks; ++c) {
        Rng chunk_rng(hash_combine(base, static_cast<std::uint64_t>(c)));
        const std::int64_t k1 =
            std::min<std::int64_t>((c + 1) * chunk_kernels, kernels);
        std::int64_t i = c * chunk_kernels * per_kernel;
        for (std::int64_t k = c * chunk_kernels; k < k1; ++k) {
            const double gain =
                std::exp(chunk_rng.gaussian(profile.kernel_gain_sigma));
            const double scale = profile.scale * gain;
            for (std::int64_t j = 0; j < per_kernel; ++j, ++i) {
                if (chunk_rng.bernoulli(profile.zero_probability)) {
                    out[i] = 0;
                    continue;
                }
                const double x =
                    profile.distribution == WeightDistribution::kLaplacian
                    ? chunk_rng.laplacian(scale)
                    : chunk_rng.gaussian(scale);
                int code = static_cast<int>(round_half_away(x));
                if (code == 0 &&
                    chunk_rng.bernoulli(profile.zero_avoidance)) {
                    code = chunk_rng.bernoulli(0.5) ? 1 : -1;
                }
                out[i] = static_cast<std::int8_t>(
                    std::clamp(code, kSignMagMin, kSignMagMax));
            }
        }
    }
    return out;
}

/// The oracle's code for one exact sample, zero avoidance aside.
int
oracle_code(double x)
{
    return std::clamp(static_cast<int>(round_half_away(x)), kSignMagMin,
                      kSignMagMax);
}

/// Runs @p check(variant) for every variant the CPU supports, then
/// reports SKIPPED naming the ones it lacks.
template <class Check>
void
for_every_supported_variant(Check &&check)
{
    std::string skipped;
    for (const detail::RefillVariant &variant : detail::refill_variants()) {
        if (!variant.supported) {
            skipped += std::string(skipped.empty() ? "" : ", ") + variant.name;
            continue;
        }
        SCOPED_TRACE(variant.name);
        check(variant);
    }
    if (!skipped.empty()) {
        GTEST_SKIP() << "not run, this CPU lacks: " << skipped;
    }
}

TEST(Synthesis, EveryLogVariantMatchesThePerWeightOracle)
{
    // Byte for byte against the per-weight loop, on profiles that reach
    // every branch: scale 0.2 (mostly zeros) to 400 (mostly clamped),
    // every weight dropped or none, zero avoidance off, partial and
    // certain, flat and wide kernel gains. Kernel lengths cover ragged
    // vector tails (1, 7, 9), batch flushes (300, 4608) and kernels that
    // span a 312-draw refill; 16 kernels of 4608 make two chunks.
    struct Size
    {
        std::int64_t kernels, per_kernel;
    };
    const Size sizes[] = {{40, 1},  {40, 7},   {40, 9},
                          {40, 64}, {20, 300}, {16, 4608}};
    std::vector<WeightProfile> profiles;
    for (const auto distribution :
         {WeightDistribution::kLaplacian, WeightDistribution::kGaussian}) {
        for (const double scale : {0.2, 5.0, 400.0}) {
            for (const double drop : {0.0, 0.3, 1.0}) {
                for (const double avoid : {0.0, 0.8, 1.0}) {
                    for (const double gain_sigma : {0.0, 2.0}) {
                        WeightProfile p;
                        p.distribution = distribution;
                        p.scale = scale;
                        p.zero_probability = drop;
                        p.zero_avoidance = avoid;
                        p.kernel_gain_sigma = gain_sigma;
                        profiles.push_back(p);
                    }
                }
            }
        }
    }
    std::uint64_t seed = 1;
    std::vector<std::pair<WeightProfile, LayerDesc>> cases;
    std::vector<Int8Tensor> want;
    std::vector<std::uint64_t> next_draw;
    for (const WeightProfile &p : profiles) {
        for (const Size &size : sizes) {
            const LayerDesc desc =
                make_linear("l", size.kernels, size.per_kernel);
            Rng rng(seed++);
            want.push_back(oracle_synthesize_weights(desc, p, rng));
            next_draw.push_back(rng.engine()());
            cases.emplace_back(p, desc);
        }
    }
    for_every_supported_variant([&](const detail::RefillVariant &variant) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
            const auto &[p, desc] = cases[c];
            Rng rng(c + 1);
            std::int64_t exact = 0;
            const Int8Tensor got =
                detail::synthesize_weights(desc, p, rng, variant, exact);
            ASSERT_EQ(got, want[c])
                << "case " << c << ": " << desc.to_string() << ", scale "
                << p.scale << ", drop " << p.zero_probability << ", avoid "
                << p.zero_avoidance << ", gain sigma "
                << p.kernel_gain_sigma;
            ASSERT_EQ(rng.engine()(), next_draw[c]) << "case " << c;
        }
    });
}

TEST(Synthesis, BatchRoundsEveryBoundaryLikeTheExactExpression)
{
    // The fallbacks fire almost never on real tensors, so draws are
    // placed on them: at, and 1-4 ULP around, every |x| = k + 1/2 for
    // k = 0..127 (k = 0 is the zero threshold), and at relative offsets
    // from 0.5 that the walk's bracket leaves to the in-house log.
    // Every code must be the exact expression's, and the fallbacks must
    // have fired.
    const auto around = [](double v, auto &&emit) {
        for (int ulps = -4; ulps <= 4; ++ulps) {
            double w = v;
            for (int u = 0; u < std::abs(ulps); ++u) {
                w = std::nextafter(w, ulps < 0 ? 0.0 : 2.0);
            }
            emit(w);
        }
    };
    std::vector<double> targets;
    for (int k = 0; k <= 127; ++k) {
        targets.push_back(k + 0.5);
    }
    for (const double rel : {1e-8, 1e-6, 1e-4, 1e-2, 0.1}) {
        targets.push_back(0.5 * (1.0 - rel));
        targets.push_back(0.5 * (1.0 + rel));
    }
    for_every_supported_variant([&](const detail::RefillVariant &variant) {
        std::int64_t exact = 0;
        for (const double b : {0.3, 1.0, 4.18, 24.0, 100.0}) {
            // Laplacian: |x| = b * -ln t, so t = exp(-|x| / b).
            std::vector<double> t, sign, want;
            for (const double target : targets) {
                around(std::exp(-target / b), [&](double v) {
                    if (v >= 1e-300 && v <= 1.0) {
                        t.push_back(v);
                        sign.push_back(t.size() % 2 ? 1.0 : -1.0);
                        want.push_back(oracle_code(Rng::laplacian_finish(
                            b, {sign.back(), v}, std::log(v))));
                    }
                });
            }
            std::vector<std::int8_t> got(t.size());
            exact += detail::weight_codes(WeightDistribution::kLaplacian, b,
                                          t, sign, got, variant);
            for (std::size_t i = 0; i < t.size(); ++i) {
                ASSERT_EQ(got[i], want[i])
                    << "Laplacian b " << b << " t " << t[i];
            }
            // Gaussian: |x| = |y| * sqrt(-2 ln r2 / r2) * sigma, solved
            // for y at several r2, then y and r2 moved by ULPs.
            std::vector<double> r2s, ys;
            want.clear();
            for (const double r2 : {1e-6, 0.05, 0.5, 0.9, 0.999}) {
                const double mult = std::sqrt(-2 * std::log(r2) / r2);
                for (const double target : targets) {
                    const double y = target / (mult * b);
                    if (y * y > r2) {
                        continue;
                    }
                    around(y, [&](double yv) {
                        around(r2, [&](double rv) {
                            r2s.push_back(rv);
                            ys.push_back(r2s.size() % 2 ? yv : -yv);
                            want.push_back(oracle_code(Rng::gaussian_finish(
                                b, {ys.back(), rv}, std::log(rv))));
                        });
                    });
                }
            }
            got.assign(r2s.size(), 0);
            exact += detail::weight_codes(WeightDistribution::kGaussian, b,
                                          r2s, ys, got, variant);
            for (std::size_t i = 0; i < r2s.size(); ++i) {
                ASSERT_EQ(got[i], want[i]) << "Gaussian sigma " << b
                                           << " r2 " << r2s[i] << " y "
                                           << ys[i];
            }
        }
        EXPECT_GT(exact, 0) << "no draw reached a fallback";
    });
}

TEST(Synthesis, ActivationsRespectReluAndSparsity)
{
    Rng rng(9);
    const auto t = synthesize_activations({4096}, 0.4, 12.0, true, rng);
    int zeros = 0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_GE(t[i], 0);
        zeros += t[i] == 0;
    }
    EXPECT_NEAR(zeros / 4096.0, 0.4, 0.06);
}

// ----------------------------------------------------- reference kernels ---

TEST(Reference, DotProduct)
{
    const std::int8_t a[4] = {1, -2, 3, 127};
    const std::int8_t b[4] = {5, 6, -7, 127};
    EXPECT_EQ(dot_int8(a, b, 4), 5 - 12 - 21 + 16129);
}

TEST(Reference, Conv1x1MatchesMatmul)
{
    // A 1x1 convolution over a 1x1 feature map is a plain matmul.
    const auto d = make_pointwise("pw", 3, 4, 1, 1);
    Int8Tensor in({1, 4, 1, 1}, {1, 2, 3, 4});
    Int8Tensor wts({3, 1, 1, 4},
                   {1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1});
    const auto out = conv2d_int8(d, in, wts);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 10);
}

TEST(Reference, ConvIdentityKernel)
{
    // 3x3 kernel with a single centre 1: output equals the centre crop.
    const auto d = make_conv("c", 1, 1, 2, 2, 3, 3);
    Int8Tensor in({1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) {
        in[i] = static_cast<std::int8_t>(i);
    }
    Int8Tensor wts({1, 3, 3, 1});
    wts.at({0, 1, 1, 0}) = 1;
    const auto out = conv2d_int8(d, in, wts);
    EXPECT_EQ(out[0], in.at({0, 0, 1, 1}));
    EXPECT_EQ(out[3], in.at({0, 0, 2, 2}));
}

TEST(Reference, StridedConvSamplesCorrectWindows)
{
    const auto d = make_conv("c", 1, 1, 2, 2, 1, 1, 2);
    Int8Tensor in({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Int8Tensor wts({1, 1, 1, 1}, {2});
    const auto out = conv2d_int8(d, in, wts);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(out[1], 6);
    EXPECT_EQ(out[2], 14);
    EXPECT_EQ(out[3], 18);
}

TEST(Reference, DepthwiseKeepsChannelsSeparate)
{
    const auto d = make_depthwise("dw", 2, 1, 1, 1);
    Int8Tensor in({1, 2, 1, 1}, {3, 5});
    Int8Tensor wts({2, 1, 1}, {2, -1});
    const auto out = depthwise_conv2d_int8(d, in, wts);
    EXPECT_EQ(out[0], 6);
    EXPECT_EQ(out[1], -5);
}

TEST(Reference, LinearMatchesManual)
{
    const auto d = make_linear("fc", 2, 3, 2);
    Int8Tensor in({2, 3}, {1, 2, 3, 4, 5, 6});
    Int8Tensor wts({2, 3}, {1, 1, 1, -1, 0, 1});
    const auto out = linear_int8(d, in, wts);
    EXPECT_EQ(out[0], 6);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 15);
    EXPECT_EQ(out[3], 2);
}

TEST(Reference, RequantizeSaturates)
{
    Int32Tensor acc({3}, {1000000, -1000000, 64});
    const auto q = requantize_accumulators(acc, 6);
    EXPECT_EQ(q[0], 127);
    EXPECT_EQ(q[1], -127);
    EXPECT_EQ(q[2], 1);
}

TEST(Reference, LayerForwardDispatch)
{
    Rng rng(3);
    for (auto kind_desc :
         {make_conv("c", 4, 8, 3, 3, 3, 3), make_depthwise("d", 4, 3, 3, 3),
          make_linear("l", 4, 8, 2), make_lstm("m", 4, 8, 2)}) {
        WeightProfile p;
        const auto wts = synthesize_weights(kind_desc, p, rng);
        const auto in = synthesize_activations(
            layer_input_shape(kind_desc), 0.2, 10.0, false, rng);
        const auto out = layer_forward_int8(kind_desc, in, wts);
        EXPECT_GT(out.numel(), 0) << kind_desc.to_string();
    }
}

// ------------------------------------------------------- accuracy proxy ---

TEST(AccuracyProxy, UnmodifiedWeightsGiveBaseMetric)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    std::vector<Int8Tensor> weights;
    for (const auto &l : w.layers) {
        weights.push_back(l.weights);
    }
    EXPECT_DOUBLE_EQ(proxy.metric_for(weights), w.base_metric);
}

TEST(AccuracyProxy, ZeroedLayerIsWorseThanPerturbedLayer)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    const std::size_t idx = w.layer_index("LSTM.0");
    Int8Tensor zeroed(w.layers[idx].weights.shape());
    Int8Tensor nudged = w.layers[idx].weights;
    for (std::int64_t i = 0; i < nudged.numel(); i += 17) {
        nudged[i] = static_cast<std::int8_t>(
            std::max(-127, nudged[i] - 1));
    }
    const double m_zero = proxy.metric_with_layer(idx, zeroed);
    const double m_nudge = proxy.metric_with_layer(idx, nudged);
    EXPECT_LT(m_zero, m_nudge);
    EXPECT_LT(m_nudge, proxy.base_metric());
}

TEST(AccuracyProxy, EarlyLayersAreMoreSensitive)
{
    // The Fig. 6 observation: the same distortion costs more in early
    // layers than late layers.
    const auto &w = get_workload(WorkloadId::kResNet18);
    AccuracyProxy proxy(w);
    EXPECT_GT(proxy.depth_weight(1), proxy.depth_weight(w.layers.size() - 1));
}

TEST(AccuracyProxy, RelErrorIsZeroForIdenticalWeights)
{
    const auto &w = get_workload(WorkloadId::kCnnLstm);
    AccuracyProxy proxy(w);
    EXPECT_DOUBLE_EQ(proxy.layer_rel_error(0, w.layers[0].weights), 0.0);
}

}  // namespace
}  // namespace bitwave
