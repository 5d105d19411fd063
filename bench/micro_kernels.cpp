/**
 * @file
 * Micro-kernel bench — scalar vs packed bit-plane kernels on a
 * BERT-scale tensor (3072 x 768 ffn projection, ~2.4M weights).
 *
 * Times the element-at-a-time oracles against the word-parallel kernels
 * that replaced them on every hot path (flat and row-aligned bit-column
 * statistics, BCS compress, Bit-Flip), and
 * verifies bit-identical results in the same run, and closes with a
 * `runner_scaling` row timing the runner's chunk-cursor pool serial vs
 * parallel on a warm batch, the serial cost of one uniform draw (param
 * `uniform_ns_per_draw`, with the refill variant that drew it in
 * `rng_refill_isa`), of synthesizing the tensor and a ResNet18
 * (Laplacian) one (params `synthesis_ns_per_weight`,
 * `synthesis_cnn_ns_per_weight`; the share of their codes std::log
 * settled in `synthesis_exact_frac`, and the variant that finished the
 * rest with the in-house log in `synthesis_isa`) and of flipping a
 * CNN-profile tensor and BERT-Base's `layer.0.ffn_in` (params
 * `bitflip_ns_per_weight`, `bitflip_bert_ns_per_weight`), plus
 * `fault_branch` / `metrics_record` rows measuring the cost of a
 * disarmed fault point and a disarmed gated histogram record (the
 * robustness and observability layers' zero-overhead claims), each the
 * median of interleaved pairs. Emits BENCH_micro_kernels.json; CI
 * validates the JSON and the equivalence flags like the other bench
 * reports.
 */
#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "bitflip/bitflip.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/worksteal.hpp"
#include "compress/bcs.hpp"
#include "compress/csr.hpp"
#include "compress/zre.hpp"
#include "nn/layer.hpp"
#include "nn/synthesis.hpp"
#include "sparsity/bitcolumn.hpp"
#include "tensor/bitplane.hpp"

using namespace bitwave;

namespace {

/// Best-of-3 wall time of @p fn in milliseconds.
double
time_ms(const std::function<void()> &fn)
{
    double best = 1e300;
    for (int r = 0; r < 3; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        best = std::min(best, ms);
    }
    return best;
}

/// What a loop body adds to a bare loop: the median wall times of both
/// loops and the median of their per-pair differences, per iteration.
struct Overhead
{
    double bare_ms;
    double pointed_ms;
    double ns_per_iter;
};

/**
 * Time @p bare and @p pointed (the same @p iters-iteration loop, with
 * the body under test) in kPairs interleaved pairs, and take medians.
 * Both runs of a pair share the machine's state, so drift between
 * pairs cancels in their difference; a difference of two best-of-3
 * times did not cancel it and spread up to 2.7x between runs.
 */
Overhead
paired_overhead(std::size_t iters, const std::function<void()> &bare,
                const std::function<void()> &pointed)
{
    constexpr int kPairs = 15;
    const auto ms_of = [](const std::function<void()> &fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<double> bare_ms, pointed_ms, diff_ms;
    for (int r = 0; r < kPairs; ++r) {
        bare_ms.push_back(ms_of(bare));
        pointed_ms.push_back(ms_of(pointed));
        diff_ms.push_back(pointed_ms.back() - bare_ms.back());
    }
    const auto median = [](std::vector<double> v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    return {median(bare_ms), median(pointed_ms),
            median(diff_ms) * 1e6 / static_cast<double>(iters)};
}

void
report(bench::JsonReport &json, Table &table, const std::string &kernel,
       double scalar_ms, double packed_ms, bool identical)
{
    const double speedup = packed_ms > 0.0 ? scalar_ms / packed_ms : 0.0;
    table.add_row({kernel, strprintf("%.2f", scalar_ms),
                   strprintf("%.2f", packed_ms),
                   strprintf("%.2fx", speedup), identical ? "yes" : "NO"});
    json.add_row({{"kernel", kernel},
                  {"scalar_ms", scalar_ms},
                  {"packed_ms", packed_ms},
                  {"speedup", speedup},
                  {"identical", identical}});
}

bool
same_stats(const BitColumnStats &a, const BitColumnStats &b)
{
    if (a.groups != b.groups || a.columns != b.columns ||
        a.zero_columns != b.zero_columns) {
        return false;
    }
    for (int z = 0; z <= 8; ++z) {
        if (a.zero_column_hist[z] != b.zero_column_hist[z]) {
            return false;
        }
    }
    return true;
}

/// Layer @p name of benchmark network @p id: its shape and synthesis
/// profile, weights not yet drawn.
WorkloadLayer
network_layer(WorkloadId id, const std::string &name)
{
    const Workload skeleton = build_workload_skeleton(id);
    return skeleton.layers[skeleton.layer_index(name)];
}

/// Serial cost in ns per weight of @p fn over @p weights weights: best
/// of 3 inside a single-worker frame, so nested loops (synthesis
/// chunks, Bit-Flip groups) stay on this core.
double
serial_ns_per_weight(std::int64_t weights, const std::function<void()> &fn)
{
    double ns = 0.0;
    worksteal_for(
        1,
        [&](std::size_t) {
            ns = time_ms(fn) * 1e6 / static_cast<double>(weights);
        },
        /*threads=*/1);
    return ns;
}

}  // namespace

int
main()
{
    bench::banner("Micro-kernels",
                  "scalar vs packed bit-plane kernels, BERT-scale tensor");
    bench::JsonReport json("micro_kernels");

    // BERT ffn_in-scale tensor with a transformer-ish profile.
    const LayerDesc desc = make_linear("ffn_in", 3072, 768);
    WeightProfile profile;
    profile.distribution = WeightDistribution::kGaussian;
    profile.scale = 24.0;
    profile.zero_probability = 0.005;
    profile.kernel_gain_sigma = 0.3;
    Rng rng(0xBEEF);
    const Int8Tensor w = synthesize_weights(desc, profile, rng);

    const int group = 16;
    const auto repr = Representation::kSignMagnitude;
    json.param("tensor", desc.to_string());
    json.param("elements", w.numel());
    json.param("group_size", group);
    json.param("repr", representation_name(repr));

    Table table({"kernel", "scalar ms", "packed ms", "speedup",
                 "identical"});

    // Pack once; the packed kernels below reuse the planes, which is how
    // every production path consumes them (per-tensor content cache).
    BitPlanes planes;
    const double pack_ms =
        time_ms([&] { planes = pack_bitplanes(w, repr); });
    json.add_row({{"kernel", "pack_bitplanes"},
                  {"scalar_ms", 0.0},
                  {"packed_ms", pack_ms},
                  {"speedup", 0.0},
                  {"identical", true}});
    table.add_row({"pack_bitplanes (one-time)", "-",
                   strprintf("%.2f", pack_ms), "-", "yes"});

    // Bit-column statistics over flat groups (which carry the BCS sizes).
    BitColumnStats flat;
    {
        BitColumnStats s;
        const double scalar_ms = time_ms([&] {
            s = analyze_bit_columns_scalar(w, group, w.numel(), repr);
        });
        const double packed_ms = time_ms(
            [&] { flat = analyze_bit_columns(planes, group, planes.n); });
        report(json, table, "analyze_bit_columns", scalar_ms, packed_ms,
               same_stats(s, flat));
    }

    {  // BCS stream materialization; its size must be the histogram's.
        BcsCompressed s, p;
        const double scalar_ms = time_ms([&] {
            s = bcs_compress_scalar(w, group, w.numel(), repr);
        });
        const double packed_ms = time_ms([&] {
            p = bcs_compress(planes, w.shape(), group, planes.n);
        });
        bool identical = s.groups.size() == p.groups.size() &&
            flat.bcs_bits() == p.compressed_bits();
        for (std::size_t i = 0; identical && i < s.groups.size(); ++i) {
            identical = s.groups[i].index == p.groups[i].index &&
                s.groups[i].columns == p.groups[i].columns;
        }
        report(json, table, "bcs_compress", scalar_ms, packed_ms,
               identical);
    }

    {  // Row-aligned bit-column statistics (the analytical model's
       // occupancy histogram, at the tensor's row length).
        const std::int64_t row_len = weight_row_geometry(desc).row_len;
        BitColumnStats s, p;
        const double scalar_ms = time_ms([&] {
            s = analyze_bit_columns_scalar(w, group, row_len, repr);
        });
        const double packed_ms = time_ms(
            [&] { p = analyze_bit_columns(planes, group, row_len); });
        report(json, table, "analyze_bit_columns_rows", scalar_ms,
               packed_ms, same_stats(s, p));
    }

    {  // ZRE encoding (SWAR non-zero mask scan vs per-element walk).
        ZreCompressed s, p;
        const double scalar_ms =
            time_ms([&] { s = zre_compress_scalar(w); });
        const double packed_ms = time_ms([&] { p = zre_compress(w); });
        bool identical = s.entries.size() == p.entries.size();
        for (std::size_t i = 0; identical && i < s.entries.size(); ++i) {
            identical = s.entries[i].zero_run == p.entries[i].zero_run &&
                s.entries[i].value == p.entries[i].value;
        }
        report(json, table, "zre_compress", scalar_ms, packed_ms,
               identical);
    }

    {  // CSR encoding (bit-plane non-zero mask scan vs element walk).
        CsrCompressed s, p;
        const double scalar_ms =
            time_ms([&] { s = csr_compress_scalar(w, w.dim(0)); });
        // Production path (eval engine) reuses already-packed 2C
        // planes, so the pack is not on the timed path here either.
        const BitPlanes p2c =
            pack_bitplanes(w, Representation::kTwosComplement);
        const double packed_ms =
            time_ms([&] { p = csr_compress(p2c, w, w.dim(0)); });
        report(json, table, "csr_compress", scalar_ms, packed_ms,
               s.values == p.values && s.col_indices == p.col_indices &&
                   s.row_ptr == p.row_ptr);
    }

    {  // Bit-Flip (all-candidate greedy vs per-element scoring).
        const int target = 5;
        Int8Tensor fast = w, scalar = w;
        const auto flip_with =
            [&](Int8Tensor &t,
                GroupFlipResult (*kernel)(std::span<std::int8_t>, int)) {
                const std::int64_t n = t.numel();
                for (std::int64_t start = 0; start < n; start += group) {
                    const std::int64_t len =
                        std::min<std::int64_t>(group, n - start);
                    kernel({t.data() + start,
                            static_cast<std::size_t>(len)},
                           target);
                }
            };
        const double scalar_ms = time_ms([&] {
            scalar = w;
            flip_with(scalar, bitflip_group_scalar);
        });
        const double packed_ms = time_ms([&] {
            fast = w;
            flip_with(fast, bitflip_group);
        });
        report(json, table, "bitflip_group", scalar_ms, packed_ms,
               fast == scalar);
    }

    // ------------------------------------------------ runner scaling ---
    // Not a bit-plane kernel: the runner's chunk-cursor pool, timed as
    // 1-thread vs N-thread wall on a small warm analytical batch so the
    // kernel report also tracks the scheduler. "scalar" is the serial
    // run, "packed" the parallel one; `identical` asserts the N-thread
    // results match the serial ones bit for bit.
    {
        std::vector<eval::Scenario> batch;
        for (const WorkloadId id :
             {WorkloadId::kMobileNetV2, WorkloadId::kCnnLstm}) {
            eval::Scenario s;
            s.engine = eval::EngineKind::kAnalytical;
            s.workload = id;
            batch.push_back(std::move(s));
        }
        const auto run_with = [&](int threads) {
            eval::RunnerOptions options;
            options.threads = threads;
            return eval::ScenarioRunner(options).run(batch);
        };
        const auto golden = run_with(1);  // warm every cache, untimed
        const int threads = static_cast<int>(std::max(
            2u, std::thread::hardware_concurrency()));
        std::vector<eval::ScenarioResult> serial, parallel;
        const double serial_ms = time_ms([&] { serial = run_with(1); });
        const double parallel_ms =
            time_ms([&] { parallel = run_with(threads); });
        bool identical = serial.size() == golden.size() &&
                         parallel.size() == golden.size();
        for (std::size_t i = 0; identical && i < golden.size(); ++i) {
            identical = serial[i].total_cycles == golden[i].total_cycles &&
                        parallel[i].total_cycles ==
                            golden[i].total_cycles &&
                        serial[i].energy.total_pj ==
                            golden[i].energy.total_pj &&
                        parallel[i].energy.total_pj ==
                            golden[i].energy.total_pj;
        }
        report(json, table, "runner_scaling", serial_ms, parallel_ms,
               identical);
    }

    // ------------------------------------------------------ uniform ---
    // Serial cost of one Rng::uniform(), the draw under every
    // synthesized weight: best of 3 over 2^24 draws, folded into a local
    // XOR so the loop carries no floating-point or memory dependency.
    // Published, not gated.
    double uniform_ns = 0.0;
    {
        constexpr std::size_t kDraws = std::size_t{1} << 24;
        Rng uniform_rng(0xBEEF);
        volatile std::uint64_t sink = 0;
        const double ms = time_ms([&] {
            std::uint64_t fold = 0;
            for (std::size_t i = 0; i < kDraws; ++i) {
                fold ^= std::bit_cast<std::uint64_t>(uniform_rng.uniform());
            }
            sink = fold;
        });
        uniform_ns = ms * 1e6 / static_cast<double>(kDraws);
    }
    json.param("uniform_ns_per_draw", uniform_ns);
    json.param("rng_refill_isa", detail::active_refill().name);

    // ---------------------------------------------------- synthesis ---
    // Serial cost of synthesizing one weight: the ffn_in tensor above
    // again (Gaussian) and ResNet18's `l4.0.conv2` (Laplacian, what
    // cold_sweep draws). Published, not gated.
    const double synthesis_ns = serial_ns_per_weight(w.numel(), [&] {
        Rng synth_rng(0xBEEF);
        synthesize_weights(desc, profile, synth_rng);
    });
    json.param("synthesis_ns_per_weight", synthesis_ns);
    const WorkloadLayer l4 =
        network_layer(WorkloadId::kResNet18, "l4.0.conv2");
    const double synthesis_cnn_ns = serial_ns_per_weight(
        shape_numel(WorkloadLayer::weight_shape(l4.desc)), [&] {
            Rng synth_rng(0xBEEF);
            synthesize_weights(l4.desc, l4.profile, synth_rng);
        });
    json.param("synthesis_cnn_ns_per_weight", synthesis_cnn_ns);
    // The share of both tensors' codes that std::log settled (the zero
    // test's band and the rounding's window); CI fails a fast path that
    // silently falls back.
    double synthesis_exact_frac = 0.0;
    {
        const detail::RefillVariant &variant = detail::active_refill();
        std::int64_t exact = 0;
        Rng ffn_rng(0xBEEF), cnn_rng(0xBEEF);
        const std::int64_t codes =
            detail::synthesize_weights(desc, profile, ffn_rng, variant,
                                       exact)
                .numel() +
            detail::synthesize_weights(l4.desc, l4.profile, cnn_rng,
                                       variant, exact)
                .numel();
        synthesis_exact_frac =
            static_cast<double>(exact) / static_cast<double>(codes);
        json.param("synthesis_exact_frac", synthesis_exact_frac);
        json.param("synthesis_isa", variant.name);
    }

    // ----------------------------------------------------- Bit-Flip ---
    // Serial cost of flipping one weight: at g16/z4 on a ResNet-scale
    // conv tensor drawn from a CNN (Laplacian) profile, and at g16/z5
    // on BERT-Base's `layer.0.ffn_in`, the grid flagship's twin.
    // Published, not gated.
    double bitflip_ns = 0.0;
    {
        const LayerDesc conv = make_conv("conv", 256, 256, 14, 14, 3, 3);
        WeightProfile cnn;  // Laplacian, as cnn_profile() draws
        cnn.scale = 5.0;
        cnn.zero_probability = 0.05;
        cnn.zero_avoidance = 0.8;
        Rng cnn_rng(0xBEEF);
        const Int8Tensor cw = synthesize_weights(conv, cnn, cnn_rng);
        bitflip_ns = serial_ns_per_weight(
            cw.numel(), [&] { bitflip_tensor(cw, 16, 4); });
    }
    json.param("bitflip_ns_per_weight", bitflip_ns);
    double bitflip_bert_ns = 0.0;
    {
        const WorkloadLayer ffn =
            network_layer(WorkloadId::kBertBase, "layer.0.ffn_in");
        Rng ffn_rng(0xBEEF);
        const Int8Tensor fw =
            synthesize_weights(ffn.desc, ffn.profile, ffn_rng);
        bitflip_bert_ns = serial_ns_per_weight(
            fw.numel(), [&] { bitflip_tensor(fw, 16, 5); });
    }
    json.param("bitflip_bert_ns_per_weight", bitflip_bert_ns);

    // ------------------------------------------------- fault branch ---
    // Cost of a *disarmed* fault point — the robustness acceptance
    // criterion is that carrying the fault model adds no measurable
    // overhead in production. "scalar" is a bare accumulation loop,
    // "packed" the same loop with a BITWAVE_FAULT_POINT in the body
    // (one relaxed atomic load + never-taken branch per iteration).
    constexpr std::size_t kOverheadIters = 20'000'000;
    {
        fault::reset();  // make sure nothing is armed
        volatile std::uint64_t guard = 0;
        std::uint64_t acc = 0;
        const Overhead o = paired_overhead(
            kOverheadIters,
            [&] {
                std::uint64_t sum = 0;
                for (std::size_t i = 0; i < kOverheadIters; ++i) {
                    sum += i ^ guard;
                }
                acc ^= sum;
            },
            [&] {
                std::uint64_t sum = 0;
                for (std::size_t i = 0; i < kOverheadIters; ++i) {
                    BITWAVE_FAULT_POINT("micro.bench");  // never fires
                    sum += i ^ guard;
                }
                acc ^= sum;
            });
        guard = acc;
        report(json, table, "fault_branch", o.bare_ms, o.pointed_ms, true);
        json.param("fault_branch_ns_per_check", o.ns_per_iter);
    }

    // ----------------------------------------------- metrics record ---
    // Cost of a *disarmed* gated-histogram record — the observability
    // layer's zero-overhead claim mirrors the fault-branch one: every
    // hot path carries its histogram, and while metrics are off the
    // record is one relaxed load + never-taken branch. "scalar" is the
    // bare loop, "packed" the same loop with a record() in the body.
    {
        metrics::set_enabled(false);  // defeat any BITWAVE_METRICS arm
        metrics::Histogram &hist =
            metrics::histogram("bench.metrics_record");
        const std::uint64_t before = hist.snapshot().count;
        volatile std::uint64_t guard = 0;
        std::uint64_t acc = 0;
        const Overhead o = paired_overhead(
            kOverheadIters,
            [&] {
                std::uint64_t sum = 0;
                for (std::size_t i = 0; i < kOverheadIters; ++i) {
                    sum += i ^ guard;
                }
                acc ^= sum;
            },
            [&] {
                std::uint64_t sum = 0;
                for (std::size_t i = 0; i < kOverheadIters; ++i) {
                    hist.record(i & 0xFF);  // no-op while disarmed
                    sum += i ^ guard;
                }
                acc ^= sum;
            });
        guard = acc;
        // Disarmed records must not land; one armed record must.
        bool ok = hist.snapshot().count == before;
        metrics::set_enabled(true);
        hist.record(42);
        ok = ok && hist.snapshot().count == before + 1;
        metrics::set_enabled(false);
        report(json, table, "metrics_record", o.bare_ms, o.pointed_ms, ok);
        json.param("metrics_disarmed_ns_per_record", o.ns_per_iter);
    }

    std::printf("%s", table.render().c_str());
    std::printf("\nSerial uniform draw: %.2f ns (%s refill).\n",
                uniform_ns, detail::active_refill().name);
    std::printf("Serial weight synthesis: %.1f ns per weight (BERT "
                "ffn_in), %.1f (ResNet18 l4.0.conv2); std::log settled "
                "%.2g of the codes (%s log).\n",
                synthesis_ns, synthesis_cnn_ns, synthesis_exact_frac,
                detail::active_refill().name);
    std::printf("Serial Bit-Flip: %.1f ns per weight (g16/z4, CNN "
                "profile), %.1f (g16/z5, BERT-Base ffn_in).\n",
                bitflip_ns, bitflip_bert_ns);
    std::printf("\nPacked kernels read 64 weights per word; the pack is "
                "one transpose per tensor, cached by content hash in "
                "production paths.\n");
    return 0;
}
