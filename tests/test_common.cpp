/**
 * @file
 * Unit tests for the common utilities: sign-magnitude codec, bit helpers,
 * RNG distributions and their standard-library oracle, build-once cache
 * entries, the table renderer, and the chunk-cursor execution core
 * (coverage, cancellation, inline bypass, idle workers, chaos chunk
 * order).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <optional>

#include "common/bits.hpp"
#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "common/metrics.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "common/worksteal.hpp"

namespace bitwave {
namespace {

TEST(SignMagnitude, EncodesPositiveValuesUnchanged)
{
    for (int v = 0; v <= 127; ++v) {
        EXPECT_EQ(to_sign_magnitude(static_cast<std::int8_t>(v)),
                  static_cast<std::uint8_t>(v));
    }
}

TEST(SignMagnitude, EncodesNegativeValuesWithSignBit)
{
    EXPECT_EQ(to_sign_magnitude(-1), 0x81);
    EXPECT_EQ(to_sign_magnitude(-3), 0x83);
    EXPECT_EQ(to_sign_magnitude(-127), 0xFF);
}

TEST(SignMagnitude, ClampsMinusOneTwentyEight)
{
    // -128 has no 7-bit magnitude; the codec clamps to -127 as the
    // hardware does.
    EXPECT_EQ(to_sign_magnitude(std::int8_t{-128}), 0xFF);
}

TEST(SignMagnitude, RoundTripsAllRepresentableValues)
{
    for (int v = -127; v <= 127; ++v) {
        const auto sm = to_sign_magnitude(static_cast<std::int8_t>(v));
        EXPECT_EQ(from_sign_magnitude(sm), v);
    }
}

TEST(SignMagnitude, BothZeroEncodingsDecodeToZero)
{
    EXPECT_EQ(from_sign_magnitude(0x00), 0);
    EXPECT_EQ(from_sign_magnitude(0x80), 0);
}

TEST(SignMagnitude, PaperExampleMinusThree)
{
    // Fig. 4(c): -3 in SM is 1000'0011.
    EXPECT_EQ(to_binary_string(to_sign_magnitude(-3)), "10000011");
}

TEST(Bits, PopcountMatchesManualCount)
{
    EXPECT_EQ(popcount8(0x00), 0);
    EXPECT_EQ(popcount8(0xFF), 8);
    EXPECT_EQ(popcount8(0xA5), 4);
}

TEST(Bits, TwosComplementBitCountOfNegatives)
{
    // -1 = 0xFF has 8 ones; small negative values have many leading ones,
    // the effect that ruins 2C bit-column sparsity (Section III-A).
    EXPECT_EQ(bit_count_twos_complement(-1), 8);
    EXPECT_EQ(bit_count_twos_complement(-2), 7);
    EXPECT_EQ(bit_count_sign_magnitude(-1), 2);
    EXPECT_EQ(bit_count_sign_magnitude(-2), 2);
}

TEST(Bits, SmallNegativesSparserInSignMagnitude)
{
    // SM never needs more bits than 2C for negatives, and strictly fewer
    // in aggregate over the small-magnitude range that dominates weights.
    int sm_total = 0, tc_total = 0;
    for (int v = -16; v < 0; ++v) {
        const int sm = bit_count_sign_magnitude(static_cast<std::int8_t>(v));
        const int tc = bit_count_twos_complement(static_cast<std::int8_t>(v));
        EXPECT_LE(sm, tc) << "value " << v;
        sm_total += sm;
        tc_total += tc;
    }
    EXPECT_LT(sm_total, tc_total);
}

TEST(Bits, CountTableMatchesTheHelpersOnEveryByte)
{
    // The table is built at compile time from the helpers; a byte
    // indexes the int8 value with the same bit pattern.
    static_assert(kBitCounts[0xFF].twos_complement == 8);  // -1
    static_assert(kBitCounts[0xFF].sign_magnitude == 2);
    static_assert(kBitCounts[0x80].sign_magnitude == 8);  // -128 -> -127
    for (int byte = 0; byte < 256; ++byte) {
        const auto value = static_cast<std::int8_t>(byte);
        const BitCounts counts = kBitCounts[static_cast<std::size_t>(byte)];
        EXPECT_EQ(counts.twos_complement, bit_count_twos_complement(value))
            << "byte " << byte;
        EXPECT_EQ(counts.sign_magnitude, bit_count_sign_magnitude(value))
            << "byte " << byte;
        // And both against a bit-by-bit count of the encodings.
        const int magnitude = std::min(std::abs(int{value}), 127);
        int tc = 0, sm = value < 0 ? 1 : 0;
        for (int b = 0; b < kWordBits; ++b) {
            tc += (byte >> b) & 1;
            sm += b < kMagnitudeBits ? (magnitude >> b) & 1 : 0;
        }
        EXPECT_EQ(counts.in(Representation::kTwosComplement), tc)
            << "byte " << byte;
        EXPECT_EQ(counts.in(Representation::kSignMagnitude), sm)
            << "byte " << byte;
    }
}

TEST(Bits, TestBitAndBinaryString)
{
    const std::uint8_t w = 0b10001100;
    EXPECT_TRUE(test_bit(w, 7));
    EXPECT_TRUE(test_bit(w, 3));
    EXPECT_TRUE(test_bit(w, 2));
    EXPECT_FALSE(test_bit(w, 0));
    EXPECT_EQ(to_binary_string(w), "10001100");
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceil_div(0, 8), 0);
    EXPECT_EQ(ceil_div(1, 8), 1);
    EXPECT_EQ(ceil_div(8, 8), 1);
    EXPECT_EQ(ceil_div(9, 8), 2);
}

TEST(Bits, RoundHalfAwayMatchesLround)
{
    // Each edge is checked with both signs (0.0 yields -0.0).
    const double edges[] = {0.5, 1.5, 2.5, 0.49999999999999994, 0x1p52 - 0.5,
                            0x1p52, 0x1p62, 0.0};
    for (const double x : edges) {
        EXPECT_EQ(round_half_away(x), std::lround(x)) << x;
        EXPECT_EQ(round_half_away(-x), std::lround(-x)) << -x;
    }
    for (int k = -300; k <= 300; ++k) {
        const double x = k + 0.5;
        ASSERT_EQ(round_half_away(x), std::lround(x)) << x;
    }
    Rng rng(3);
    for (int i = 0; i < 1'000'000; ++i) {
        const double x = (rng.uniform() - 0.5) * 600.0;
        ASSERT_EQ(round_half_away(x), std::lround(x)) << x;
    }
}

/// The exact bits of @p x: stream comparisons must not forgive an ULP.
std::uint64_t
bits_of(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(Rng, IsDeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(bits_of(a.uniform()), bits_of(b.uniform()));
    }
}

// The oracle tests pin Rng to the stream it had when it wrapped the
// standard engine and built a fresh standard distribution per call:
// every synthesized weight depends on it, bit for bit.

TEST(Rng, EngineMatchesTheStandardMt19937_64)
{
    for (const std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL, ~0ULL}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 1'000'000; ++i) {
            ASSERT_EQ(ours(), oracle()) << "seed " << seed << " draw " << i;
        }
    }
}

TEST(Rng, EveryRefillVariantMatchesTheStandardOracle)
{
    // Each compiled refill the CPU can run, called directly on a state
    // seeded as [rand.eng.mers] seeds it: its tempered words must be the
    // standard engine's and its uniforms generate_canonical's, over
    // > 10^6 draws per seed. The engine runs only one variant, so this
    // is the only test that reaches the others.
    constexpr std::size_t n = detail::kStateWords;
    constexpr std::size_t kDigits = std::numeric_limits<double>::digits;
    constexpr int kBlocks = 1'000'000 / static_cast<int>(n) + 1;
    std::string skipped;
    for (const detail::RefillVariant &variant : detail::refill_variants()) {
        if (!variant.supported) {
            skipped += std::string(skipped.empty() ? "" : ", ") + variant.name;
            continue;
        }
        for (const std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL, ~0ULL}) {
            std::array<std::uint64_t, n> state;
            std::array<double, n> canonical;
            state[0] = seed;
            for (std::size_t i = 1; i < n; ++i) {
                const std::uint64_t x = state[i - 1];
                state[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
            }
            std::mt19937_64 words(seed), uniforms(seed);
            for (int b = 0; b < kBlocks; ++b) {
                variant.refill(state.data(), canonical.data());
                for (std::size_t k = 0; k < n; ++k) {
                    const double want =
                        std::generate_canonical<double, kDigits>(uniforms);
                    ASSERT_EQ(detail::temper(state[k]), words())
                        << variant.name << " seed " << seed << " block "
                        << b << " word " << k;
                    ASSERT_EQ(bits_of(canonical[k]), bits_of(want))
                        << variant.name << " seed " << seed << " block "
                        << b << " word " << k;
                }
            }
        }
    }
    // The engine runs the widest variant the CPU supports.
    const auto variants = detail::refill_variants();
    const auto widest = std::find_if(
        variants.begin(), variants.end(),
        [](const detail::RefillVariant &v) { return v.supported; });
    ASSERT_NE(widest, variants.end());
    EXPECT_EQ(&detail::active_refill(), &*widest);
    EXPECT_TRUE(variants.back().supported);
    if (!skipped.empty()) {
        GTEST_SKIP() << "not run, this CPU lacks: " << skipped;
    }
}

TEST(Rng, EveryLogVariantStaysWithinTwoUlp)
{
    // The in-house log against glibc's, in every variant the CPU runs:
    // weight synthesis rounds its fast samples only outside a 1e-9
    // window around each half-integer, which needs |x| <= 128 to move by
    // far less than that. 2 ULP of the log moves such an x by < 1e-13.
    // Inputs: every binade from 2^-997 (~1e-300) to 1, densely near 1,
    // and every power of two with its neighbours. The Laplacian finisher
    // at scale -1, sign +1 returns the log itself.
    std::vector<double> x;
    Rng rng(21);
    for (int e = -997; e < 0; ++e) {
        for (int i = 0; i < 64; ++i) {
            x.push_back(std::ldexp(1.0 + rng.uniform(), e));
        }
        double p = std::ldexp(1.0, e);
        for (int u = 0; u < 4; ++u) {
            p = std::nextafter(p, 0.0);
        }
        for (int u = 0; u < 9; ++u, p = std::nextafter(p, 1.0)) {
            x.push_back(p);
        }
    }
    double below = 1.0;
    for (int i = 0; i < 100'000; ++i) {
        below = std::nextafter(below, 0.0);
        x.push_back(below);
    }
    for (double gap = 1e-16; gap < 0.5; gap *= 1.01) {
        x.push_back(1.0 - gap);
    }
    x.push_back(1.0);
    x.push_back(1e-300);
    const std::vector<double> sign(x.size(), 1.0);
    std::vector<double> first;
    std::string skipped;
    for (const detail::RefillVariant &variant : detail::refill_variants()) {
        if (!variant.supported) {
            skipped += std::string(skipped.empty() ? "" : ", ") + variant.name;
            continue;
        }
        std::vector<double> ln(x.size());
        variant.laplacian(-1.0, x.data(), sign.data(), ln.data(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double want = std::log(x[i]);
            const std::int64_t ulps = std::abs(
                static_cast<std::int64_t>(bits_of(ln[i]) - bits_of(want)));
            ASSERT_LE(ulps, 2) << variant.name << " ln(" << x[i] << ") = "
                               << ln[i] << ", glibc " << want;
        }
        // The variants run one body: the same bits at every width.
        if (first.empty()) {
            first = ln;
        }
        for (std::size_t i = 0; i < x.size(); ++i) {
            ASSERT_EQ(bits_of(ln[i]), bits_of(first[i]))
                << variant.name << " ln(" << x[i] << ")";
        }
    }
    if (!skipped.empty()) {
        GTEST_SKIP() << "not run, this CPU lacks: " << skipped;
    }
}

TEST(Rng, CanonicalMatchesGenerateCanonical)
{
    // A scripted generator feeds generate_canonical the edge draws: the
    // extremes, values that round up to 1.0 (the clamp), round-to-even
    // ties below and above the sign bit, and their neighbours.
    struct Scripted
    {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type value = 0;
        result_type operator()() { return value; }
    };
    constexpr std::size_t kDigits = std::numeric_limits<double>::digits;
    Scripted scripted;
    const auto expect_canonical = [&](std::uint64_t v) {
        scripted.value = v;
        const double oracle =
            std::generate_canonical<double, kDigits>(scripted);
        EXPECT_EQ(bits_of(Rng::canonical(v)), bits_of(oracle)) << v;
    };
    const std::uint64_t bases[] = {0, 1ULL << 53, 1ULL << 62, 1ULL << 63,
                                   ~0ULL - 0xFFF};
    for (const std::uint64_t base : bases) {
        for (std::uint64_t d = 0; d < 0x1000; ++d) {
            expect_canonical(base + d);
        }
    }
    Rng rng(9);
    for (int i = 0; i < 100'000; ++i) {
        expect_canonical(rng.engine()());
    }
}

TEST(Rng, StreamMatchesTheStandardOracle)
{
    // Rng's definitions before it carried its own engine, over the
    // standard engine: a fresh distribution per call.
    std::mt19937_64 engine(0x5eed);
    const auto uniform = [&] {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    };
    const auto gaussian = [&](double sigma) {
        return std::normal_distribution<double>(0.0, sigma)(engine);
    };
    const auto laplacian = [&](double b) {
        double u = uniform() - 0.5;
        const double sign = u < 0 ? -1.0 : 1.0;
        u = std::abs(u);
        const double t = std::max(1.0 - 2.0 * u, 1e-300);
        return -b * sign * std::log(t);
    };
    const auto uniform_int = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
    };
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kLo[] = {-3, 0, -128, 0, kMin};
    constexpr std::int64_t kHi[] = {3, 63, 127, std::int64_t{1} << 40, kMax};

    // >= 10^6 calls cycling through every method, parameters varying.
    Rng rng(0x5eed);
    for (int i = 0; i < 1'200'000; ++i) {
        const double scale = 0.25 + (i % 97) * 0.5;
        const double p = (i % 101) / 100.0;
        const std::size_t r = static_cast<std::size_t>(i / 6) % 5;
        std::uint64_t ours = 0, want = 0;
        switch (i % 6) {
            case 0:
                ours = bits_of(rng.uniform());
                want = bits_of(uniform());
                break;
            case 1:
                ours = bits_of(rng.gaussian(scale));
                want = bits_of(gaussian(scale));
                break;
            case 2:
                ours = bits_of(rng.laplacian(scale));
                want = bits_of(laplacian(scale));
                break;
            case 3:
                ours = rng.bernoulli(p);
                want = uniform() < p;
                break;
            case 4:
                ours = static_cast<std::uint64_t>(
                    rng.uniform_int(kLo[r], kHi[r]));
                want = static_cast<std::uint64_t>(uniform_int(kLo[r], kHi[r]));
                break;
            default:
                ours = rng.engine()();
                want = engine();
                break;
        }
        ASSERT_EQ(ours, want) << "call " << i;
    }
}

TEST(Rng, ShuffleMatchesTheStandardEngine)
{
    std::vector<int> ours(1000), oracle(1000);
    std::iota(ours.begin(), ours.end(), 0);
    std::iota(oracle.begin(), oracle.end(), 0);
    Rng rng(7);
    std::mt19937_64 engine(7);
    for (int round = 0; round < 20; ++round) {
        std::shuffle(ours.begin(), ours.end(), rng.engine());
        std::shuffle(oracle.begin(), oracle.end(), engine);
        ASSERT_EQ(ours, oracle) << "round " << round;
    }
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, LaplacianHasHeavyPeakAtZero)
{
    Rng rng(11);
    int small = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (std::abs(rng.laplacian(1.0)) < 0.7) {
            ++small;
        }
    }
    // P(|X| < 0.7) = 1 - exp(-0.7) ~ 0.503 for a unit Laplacian.
    EXPECT_NEAR(static_cast<double>(small) / n, 0.503, 0.03);
}

TEST(Rng, GaussianMeanAndSigma)
{
    Rng rng(13);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.gaussian(2.0);
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.1);
    EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.1);
}

// ---------------------------------------------------------- build once ---

TEST(BuildOnce, ThrowingCacheBuildRetriesOnTheNextRequest)
{
    // A throwing build leaves its entry resident but unbuilt: the next
    // request for the key builds it, and later ones hit the value.
    LruCache<int, int> cache(4);
    int builds = 0;
    const auto failing = [&]() -> int {
        ++builds;
        throw std::runtime_error("build");
    };
    const auto eleven = [&] {
        ++builds;
        return 11;
    };
    EXPECT_THROW(cache.get_or_build(1, failing), std::runtime_error);
    bool hit = false;
    EXPECT_EQ(*cache.get_or_build(1, eleven, &hit), 11);
    EXPECT_TRUE(hit);
    EXPECT_EQ(*cache.get_or_build(1, eleven), 11);
    EXPECT_EQ(builds, 2);
}

TEST(BuildOnce, RacingCallersSurviveAThrowingFirstBuild)
{
    // Two threads race on a key whose first build throws. The thread
    // that sees the throw asks again; either it or its rival builds the
    // value, exactly once more, and both end up holding it.
    for (int round = 0; round < 50; ++round) {
        LruCache<int, int> cache(4);
        std::atomic<int> builds{0};
        const auto build = [&] {
            if (builds.fetch_add(1, std::memory_order_relaxed) == 0) {
                throw std::runtime_error("first build");
            }
            return 7;
        };
        std::atomic<int> arrived{0};
        int got[2] = {};
        int throws[2] = {};
        const auto racer = [&](int t) {
            arrived.fetch_add(1, std::memory_order_relaxed);
            while (arrived.load(std::memory_order_relaxed) < 2) {
                std::this_thread::yield();
            }
            for (;;) {
                try {
                    got[t] = *cache.get_or_build(1, build);
                    return;
                } catch (const std::runtime_error &) {
                    ++throws[t];
                }
            }
        };
        std::thread a(racer, 0), b(racer, 1);
        a.join();
        b.join();
        EXPECT_EQ(got[0], 7);
        EXPECT_EQ(got[1], 7);
        EXPECT_EQ(builds.load(), 2);
        EXPECT_EQ(throws[0] + throws[1], 1);
    }
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
    EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
    EXPECT_EQ(fmt_ratio(2.5, 2), "2.50x");
}

// --------------------------------------------------- chunk-cursor core ---

TEST(Worksteal, EveryIndexRunsExactlyOnce)
{
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> counts(n);
    const auto stats = worksteal_for(
        n, [&](std::size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        },
        /*threads=*/4);
    EXPECT_EQ(stats.threads_used, 4);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
    }
}

TEST(Worksteal, RangeBodyCoversDisjointGrainChunks)
{
    const std::size_t n = 1003;  // not a multiple of the grain
    std::vector<std::atomic<int>> counts(n);
    WorkstealOptions options;
    options.threads = 3;
    options.grain = 16;
    const auto stats = worksteal_run(
        n,
        [&](std::size_t begin, std::size_t end) {
            EXPECT_LT(begin, end);
            EXPECT_LE(end - begin, options.grain);
            for (std::size_t i = begin; i < end; ++i) {
                counts[i].fetch_add(1, std::memory_order_relaxed);
            }
        },
        options);
    EXPECT_EQ(stats.chunks, 63);  // ceil(1003 / 16)
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
    }
}

TEST(Worksteal, SingleThreadRunsInlineOnTheCaller)
{
    // BITWAVE_THREADS=1 (here: explicit threads=1) must bypass pool
    // construction entirely: every iteration runs on the calling thread.
    const auto caller = std::this_thread::get_id();
    int calls = 0;
    const auto stats = worksteal_for(
        64,
        [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++calls;  // unsynchronized on purpose: single-threaded
        },
        /*threads=*/1);
    EXPECT_EQ(calls, 64);
    EXPECT_EQ(stats.threads_used, 1);
}

TEST(Worksteal, ThreadsEnvOverrideOfOneRunsInline)
{
    ASSERT_EQ(setenv("BITWAVE_THREADS", "1", 1), 0);
    EXPECT_EQ(parallel_threads(1000), 1);
    const auto caller = std::this_thread::get_id();
    worksteal_for(256, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    ASSERT_EQ(unsetenv("BITWAVE_THREADS"), 0);
}

TEST(Worksteal, FirstExceptionWinsAndCancelsSiblings)
{
    // Index 0 throws; every other index waits until the thrower has
    // started, then costs ~50us. With the per-chunk cancel flag the
    // pool must stop long before draining all n items.
    const std::size_t n = 2000;
    std::atomic<bool> thrown{false};
    std::atomic<std::int64_t> executed{0};
    try {
        worksteal_for(
            n,
            [&](std::size_t i) {
                if (i == 0) {
                    thrown.store(true, std::memory_order_relaxed);
                    throw std::runtime_error("boom");
                }
                while (!thrown.load(std::memory_order_relaxed)) {
                    std::this_thread::yield();
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                executed.fetch_add(1, std::memory_order_relaxed);
            },
            /*threads=*/4);
        FAIL() << "exception must propagate to the caller";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    // Cancellation is checked per chunk: siblings stop at their next
    // boundary instead of draining the cursor.
    EXPECT_LT(executed.load(), static_cast<std::int64_t>(n) / 2)
        << "siblings kept draining after the failure";
}

TEST(Worksteal, AdversarialSchedulerStillCoversEverything)
{
    const std::size_t n = 4096;
    for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
        std::vector<std::atomic<int>> counts(n);
        WorkstealOptions options;
        options.threads = 4;
        options.grain = 8;
        options.chaos_seed = seed;
        const auto stats = worksteal_run(
            n,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    counts[i].fetch_add(1, std::memory_order_relaxed);
                }
            },
            options);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(counts[i].load(), 1)
                << "seed " << seed << " index " << i;
        }
        EXPECT_GE(stats.chunks, static_cast<std::int64_t>(n / 8));
    }
}

TEST(Worksteal, IdleWorkersDoNotSpin)
{
    // Four one-item chunks on four workers, and index 0 sleeps 200 ms.
    // A worker that finds the cursor past the last chunk returns and
    // waits in join; three workers spinning until the sleeper ends
    // would cost ~0.6 s of process CPU time.
    const std::clock_t cpu0 = std::clock();
    worksteal_for(
        4,
        [](std::size_t i) {
            if (i == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(200));
            }
        },
        /*threads=*/4);
    const double cpu_seconds =
        static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
    EXPECT_LT(cpu_seconds, 0.1);
}

TEST(Worksteal, ChaosSeedPermutesChunkOrder)
{
    // Two workers record the chunks they run, in the order they run
    // them. Each worker claims in cursor order, so without a chaos seed
    // its sequence ascends; a chaos seed hands the cursor positions a
    // seeded permutation of the chunks, and the sequences run out of
    // order.
    const auto descents = [](std::uint64_t seed) {
        std::mutex mutex;
        std::map<std::thread::id, std::vector<std::size_t>> runs;
        WorkstealOptions options;
        options.threads = 2;
        options.chaos_seed = seed;
        worksteal_run(
            256,
            [&](std::size_t begin, std::size_t) {
                const std::lock_guard<std::mutex> lock(mutex);
                runs[std::this_thread::get_id()].push_back(begin);
            },
            options);
        std::size_t chunks = 0, count = 0;
        for (const auto &[worker, begins] : runs) {
            chunks += begins.size();
            for (std::size_t k = 1; k < begins.size(); ++k) {
                count += begins[k] < begins[k - 1] ? 1 : 0;
            }
        }
        EXPECT_EQ(chunks, 256u) << "seed " << seed;
        return count;
    };
    EXPECT_EQ(descents(0), 0u);
    for (const std::uint64_t seed : {1ull, 42ull, 0xD15EA5Eull}) {
        EXPECT_GE(descents(seed), 32u) << "seed " << seed;
    }
}

TEST(Worksteal, NestedLoopsRunInline)
{
    // A worksteal_for reached from inside a worker executes serially on
    // that worker — no threads x threads explosion, every index still
    // covered exactly once.
    const std::size_t outer = 16, inner = 64;
    std::vector<std::atomic<int>> counts(outer * inner);
    worksteal_for(
        outer,
        [&](std::size_t o) {
            const auto worker = std::this_thread::get_id();
            worksteal_for(inner, [&](std::size_t i) {
                EXPECT_EQ(std::this_thread::get_id(), worker);
                counts[o * inner + i].fetch_add(
                    1, std::memory_order_relaxed);
            });
        },
        /*threads=*/4);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
    }
}

TEST(Worksteal, SingleWorkerLoopKeepsNestedLoopsOnTheCaller)
{
    // A loop bounded to one worker uses one core: a loop nested in its
    // body — even one asking for four workers — runs inline on the
    // calling thread, as it would inside a pool worker.
    const auto caller = std::this_thread::get_id();
    const std::size_t outer = 4, inner = 64;
    std::vector<std::atomic<int>> counts(outer * inner);
    std::atomic<int> off_caller{0};
    worksteal_for(
        outer,
        [&](std::size_t o) {
            worksteal_for(
                inner,
                [&](std::size_t i) {
                    if (std::this_thread::get_id() != caller) {
                        off_caller.fetch_add(1, std::memory_order_relaxed);
                    }
                    counts[o * inner + i].fetch_add(
                        1, std::memory_order_relaxed);
                },
                /*threads=*/4);
        },
        /*threads=*/1);
    EXPECT_EQ(off_caller.load(), 0);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
    }

    // The mark ends with the loop, also when its body throws: a loop
    // started afterwards fans out again.
    EXPECT_THROW(worksteal_for(
                     8, [](std::size_t) { throw std::runtime_error("x"); },
                     /*threads=*/1),
                 std::runtime_error);
    const auto after = worksteal_for(64, [](std::size_t) {}, /*threads=*/4);
    EXPECT_EQ(after.threads_used, 4);
}

// -------------------------------------------------------------- env ---

TEST(Env, PositiveIntParsesStrictlyAndFallsBack)
{
    ::setenv("BITWAVE_TEST_KNOB", "12", 1);
    EXPECT_EQ(env_positive_int("BITWAVE_TEST_KNOB", 3), 12);

    // Unset and empty are the silent "use the default" states.
    ::unsetenv("BITWAVE_TEST_KNOB");
    EXPECT_EQ(env_positive_int("BITWAVE_TEST_KNOB", 3), 3);
    ::setenv("BITWAVE_TEST_KNOB", "", 1);
    EXPECT_EQ(env_positive_int("BITWAVE_TEST_KNOB", 3), 3);

    // Leading whitespace follows strtoll and is accepted.
    ::setenv("BITWAVE_TEST_KNOB", " 4", 1);
    EXPECT_EQ(env_positive_int("BITWAVE_TEST_KNOB", 3), 4);

    // Garbage, partial parses and non-positive values fall back (after
    // a once-per-variable warning).
    for (const char *bad : {"4x", "x4", "0", "-2", "3.5"}) {
        ::setenv("BITWAVE_TEST_KNOB", bad, 1);
        EXPECT_EQ(env_positive_int("BITWAVE_TEST_KNOB", 7), 7) << bad;
    }
    ::unsetenv("BITWAVE_TEST_KNOB");
}

TEST(Env, StringKnob)
{
    ::setenv("BITWAVE_TEST_DIR", "/tmp/somewhere", 1);
    EXPECT_EQ(env_string("BITWAVE_TEST_DIR"), "/tmp/somewhere");
    ::unsetenv("BITWAVE_TEST_DIR");
    EXPECT_EQ(env_string("BITWAVE_TEST_DIR"), "");
}

// ------------------------------------------------------------- queue ---

TEST(MpmcQueue, FifoWithinASingleProducer)
{
    MpmcQueue<int> q(8);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(q.push(i), QueuePush::kAccepted);
    }
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        int out = -1;
        ASSERT_TRUE(q.try_pop(&out));
        EXPECT_EQ(out, i);
    }
    int out;
    EXPECT_FALSE(q.try_pop(&out));
}

TEST(MpmcQueue, TryPushReportsFull)
{
    MpmcQueue<int> q(2);
    EXPECT_EQ(q.try_push(1), QueuePush::kAccepted);
    EXPECT_EQ(q.try_push(2), QueuePush::kAccepted);
    EXPECT_EQ(q.try_push(3), QueuePush::kFull);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.peak_size(), 2u);
}

TEST(MpmcQueue, ShedOldestEvictsTheHeadAtomically)
{
    MpmcQueue<int> q(2);
    (void)q.try_push(1);
    (void)q.try_push(2);
    std::optional<int> shed;
    EXPECT_EQ(q.push_shed_oldest(3, &shed), QueuePush::kAccepted);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(*shed, 1);
    int out = 0;
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out, 2);
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out, 3);
}

TEST(MpmcQueue, CloseHasDrainSemantics)
{
    MpmcQueue<int> q(4);
    (void)q.try_push(41);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_push(42), QueuePush::kClosed);
    // Consumers drain what was admitted before the close...
    int out = 0;
    EXPECT_TRUE(q.pop(&out));
    EXPECT_EQ(out, 41);
    // ...then see end-of-stream instead of blocking forever.
    EXPECT_FALSE(q.pop(&out));
    EXPECT_FALSE(q.pop_for(&out, 0.001));
}

TEST(MpmcQueue, PopForTimesOutOnAnEmptyQueue)
{
    MpmcQueue<int> q(4);
    int out = 0;
    EXPECT_FALSE(q.pop_for(&out, 0.001));
    (void)q.try_push(9);
    EXPECT_TRUE(q.pop_for(&out, 0.001));
    EXPECT_EQ(out, 9);
}

TEST(MpmcQueue, ConcurrentProducersAndConsumersLoseNothing)
{
    // 4 producers x 4 consumers over a deliberately tiny queue: every
    // pushed value is popped exactly once and blocking push provides
    // the backpressure.
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
    MpmcQueue<int> q(8);
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_EQ(q.push(p * kPerProducer + i),
                          QueuePush::kAccepted);
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            int v = 0;
            while (q.pop(&v)) {
                seen[static_cast<std::size_t>(v)].fetch_add(
                    1, std::memory_order_relaxed);
            }
        });
    }
    for (int p = 0; p < kProducers; ++p) {
        threads[static_cast<std::size_t>(p)].join();
    }
    q.close();
    for (int c = 0; c < kConsumers; ++c) {
        threads[static_cast<std::size_t>(kProducers + c)].join();
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        ASSERT_EQ(seen[i].load(), 1) << "value " << i;
    }
    EXPECT_LE(q.peak_size(), 8u);
}

TEST(MpmcQueue, ConcurrentCloseWithShedPushersAndBlockedPoppers)
{
    // The shutdown race the service relies on: shed-oldest producers
    // hammering a tiny queue, consumers blocking on pop, and close()
    // landing in the middle. Every popper must wake (drain semantics,
    // no hang), every accepted-and-not-shed value must be popped
    // exactly once, and post-close pushes must bounce as kClosed.
    constexpr int kPushers = 4, kPoppers = 4, kPerPusher = 300;
    MpmcQueue<int> q(4);
    std::vector<std::atomic<int>> seen(kPushers * kPerPusher);
    std::atomic<int> accepted{0}, shed_count{0}, closed_count{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kPushers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerPusher; ++i) {
                std::optional<int> shed;
                switch (q.push_shed_oldest(p * kPerPusher + i, &shed)) {
                  case QueuePush::kAccepted:
                    accepted.fetch_add(1, std::memory_order_relaxed);
                    break;
                  case QueuePush::kClosed:
                    closed_count.fetch_add(1, std::memory_order_relaxed);
                    break;
                  case QueuePush::kFull:
                    ADD_FAILURE() << "shed-oldest must never report full";
                    break;
                }
                if (shed.has_value()) {
                    // An evicted value counts as consumed: the service
                    // resolves it as kShed.
                    seen[static_cast<std::size_t>(*shed)].fetch_add(
                        1, std::memory_order_relaxed);
                    shed_count.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (int c = 0; c < kPoppers; ++c) {
        threads.emplace_back([&] {
            int v = 0;
            while (q.pop(&v)) {
                seen[static_cast<std::size_t>(v)].fetch_add(
                    1, std::memory_order_relaxed);
            }
        });
    }
    // Close mid-flight, while pushers are still pushing and poppers may
    // be blocked: from here pushers see kClosed and poppers drain out.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    for (auto &t : threads) {
        t.join();
    }
    // Drain whatever the poppers left behind after close.
    int v = 0;
    while (q.try_pop(&v)) {
        seen[static_cast<std::size_t>(v)].fetch_add(
            1, std::memory_order_relaxed);
    }

    int consumed = 0;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        ASSERT_LE(seen[i].load(), 1) << "value " << i << " popped twice";
        consumed += seen[i].load();
    }
    EXPECT_EQ(consumed, accepted.load())
        << "every accepted value is popped or shed exactly once";
    EXPECT_EQ(accepted.load() + closed_count.load(),
              kPushers * kPerPusher);
}

// ------------------------------------------------------------- fault ---

TEST(Fault, DisarmedPointsCostOneBranchAndNeverFire)
{
    fault::reset();
    EXPECT_FALSE(fault::enabled());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_NO_THROW(BITWAVE_FAULT_POINT("test.disarmed"));
    }
}

TEST(Fault, SpecArmsPointsByNameAndWildcard)
{
    fault::configure("test.always=1:error,other.point=0.5", 42);
    EXPECT_TRUE(fault::enabled());
    EXPECT_THROW(BITWAVE_FAULT_POINT("test.always"), FaultError);
    fault::configure("*=1:error", 42);
    EXPECT_THROW(BITWAVE_FAULT_POINT("test.some.new.point"), FaultError);
    fault::reset();
    EXPECT_FALSE(fault::enabled());
    EXPECT_NO_THROW(BITWAVE_FAULT_POINT("test.always"));
}

/// The kind one draw of point @p name throws; nullopt when it does not
/// fire.
std::optional<ErrorKind>
draw(const char *name, std::uint64_t context = 0)
{
    try {
        fault::fire(fault::register_point(name), context);
    } catch (const FaultError &e) {
        return e.kind();
    }
    return std::nullopt;
}

TEST(Fault, EveryKindThrowsItsTaxonomyKind)
{
    // `transient` (the default kind) is retryable; `error` is not.
    fault::configure("test.transient=1,test.error=1:error", 7);
    EXPECT_EQ(draw("test.transient"), ErrorKind::kTransient);
    EXPECT_EQ(draw("test.error"), ErrorKind::kInternal);
    fault::reset();
}

TEST(Fault, DrawsAreSeededAndDeterministic)
{
    // Same (spec, seed) => the same invocations fire; different seed
    // => (almost surely) a different firing pattern at p = 0.3.
    const auto pattern = [](std::uint64_t seed) {
        fault::configure("test.seeded=0.3:error", seed);
        std::vector<bool> fired;
        fired.reserve(64);
        for (int i = 0; i < 64; ++i) {
            fired.push_back(draw("test.seeded").has_value());
        }
        fault::reset();
        return fired;
    };
    // configure() restarts the per-point draw stream, so the same
    // (spec, seed) replays bit-for-bit.
    const auto a = pattern(123);
    const auto b = pattern(123);
    const auto c = pattern(456);
    EXPECT_TRUE(std::count(a.begin(), a.end(), true) > 0);
    EXPECT_TRUE(std::count(a.begin(), a.end(), false) > 0);
    EXPECT_EQ(a, b);
    EXPECT_NE(c, a);
}

TEST(Fault, ContextTagRestrictsFiring)
{
    // `point@tag=...` fires only for call sites passing the matching
    // context hash — the mechanism the chaos tests use to poison one
    // scenario of a batch.
    fault::configure("test.tagged@poison=1:error", 3);
    EXPECT_TRUE(
        draw("test.tagged", fault::context_tag("poison")).has_value());
    EXPECT_FALSE(
        draw("test.tagged", fault::context_tag("innocent")).has_value());
    EXPECT_FALSE(draw("test.tagged").has_value());
    fault::reset();
}

TEST(Fault, MalformedSpecEntriesAreSkipped)
{
    // Bad entries warn once and are ignored; good entries in the same
    // spec still arm. There is no `delay` kind.
    fault::configure("nonsense,=0.5,test.ok=1:error,p=2.0,p=0.5:bogus,"
                     "test.slow=1:delay:50",
                     1);
    EXPECT_EQ(draw("test.ok"), ErrorKind::kInternal);
    EXPECT_FALSE(draw("p").has_value());
    EXPECT_FALSE(draw("test.slow").has_value());
    fault::reset();
}

TEST(Fault, StatsCountChecksAndFires)
{
    fault::configure("test.counted=1:error", 9);
    const auto before = fault::stats();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(draw("test.counted"), ErrorKind::kInternal);
    }
    const auto after = fault::stats();
    EXPECT_EQ(after.checks, before.checks + 10);
    EXPECT_EQ(after.fired, before.fired + 10);
    EXPECT_EQ(after.errors, before.errors + 10);
    EXPECT_EQ(after.transients, before.transients);
    fault::reset();
}

// ----------------------------------------------------------- logging ---

TEST(Logging, SinkCapturesWarnAndWarnOnceDedupes)
{
    std::vector<std::string> lines;
    auto previous = set_log_sink(
        [&](LogLevel, const std::string &message) {
            lines.push_back(message);
        });
    warn("plain warning %d", 1);
    warn_once("test-key-a", "once %d", 2);
    warn_once("test-key-a", "once %d", 3);  // deduped
    warn_once("test-key-b", "other key %d", 4);
    set_log_sink(std::move(previous));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "plain warning 1");
    EXPECT_EQ(lines[1], "once 2");
    EXPECT_EQ(lines[2], "other key 4");
}

TEST(Logging, ThreadOrdinalsAreStableAndDistinct)
{
    const int mine = thread_ordinal();
    EXPECT_GE(mine, 0);
    EXPECT_EQ(thread_ordinal(), mine);  // stable within a thread
    int other = -1;
    std::thread([&] { other = thread_ordinal(); }).join();
    EXPECT_GE(other, 0);
    EXPECT_NE(other, mine);
    EXPECT_GE(log_uptime_seconds(), 0.0);
}

// ----------------------------------------------------------- metrics ---

TEST(Metrics, RegistryHandlesAreStableAndShared)
{
    metrics::Counter &a = metrics::counter("test.metrics.counter_a");
    metrics::Counter &b = metrics::counter("test.metrics.counter_a");
    EXPECT_EQ(&a, &b);  // same name, same metric
    const std::uint64_t before = a.value();
    a.inc();
    a.inc(4);
    EXPECT_EQ(a.value(), before + 5);
    EXPECT_EQ(metrics::counter_value("test.metrics.counter_a"),
              a.value());
    EXPECT_EQ(metrics::counter_value("test.metrics.no_such_counter"),
              0u);
}

TEST(Metrics, HistogramBucketsPartitionTheValueRange)
{
    // Values below 16 get an exact bucket each.
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(metrics::Histogram::bucket_index(v),
                  static_cast<int>(v));
        EXPECT_EQ(metrics::Histogram::bucket_lower_bound(
                      static_cast<int>(v)),
                  v);
    }
    // Lower bounds strictly increase: the buckets tile the range.
    for (int i = 1; i < metrics::kHistogramBuckets; ++i) {
        EXPECT_LT(metrics::Histogram::bucket_lower_bound(i - 1),
                  metrics::Histogram::bucket_lower_bound(i));
    }
    // Every probe value lands in the bucket whose range contains it.
    const std::uint64_t probes[] = {16,
                                    17,
                                    100,
                                    1000,
                                    123456,
                                    std::uint64_t{1} << 30,
                                    (std::uint64_t{1} << 48) - 1,
                                    std::uint64_t{1} << 60};
    for (const std::uint64_t v : probes) {
        const int idx = metrics::Histogram::bucket_index(v);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, metrics::kHistogramBuckets);
        EXPECT_GE(v, metrics::Histogram::bucket_lower_bound(idx));
        if (idx + 1 < metrics::kHistogramBuckets) {
            EXPECT_LT(v,
                      metrics::Histogram::bucket_lower_bound(idx + 1));
        }
    }
}

TEST(Metrics, GatedHistogramIsANoOpWhileDisarmed)
{
    const bool was_enabled = metrics::enabled();
    metrics::set_enabled(false);
    metrics::Histogram &gated =
        metrics::histogram("test.metrics.gated_hist");
    const std::uint64_t before = gated.snapshot().count;
    gated.record(123);
    EXPECT_EQ(gated.snapshot().count, before);  // disarmed: dropped
    metrics::set_enabled(true);
    gated.record(123);
    EXPECT_EQ(gated.snapshot().count, before + 1);
    metrics::set_enabled(false);

    metrics::Histogram always{false};  // ungated: always records
    always.record(7);
    EXPECT_EQ(always.snapshot().count, 1u);
    metrics::set_enabled(was_enabled);
}

TEST(Metrics, HistogramQuantilesInterpolate)
{
    metrics::Histogram h{false};
    EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
    for (std::uint64_t v = 0; v < 100; ++v) {
        h.record(v);
    }
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.sum, 4950u);
    EXPECT_NEAR(snap.mean(), 49.5, 1e-9);
    // Log buckets bound the quantile error to one quarter-octave.
    EXPECT_NEAR(snap.quantile(0.10), 10.0, 3.0);
    EXPECT_NEAR(snap.quantile(0.50), 50.0, 13.0);
    EXPECT_NEAR(snap.quantile(0.99), 99.0, 25.0);
    EXPECT_LE(snap.quantile(0.25), snap.quantile(0.75));
}

TEST(Metrics, ConcurrentChurnAgainstSnapshotReadersIsExact)
{
    const bool was_enabled = metrics::enabled();
    metrics::set_enabled(true);
    metrics::Counter &c = metrics::counter("test.metrics.churn_counter");
    metrics::Histogram &h =
        metrics::histogram("test.metrics.churn_hist");
    const std::uint64_t c0 = c.value();
    const std::uint64_t h0 = h.snapshot().count;

    constexpr int kWriters = 4;
    constexpr int kPerWriter = 10000;
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            for (int i = 0; i < kPerWriter; ++i) {
                c.inc();
                h.record(static_cast<std::uint64_t>(i) & 0xFF);
            }
        });
    }
    std::thread reader([&] {
        while (!done.load()) {
            const auto snap = metrics::snapshot();
            (void)metrics::render_prometheus(snap);
            (void)metrics::render_json(snap);
            std::this_thread::yield();
        }
    });
    go.store(true);
    for (auto &w : writers) {
        w.join();
    }
    done.store(true);
    reader.join();

    EXPECT_EQ(c.value(), c0 + kWriters * kPerWriter);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, h0 + kWriters * kPerWriter);
    std::uint64_t bucket_total = 0;
    for (const auto b : snap.buckets) {
        bucket_total += b;
    }
    EXPECT_EQ(bucket_total, snap.count);
    metrics::set_enabled(was_enabled);
}

namespace {

/// True when every brace/bracket in @p s closes in order.
bool
balanced_json_delimiters(const std::string &s)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            stack.push_back(c);
        } else if (c == '}' || c == ']') {
            if (stack.empty()) {
                return false;
            }
            const char open = stack.back();
            stack.pop_back();
            if ((c == '}') != (open == '{')) {
                return false;
            }
        }
    }
    return stack.empty() && !in_string;
}

}  // namespace

TEST(Metrics, RendersPrometheusAndJson)
{
    const bool was_enabled = metrics::enabled();
    metrics::set_enabled(true);
    metrics::counter("test.render.requests").inc(3);
    metrics::histogram("test.render.lat_ns").record(1000);
    metrics::set_enabled(was_enabled);

    const auto snap = metrics::snapshot();
    const std::string prom = metrics::render_prometheus(snap);
    EXPECT_NE(prom.find("# TYPE bitwave_test_render_requests counter"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE bitwave_test_render_lat_ns histogram"),
              std::string::npos);
    EXPECT_NE(prom.find("bitwave_test_render_lat_ns_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("bitwave_test_render_lat_ns_sum 1000"),
              std::string::npos);

    const std::string json = metrics::render_json(snap);
    EXPECT_TRUE(balanced_json_delimiters(json)) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.render.requests\":3"),
              std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ------------------------------------------------------------- trace ---

namespace {

std::atomic<std::uint64_t> g_fake_ns{0};

/// Deterministic test clock: each call advances time by exactly 1 µs.
std::uint64_t
fake_clock()
{
    return g_fake_ns.fetch_add(1000) + 1000;
}

}  // namespace

TEST(Trace, FakeClockPinsSpanStructureExactly)
{
    trace::stop();
    trace::clear();
    g_fake_ns.store(0);
    trace::set_clock(&fake_clock);
    trace::start();
    {
        trace::Span outer("test.outer", "test");  // now_ns -> 1000
        outer.arg("answer", 42);
        trace::instant("test.mark", "test", "k", 7);  // now_ns -> 2000
    }  // destructor: now_ns -> 3000
    trace::stop();
    trace::set_clock(nullptr);

    const auto events = trace::snapshot_events();
    ASSERT_EQ(events.size(), 2u);
    const trace::Event &outer = events[0];
    EXPECT_STREQ(outer.name, "test.outer");
    EXPECT_STREQ(outer.cat, "test");
    EXPECT_EQ(outer.phase, 'X');
    EXPECT_EQ(outer.ts_ns, 1000u);
    EXPECT_EQ(outer.dur_ns, 2000u);
    EXPECT_STREQ(outer.arg0_name, "answer");
    EXPECT_EQ(outer.arg0, 42u);
    const trace::Event &mark = events[1];
    EXPECT_STREQ(mark.name, "test.mark");
    EXPECT_EQ(mark.phase, 'i');
    EXPECT_EQ(mark.ts_ns, 2000u);
    EXPECT_EQ(mark.arg0, 7u);
    trace::clear();
}

TEST(Trace, DisarmedSpansRecordNothing)
{
    trace::stop();
    trace::clear();
    {
        trace::Span span("test.disarmed", "test");
        span.arg("x", 1);
        trace::instant("test.disarmed_mark", "test");
    }
    EXPECT_TRUE(trace::snapshot_events().empty());
    EXPECT_EQ(trace::dropped_events(), 0u);
}

TEST(Trace, RingWrapsKeepNewestEventsAndCountDrops)
{
    trace::stop();
    trace::clear();
    trace::set_ring_capacity(8);
    trace::start();
    // A fresh thread gets the small ring; 20 instants into 8 slots.
    std::thread([] {
        for (int i = 0; i < 20; ++i) {
            trace::instant("test.wrap", "test", "i",
                           static_cast<std::uint64_t>(i));
        }
    }).join();
    trace::stop();
    trace::set_ring_capacity(32768);

    EXPECT_EQ(trace::dropped_events(), 12u);
    std::vector<std::uint64_t> kept;
    for (const auto &event : trace::snapshot_events()) {
        if (std::string(event.name) == "test.wrap") {
            kept.push_back(event.arg0);
        }
    }
    ASSERT_EQ(kept.size(), 8u);  // the newest 8 survive, in order
    for (std::size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i], 12u + i);
    }
    trace::clear();
}

namespace {

/// Resident set size of this process in kB (VmRSS of /proc/self/status),
/// or -1 when it cannot be read.
long
resident_kb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.starts_with("VmRSS:")) {
            return std::stol(line.substr(6));
        }
    }
    return -1;
}

}  // namespace

TEST(Trace, FreshThreadRingsGrowOnDemand)
{
    // A thread's ring grows with the events it records, up to the
    // capacity. Eight fresh threads that record one event each into
    // 1 Mi-event rings (72 MiB each if sized up front) stay small.
    trace::stop();
    trace::clear();
    const long before = resident_kb();
    ASSERT_GE(before, 0);
    trace::set_ring_capacity(1 << 20);
    trace::start();
    for (int t = 0; t < 8; ++t) {
        std::thread([] { trace::instant("test.grow", "test"); }).join();
    }
    trace::stop();
    trace::set_ring_capacity(32768);

    const long grown_kb = resident_kb() - before;
    EXPECT_LT(grown_kb, 64 * 1024) << "VmRSS grew by " << grown_kb << " kB";
    std::size_t recorded = 0;
    for (const auto &event : trace::snapshot_events()) {
        recorded += std::string(event.name) == "test.grow" ? 1 : 0;
    }
    EXPECT_EQ(recorded, 8u);
    trace::clear();
}

TEST(Trace, WriteJsonEmitsWellFormedChromeTrace)
{
    trace::stop();
    trace::clear();
    g_fake_ns.store(0);
    trace::set_clock(&fake_clock);
    trace::start();
    {
        trace::Span span("test.json_span", "test");
        span.arg("x", 1);
    }
    trace::instant("test.json_mark", "test");
    trace::stop();
    trace::set_clock(nullptr);

    const std::string path = "test_trace_out.json";
    EXPECT_EQ(trace::write_json(path), 2u);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    std::remove(path.c_str());

    EXPECT_TRUE(balanced_json_delimiters(content)) << content;
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("\"test.json_span\""), std::string::npos);
    EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(content.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(content.find("\"displayTimeUnit\""), std::string::npos);
    trace::clear();
}

TEST(Trace, ConcurrentWritersAgainstSnapshotsLoseNothing)
{
    trace::stop();
    trace::clear();
    trace::start();
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 2000;
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            for (int i = 0; i < kPerWriter; ++i) {
                trace::Span span("test.churn", "test");
                span.arg("i", static_cast<std::uint64_t>(i));
            }
        });
    }
    std::thread reader([&] {
        while (!done.load()) {
            (void)trace::snapshot_events();
            std::this_thread::yield();
        }
    });
    go.store(true);
    for (auto &w : writers) {
        w.join();
    }
    done.store(true);
    reader.join();
    trace::stop();

    std::size_t churn = 0;
    for (const auto &event : trace::snapshot_events()) {
        if (std::string(event.name) == "test.churn") {
            ++churn;
        }
    }
    // Rings are large enough (32768 per thread) that nothing wrapped.
    EXPECT_EQ(churn + trace::dropped_events(),
              static_cast<std::size_t>(kWriters) * kPerWriter);
    EXPECT_EQ(trace::dropped_events(), 0u);
    trace::clear();
}

}  // namespace
}  // namespace bitwave
