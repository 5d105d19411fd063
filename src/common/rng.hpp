/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All synthetic data in the repository (weights, activations, calibration
 * inputs) flows through this generator so experiments are reproducible
 * run-to-run and the benches regenerate identical tables.
 *
 * Stream contract: `Rng` yields exactly the values that the standard
 * `mt19937_64` engine plus libstdc++'s uniform real and normal
 * distributions (a fresh distribution per call) yielded before this
 * header carried its own engine, bit for bit, so every synthesized
 * weight, figure and table is unchanged. The oracle test
 * `Rng.StreamMatchesTheStandardOracle` (test_common) pins this against
 * the standard engine and distributions, which survive only there. The
 * in-house engine and draws exist because the standard ones branch on
 * random data: the libstdc++ refill branches on each state word's low
 * bit and the uint64 -> double conversion on the sign bit, so about
 * every other draw mispredicted. Here both are straight-line code.
 * The engine also works a block at a time: each refill twists all 312
 * state words, then tempers each and stores its `Rng::canonical` double
 * in one loop that the compiler vectorizes, so `uniform()` is a load.
 * Both views share one cursor, so raw draws (`engine()()`,
 * `uniform_int`, `std::shuffle`) and uniform draws interleave in stream
 * order. The same contract is why `gaussian` still discards the first
 * value of each polar pair: keeping it would halve its draws but change
 * every Gaussian weight (all of BERT-Base's).
 *
 * The refill is compiled three times from one body: as AVX-512F, as
 * AVX2 and for the baseline target (x86-64 builds; other targets carry
 * the baseline only). The first refill of the process picks the widest
 * variant the CPU supports (`__builtin_cpu_supports`, CPUID alone), and
 * every refill calls it (`detail::active_refill()`; tests reach each
 * variant through `detail::refill_variants()`). The choice cannot move
 * a bit: the twist and the tempering are integer operations, and the
 * conversion's products are by powers of two, so exact. That leaves
 * one rounding (`hi * 2^32 + lo`), whose result depends neither on the
 * vector width nor on whether it is fused into an FMA (the build also
 * passes `-ffp-contract=off`, which keeps it unfused).
 * `Rng.EveryRefillVariantMatchesTheStandardOracle` (test_common) runs
 * each variant the CPU supports against the standard engine.
 *
 * The same variant carries an in-house, libm-free log, compiled from one
 * body beside the refill, so one CPUID pick serves both. Its entry
 * points (`detail::FinishFn`) finish a batch of draws with `Rng`'s own
 * formulas: `laplacian()` and `gaussian()` are each a draw half
 * (`laplacian_draw()`, `polar_pair()`: every uniform they read, before
 * any log) and a finishing formula that takes the log as an argument
 * (`laplacian_finish()`, `gaussian_finish()`). `Rng`'s own samplers pass
 * std::log, so their outputs are unchanged. Weight synthesis
 * (nn/synthesis.hpp) walks the stream with the draw halves in the same
 * order and finishes its batches with the in-house log, which is within
 * 2 ULP of glibc's; a sample it cannot round with certainty at that
 * error is finished with std::log, so every code is the one `Rng`'s
 * samplers give.
 */
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace bitwave {

namespace detail {

inline constexpr std::size_t kStateWords = 312;  ///< MT19937-64's n

/// MT19937-64's tempering of one state word.
constexpr std::uint64_t
temper(std::uint64_t z)
{
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
}

/// One compiled form of the refill: twist the kStateWords words of
/// @p state, then store each tempered word's `Rng::canonical` in
/// @p canonical.
using RefillFn = void (*)(std::uint64_t *state, double *canonical);

/**
 * One compiled form of a finishing formula over @p n draws, with the
 * in-house log in place of std::log: `out[i]` is
 * `Rng::laplacian_finish(scale, {other[i], arg[i]}, ln arg[i])` for
 * Laplacian draws (sign, t), or `Rng::gaussian_finish(scale, {other[i],
 * arg[i]}, ln arg[i])` for polar pairs (y, r2). Weight synthesis
 * finishes its batches with these (nn/synthesis.hpp).
 *
 * The log is fdlibm's (FreeBSD msun, e_log.c) for positive normal
 * doubles, without libm: the same reduction to ln(1 + f) with 1 + f in
 * [sqrt(2)/2, sqrt(2)), the same degree-14 series in s = f / (2 + f)
 * (2 atanh(s)), and always its more accurate `hfsq` form, so one
 * straight-line body serves every lane. It is within 2 ULP of glibc's
 * from 1e-300 to 1 (`Rng.EveryLogVariantStaysWithinTwoUlp`); with scale
 * -1 and sign +1 the Laplacian form returns the log itself. Every
 * variant runs the same operations in the same order, unfused, so they
 * agree bit for bit.
 */
using FinishFn = void (*)(double scale, const double *arg,
                          const double *other, double *out, std::size_t n);

/// A variant of the vector kernels (the refill and the log's), named
/// after the instruction set it targets.
struct RefillVariant
{
    const char *name;  ///< "avx512f", "avx2" or "baseline"
    RefillFn refill;
    FinishFn laplacian;
    FinishFn gaussian;
    bool supported;    ///< whether this CPU can run it
};

/// Every variant this build carries, widest first; the baseline, last,
/// is always supported.
std::span<const RefillVariant> refill_variants();

/// The variant every refill (and weight synthesis' batch log) runs: the
/// first supported one, picked once per process.
const RefillVariant &active_refill();

}  // namespace detail

/**
 * MT19937-64 exactly as [rand.eng.mers] specifies the standard's
 * `mt19937_64`: the same seeding, twist and tempering, so the same seed
 * yields the same 64-bit stream. The refill picks the twist's matrix
 * term with a mask instead of a branch, and prepares the block's
 * uniforms for `uniform()`. A UniformRandomBitGenerator, so
 * std::shuffle and the standard distributions accept it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    /// Seed as the standard engine's `seed(result_type)` does.
    explicit Mt19937_64(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /// Next tempered output; refills the state every kStateWords draws.
    result_type operator()()
    {
        if (next_ >= kStateWords) {
            refill();
        }
        return detail::temper(state_[next_++]);
    }

    /// The same draw as `Rng::canonical((*this)())`, prepared by the
    /// refill.
    double uniform()
    {
        if (next_ >= kStateWords) {
            refill();
        }
        return canonical_[next_++];
    }

  private:
    static constexpr std::size_t kStateWords = detail::kStateWords;

    /// Twist all kStateWords words in one pass, then temper and convert
    /// each into `canonical_` in another, through detail::active_refill().
    void refill();

    std::array<std::uint64_t, kStateWords> state_;
    std::array<double, kStateWords> canonical_{};
    std::size_t next_ = kStateWords;
};

/**
 * A seeded pseudo-random generator with the distribution helpers the
 * workload synthesizer needs (Gaussian / Laplacian / uniform / Bernoulli).
 */
class Rng
{
  public:
    /// Construct with an explicit seed; identical seeds yield identical
    /// streams.
    explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

    /// Uniform double in [0, 1): canonical() of one engine draw.
    double uniform() { return engine_.uniform(); }

    /**
     * What libstdc++'s generate_canonical returns for the 64-bit draw
     * @p v: v * 2^-64, clamped to the largest double below 1. double(v)
     * is formed from two exact halves whose sum rounds once, to the same
     * correctly rounded value a uint64 -> double conversion gives,
     * without its sign-bit branch. Each half is read off the bits of
     * 2^52 + half, not converted, so the refill's loop over this
     * vectorizes on baseline x86-64, which has no packed int64 -> double
     * conversion.
     */
    static double canonical(std::uint64_t v)
    {
        const auto exact = [](std::uint64_t half) {
            return std::bit_cast<double>(kTwoPow52Bits | half) - 0x1p52;
        };
        const double hi = exact(v >> 32);
        const double lo = exact(v & 0xFFFFFFFFULL);
        return std::min((hi * 0x1p32 + lo) * 0x1p-64, kBelowOne);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /**
     * Zero-mean Gaussian sample with standard deviation @p sigma:
     * Marsaglia's polar method exactly as a freshly built libstdc++
     * normal distribution evaluates it, trailing `+ mean` included (it
     * turns a -0.0 product into +0.0). The polar pair's first value
     * is discarded, as the fresh distribution discarded it.
     */
    double gaussian(double sigma)
    {
        const PolarPair p = polar_pair();
        return gaussian_finish(sigma, p, std::log(p.r2));
    }

    /// The draw half of gaussian(): its operands, before any log.
    struct PolarPair
    {
        double y;   ///< the kept coordinate, in [-1, 1]
        double r2;  ///< x^2 + y^2, in (0, 1]
    };

    /// Draw one accepted polar pair: every uniform gaussian() reads.
    PolarPair polar_pair()
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return {y, r2};
    }

    /// gaussian()'s finishing formula for pair @p p, given
    /// @p log_r2 = ln(p.r2).
    static double gaussian_finish(double sigma, PolarPair p, double log_r2)
    {
        const double mult = std::sqrt(-2 * log_r2 / p.r2);
        return p.y * mult * sigma + 0.0;
    }

    /**
     * Zero-mean Laplacian sample with scale @p b.
     *
     * Quantized DNN weights are well modeled as Laplacian: a sharp peak of
     * small magnitudes with heavier tails than a Gaussian, the property the
     * paper's Fig. 4(b) histogram shows and that drives sign-magnitude
     * bit-column sparsity.
     */
    double laplacian(double b)
    {
        const LaplacianDraw d = laplacian_draw();
        return laplacian_finish(b, d, std::log(d.t));
    }

    /// The draw half of laplacian(): its operands, before any log.
    struct LaplacianDraw
    {
        double sign;  ///< -1 or +1
        double t;     ///< 1 - 2|u|, in [1e-300, 1]
    };

    /// Draw one Laplacian operand: the one uniform laplacian() reads.
    LaplacianDraw laplacian_draw()
    {
        // Inverse-CDF sampling: u in (-0.5, 0.5), x = -b * sgn(u) *
        // ln(1-2|u|).
        double u = uniform() - 0.5;
        const double sign = u < 0 ? -1.0 : 1.0;
        u = std::abs(u);
        // Guard against log(0) when uniform() returned exactly 0.5.
        return {sign, std::max(1.0 - 2.0 * u, 1e-300)};
    }

    /// laplacian()'s finishing formula for draw @p d, given
    /// @p log_t = ln(d.t).
    static double laplacian_finish(double b, LaplacianDraw d, double log_t)
    {
        return -b * d.sign * log_t;
    }

    /// Bernoulli trial with probability @p p of returning true.
    bool bernoulli(double p) { return uniform() < p; }

    /// Access the underlying engine (e.g. for std::shuffle).
    Mt19937_64 &engine() { return engine_; }

  private:
    /// The largest double below 1, generate_canonical's clamp.
    static constexpr double kBelowOne = 0x1.fffffffffffffp-1;
    /// The bits of 2^52, whose last place is worth 1: a 32-bit value
    /// ORed into its mantissa reads as exactly 2^52 + value.
    static constexpr std::uint64_t kTwoPow52Bits = 0x4330000000000000ULL;

    Mt19937_64 engine_;
};

}  // namespace bitwave
