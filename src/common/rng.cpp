#include "common/rng.hpp"

namespace bitwave {

namespace {

constexpr std::size_t kShiftWords = 156;                          // m
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;  // f
constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;           // a
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;      // r = 31
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of @p word joined to the lower bits of
/// @p next, shifted and mixed into @p far. The matrix term is selected
/// by a mask of y's low bit — the branch it replaces mispredicts half
/// the time.
constexpr std::uint64_t
twist(std::uint64_t word, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

/// The refill's one body, inlined into each variant below so that each
/// compiles it for its own instruction set.
[[gnu::always_inline]] inline void
refill_block(std::uint64_t *state, double *canonical)
{
    constexpr std::size_t n = detail::kStateWords, m = kShiftWords;
    for (std::size_t k = 0; k < n - m; ++k) {
        state[k] = twist(state[k], state[k + 1], state[k + m]);
    }
    // The second half mixes in words this pass already rewrote.
    for (std::size_t k = n - m; k < n - 1; ++k) {
        state[k] = twist(state[k], state[k + 1], state[k + m - n]);
    }
    state[n - 1] = twist(state[n - 1], state[0], state[m - 1]);
    // The block's uniforms, all at once: a straight-line loop that
    // vectorizes, where one word per uniform() call cannot.
    for (std::size_t k = 0; k < n; ++k) {
        canonical[k] = Rng::canonical(detail::temper(state[k]));
    }
}

/// fdlibm's ln(@p x) (FreeBSD msun, e_log.c) for a positive normal
/// @p x, branch-free: the log's one body, inlined into each variant
/// below like refill_block.
[[gnu::always_inline]] inline double
log_body(double x)
{
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kLg1 = 6.666666666666735130e-01;
    constexpr double kLg2 = 3.999999999940941908e-01;
    constexpr double kLg3 = 2.857142874366239149e-01;
    constexpr double kLg4 = 2.222219843214978396e-01;
    constexpr double kLg5 = 1.818357216161805012e-01;
    constexpr double kLg6 = 1.531383769920937332e-01;
    constexpr double kLg7 = 1.479819860511658591e-01;
    constexpr std::uint64_t kMantissa = 0x000FFFFFFFFFFFFFULL;
    constexpr std::uint64_t kExponentOne = 0x3FF0000000000000ULL;
    constexpr std::uint64_t kExponentLsb = 0x0010000000000000ULL;
    constexpr std::uint64_t kTwoPow52Bits = 0x4330000000000000ULL;

    // x = 2^k * m with m in [sqrt(2)/2, sqrt(2)): a mantissa at or
    // above sqrt(2)'s carries into the exponent's lowest bit when
    // fdlibm's 0x95f64 is added to its top 20 bits; then m takes
    // exponent -1 instead of 0, and k one more.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t mantissa = bits & kMantissa;
    const std::uint64_t carry =
        (mantissa + 0x00095F6400000000ULL) & kExponentLsb;
    const double m =
        std::bit_cast<double>(mantissa | (carry ^ kExponentOne));
    // k as an exact double, read off the bits of 2^52 + biased exponent
    // (there is no packed int64 -> double conversion below AVX-512DQ).
    const std::uint64_t biased = (bits >> 52) + (carry >> 52);
    const double k =
        (std::bit_cast<double>(kTwoPow52Bits | biased) - 0x1p52) - 1023.0;
    // ln(1 + f) = 2 atanh(s) = f - (hfsq - s * (hfsq + R(s^2))).
    const double f = m - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

[[gnu::always_inline]] inline void
laplacian_block(double b, const double *t, const double *sign, double *out,
                std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = Rng::laplacian_finish(b, {sign[i], t[i]}, log_body(t[i]));
    }
}

[[gnu::always_inline]] inline void
gaussian_block(double sigma, const double *r2, const double *y, double *out,
               std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = Rng::gaussian_finish(sigma, {y[i], r2[i]}, log_body(r2[i]));
    }
}

// Each variant: the three bodies above, compiled for the target its
// trailing attribute names (none: the baseline).
#define BITWAVE_RNG_VARIANT(isa, ...)                                        \
    __VA_ARGS__ void refill_##isa(std::uint64_t *state, double *canonical)   \
    {                                                                        \
        refill_block(state, canonical);                                      \
    }                                                                        \
    __VA_ARGS__ void laplacian_##isa(double b, const double *t,              \
                                     const double *sign, double *out,        \
                                     std::size_t n)                          \
    {                                                                        \
        laplacian_block(b, t, sign, out, n);                                 \
    }                                                                        \
    __VA_ARGS__ void gaussian_##isa(double sigma, const double *r2,          \
                                    const double *y, double *out,            \
                                    std::size_t n)                           \
    {                                                                        \
        gaussian_block(sigma, r2, y, out, n);                                \
    }

BITWAVE_RNG_VARIANT(baseline)
#if defined(__x86_64__)
BITWAVE_RNG_VARIANT(avx2, [[gnu::target("avx2")]])
BITWAVE_RNG_VARIANT(avx512f, [[gnu::target("avx512f")]])
#endif
#undef BITWAVE_RNG_VARIANT

}  // namespace

namespace detail {

std::span<const RefillVariant>
refill_variants()
{
    // A function-local static, not a namespace-scope table: a static
    // initializer in another file may draw before this file's run.
    static const auto variants = [] {
#if defined(__x86_64__)
        __builtin_cpu_init();
        return std::array{
            RefillVariant{"avx512f", refill_avx512f, laplacian_avx512f,
                          gaussian_avx512f,
                          __builtin_cpu_supports("avx512f") != 0},
            RefillVariant{"avx2", refill_avx2, laplacian_avx2,
                          gaussian_avx2,
                          __builtin_cpu_supports("avx2") != 0},
            RefillVariant{"baseline", refill_baseline, laplacian_baseline,
                          gaussian_baseline, true},
        };
#else
        return std::array{RefillVariant{"baseline", refill_baseline,
                                        laplacian_baseline,
                                        gaussian_baseline, true}};
#endif
    }();
    return variants;
}

const RefillVariant &
active_refill()
{
    // Never the end: the baseline, last, is always supported.
    static const RefillVariant &chosen =
        *std::ranges::find_if(refill_variants(), &RefillVariant::supported);
    return chosen;
}

}  // namespace detail

Mt19937_64::Mt19937_64(std::uint64_t seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const std::uint64_t x = state_[i - 1];
        state_[i] = kInitMultiplier * (x ^ (x >> 62)) + i;
    }
}

void
Mt19937_64::refill()
{
    detail::active_refill().refill(state_.data(), canonical_.data());
    next_ = 0;
}

}  // namespace bitwave
