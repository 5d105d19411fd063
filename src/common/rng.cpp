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

void
refill_baseline(std::uint64_t *state, double *canonical)
{
    refill_block(state, canonical);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void
refill_avx2(std::uint64_t *state, double *canonical)
{
    refill_block(state, canonical);
}

[[gnu::target("avx512f")]] void
refill_avx512f(std::uint64_t *state, double *canonical)
{
    refill_block(state, canonical);
}
#endif

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
            RefillVariant{"avx512f", refill_avx512f,
                          __builtin_cpu_supports("avx512f") != 0},
            RefillVariant{"avx2", refill_avx2,
                          __builtin_cpu_supports("avx2") != 0},
            RefillVariant{"baseline", refill_baseline, true},
        };
#else
        return std::array{RefillVariant{"baseline", refill_baseline, true}};
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
