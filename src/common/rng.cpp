#include "common/rng.hpp"

namespace bitwave {

namespace {

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

}  // namespace

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
    constexpr std::size_t n = kStateWords, m = kShiftWords;
    for (std::size_t k = 0; k < n - m; ++k) {
        state_[k] = twist(state_[k], state_[k + 1], state_[k + m]);
    }
    // The second half mixes in words this pass already rewrote.
    for (std::size_t k = n - m; k < n - 1; ++k) {
        state_[k] = twist(state_[k], state_[k + 1], state_[k + m - n]);
    }
    state_[n - 1] = twist(state_[n - 1], state_[0], state_[m - 1]);
    // The block's uniforms, all at once: a straight-line loop that
    // vectorizes, where one word per uniform() call cannot.
    for (std::size_t k = 0; k < n; ++k) {
        canonical_[k] = Rng::canonical(temper(state_[k]));
    }
    next_ = 0;
}

}  // namespace bitwave
