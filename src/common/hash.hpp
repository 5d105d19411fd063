/**
 * @file
 * Deterministic hashing shared across the caches: splitmix64 for seed
 * derivation (scenario / layer RNG streams) and FNV-1a for content
 * hashing of tensors and cache keys.
 *
 * Both functions are fixed algorithms with stable outputs across
 * platforms and runs — cache keys derived from them are stable across
 * processes and the seed streams reproduce bit-identically everywhere.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace bitwave {

/// splitmix64 — tiny, well-mixed, and exactly reproducible everywhere.
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// FNV-1a offset basis (64-bit).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Mix @p bytes into a running FNV-1a hash @p h.
inline std::uint64_t
fnv1a(const void *bytes, std::size_t size, std::uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Mix one integer value into a running hash (order-sensitive).
constexpr std::uint64_t
hash_combine(std::uint64_t h, std::uint64_t value)
{
    return splitmix64(h ^ value);
}

}  // namespace bitwave
