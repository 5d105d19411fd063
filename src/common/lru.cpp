#include "common/lru.hpp"

#include <thread>

#include "common/env.hpp"

namespace bitwave {

std::size_t
cache_capacity_from_env(std::size_t fallback)
{
    const long long v = env_positive_int("BITWAVE_CACHE_ENTRIES", 0);
    if (v > 0) {
        return static_cast<std::size_t>(v);
    }
    return fallback > 0 ? fallback : 1;
}

std::size_t
cache_shard_count(std::size_t capacity, std::size_t requested)
{
    if (requested == 0) {
        requested = std::max(1u, std::thread::hardware_concurrency());
    }
    std::size_t shards = 1;
    while (shards < requested && shards < 64) {
        shards <<= 1;
    }
    while (shards > 1 && capacity / shards < kMinShardEntries) {
        shards >>= 1;
    }
    return shards;
}

}  // namespace bitwave
