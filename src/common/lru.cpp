#include "common/lru.hpp"

#include <thread>

namespace bitwave {

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
