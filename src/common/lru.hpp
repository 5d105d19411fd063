/**
 * @file
 * The thread-safe LRU cache behind the process-wide preparation caches
 * (Bit-Flip twins, packed bit planes, layer stats, mapping statistics).
 *
 * `ShardedLruCache` splits its capacity over a power-of-two number of
 * lock-striped shards keyed by content hash, each with a shared-mutex
 * read fast path (concurrent hits of resident entries never contend —
 * recency is an atomic tick, not a list splice) and per-shard
 * capacity/eviction. With one shard and sequential access it is exact
 * LRU.
 *
 * Entries build once under a per-entry BuildOnce (a mutex-and-flag
 * once), so concurrent first requests for the same key never duplicate
 * work and builds of different keys never serialize. A build that
 * throws leaves its entry unbuilt, and the next request builds it.
 * Eviction drops the cache's reference only; holders of the returned
 * shared_ptr (including an in-flight builder) keep the value alive.
 *
 * Every cache fixes its capacity where it is constructed, so
 * long-running batches have bounded residency. The shard count is
 * derived (cache_shard_count), never configured.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace bitwave {

/**
 * Fewest entries a shard holds (unless the whole cache holds fewer).
 * Keys land on shards by hash, not evenly: a shard of one or two slots
 * evicts a hot key while its siblings sit empty — four hot keys in a
 * four-entry cache split four ways share a shard and evict each other
 * on every request. At 64 slots a shard overflows before the cache
 * fills only under extreme hash skew.
 */
inline constexpr std::size_t kMinShardEntries = 64;

/**
 * Shard count of a cache of @p capacity entries: @p requested (0 = one
 * per hardware thread) rounded up to a power of two, at most 64, then
 * halved until every shard holds at least kMinShardEntries entries. A
 * cache smaller than that gets one shard.
 */
std::size_t cache_shard_count(std::size_t capacity, std::size_t requested);

/**
 * A value built on first use, once: the replacement for
 * `std::call_once` wherever a build may throw. The fast path is one
 * acquire load; a caller that finds the value unbuilt takes the slot's
 * mutex and builds it, so concurrent first callers wait for one build.
 * A build that throws leaves the flag clear and the next caller builds
 * again. (gcc 12's ThreadSanitizer runtime leaves a `std::once_flag`
 * stuck after a throwing callable, and the next call_once on it blocks
 * forever.)
 */
template <typename Value>
class BuildOnce
{
  public:
    /**
     * The value, built by `build()` if no call has built it yet.
     * Unanalyzed: the fast path is a deliberately lock-free read of a
     * published-once slot. value_ is written once, under mutex_, before
     * the release store of built_ that the acquire load pairs with.
     */
    template <typename Build>
    std::shared_ptr<const Value> get(Build &&build) NO_THREAD_SAFETY_ANALYSIS
    {
        if (!built_.load(std::memory_order_acquire)) {
            MutexLock lock(mutex_);
            if (!built_.load(std::memory_order_relaxed)) {
                value_ = std::make_shared<const Value>(build());
                built_.store(true, std::memory_order_release);
            }
        }
        return value_;
    }

  private:
    MutexCap mutex_;
    std::atomic<bool> built_{false};
    std::shared_ptr<const Value> value_ GUARDED_BY(mutex_);
};

/**
 * Sharded thread-safe LRU map from Key to immutable shared values.
 *
 * The key's hash selects one of `shards()` lock-striped shards
 * (power-of-two count, so selection is a mask over a mixed hash), and
 * each shard holds `ceil(capacity / shards)` entries under its own
 * shared_mutex. The hot read path — a hit on a resident entry — takes
 * the shard lock *shared* and records recency with a relaxed atomic
 * tick, so concurrent readers of the bit-plane / stats / flip-twin
 * caches never serialize; only a miss (insert + possible eviction)
 * takes the shard lock exclusively. Eviction removes the entry with
 * the smallest tick, which for sequential access is exactly the
 * least-recently-used entry.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache
{
  public:
    /**
     * @p capacity total entries over cache_shard_count(capacity,
     * @p shards) shards (@p shards 0 = the hardware default). A non-null
     * @p metric_name publishes the cache's hit/miss/eviction counters
     * as `cache.<metric_name>.{hits,misses,evictions}` in the global
     * metrics registry (the hits()/misses()/evictions() accessors then
     * read the registry counters, and snapshots/Prometheus dumps see
     * this cache by name).
     */
    explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 0,
                             const char *metric_name = nullptr)
    {
        if (metric_name != nullptr) {
            const std::string prefix = std::string("cache.") + metric_name;
            hits_ = &metrics::counter(prefix + ".hits");
            misses_ = &metrics::counter(prefix + ".misses");
            evictions_ = &metrics::counter(prefix + ".evictions");
        }
        capacity = std::max<std::size_t>(capacity, 1);
        shards = cache_shard_count(capacity, shards);
        shards_.resize(shards);
        shard_capacity_ = (capacity + shards - 1) / shards;
        if (shard_capacity_ < std::min(capacity, kMinShardEntries)) {
            panic("cache of %zu entries split %zu ways: %zu per shard",
                  capacity, shards, shard_capacity_);
        }
        for (auto &shard : shards_) {
            shard = std::make_unique<Shard>();
        }
    }

    /**
     * Return the cached value for @p key, building it via `build()` on
     * the first request. The returned pointer stays valid after eviction.
     * @p was_hit, when non-null, reports whether the key was already
     * resident.
     */
    template <typename Build>
    std::shared_ptr<const Value> get_or_build(const Key &key, Build &&build,
                                              bool *was_hit = nullptr)
    {
        Shard &shard = *shards_[shard_index(key)];
        std::shared_ptr<Entry> entry;
        bool hit = false;
        {
            SharedLock lock(shard.mutex);
            // as_const: the const find() overload keeps this a *read*
            // of the guarded map, legal under the shared capability.
            const auto &map = std::as_const(shard.map);
            auto it = map.find(key);
            if (it != map.end()) {
                entry = it->second;
                hit = true;
                bump_recency(*entry);
            }
        }
        if (!hit) {
            ExclusiveLock lock(shard.mutex);
            auto it = shard.map.find(key);
            if (it != shard.map.end()) {
                // Raced with another inserter between the locks.
                entry = it->second;
                hit = true;
            } else {
                entry = std::make_shared<Entry>();
                entry->key = key;
                shard.map.emplace(key, entry);
            }
            bump_recency(*entry);
            while (shard.map.size() > shard_capacity_) {
                evict_oldest(shard);
            }
        }
        (hit ? *hits_ : *misses_).inc();
        if (was_hit != nullptr) {
            *was_hit = hit;
        }
        return entry->value.get(build);
    }

    std::size_t size() const
    {
        std::size_t total = 0;
        for (const auto &shard : shards_) {
            SharedLock lock(shard->mutex);
            total += shard->map.size();
        }
        return total;
    }
    std::size_t capacity() const
    {
        return shard_capacity_ * shards_.size();
    }
    std::size_t shards() const { return shards_.size(); }
    std::int64_t hits() const
    {
        return static_cast<std::int64_t>(hits_->value());
    }
    std::int64_t misses() const
    {
        return static_cast<std::int64_t>(misses_->value());
    }
    std::int64_t evictions() const
    {
        return static_cast<std::int64_t>(evictions_->value());
    }

  private:
    struct Entry
    {
        Key key{};
        BuildOnce<Value> value;
        std::atomic<std::uint64_t> tick{0};  ///< Last-access recency.
    };

    struct Shard
    {
        mutable SharedMutexCap mutex;
        std::unordered_map<Key, std::shared_ptr<Entry>, Hash>
            map GUARDED_BY(mutex);
    };

    void bump_recency(Entry &entry)
    {
        entry.tick.store(tick_.fetch_add(1, std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }

    std::size_t shard_index(const Key &key) const
    {
        // splitmix64 finalizer: shard selection must survive identity
        // std::hash (small ints land in one shard otherwise).
        std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key));
        h ^= h >> 30;
        h *= 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 27;
        h *= 0x94D049BB133111EBULL;
        h ^= h >> 31;
        return static_cast<std::size_t>(h) & (shards_.size() - 1);
    }

    void evict_oldest(Shard &shard) REQUIRES(shard.mutex)
    {
        auto oldest = shard.map.end();
        std::uint64_t oldest_tick = ~std::uint64_t{0};
        for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
            const std::uint64_t t =
                it->second->tick.load(std::memory_order_relaxed);
            if (oldest == shard.map.end() || t < oldest_tick) {
                oldest = it;
                oldest_tick = t;
            }
        }
        if (oldest != shard.map.end()) {
            shard.map.erase(oldest);
            evictions_->inc();
        }
    }

    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t shard_capacity_ = 1;
    std::atomic<std::uint64_t> tick_{0};
    /// Unnamed caches count into their own private counters; named
    /// ones point at registry counters (stable addresses, never
    /// freed).
    metrics::Counter own_hits_;
    metrics::Counter own_misses_;
    metrics::Counter own_evictions_;
    metrics::Counter *hits_ = &own_hits_;
    metrics::Counter *misses_ = &own_misses_;
    metrics::Counter *evictions_ = &own_evictions_;
};

}  // namespace bitwave
