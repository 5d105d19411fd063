/**
 * @file
 * The thread-safe LRU cache behind the process-wide preparation caches
 * (Bit-Flip twins, packed bit planes, layer stats, mapping statistics).
 *
 * `LruCache` is exact LRU under one mutex: a list in recency order plus
 * a map from key to list position, so a hit splices its entry to the
 * front and a miss inserts at the front and evicts the back, each in
 * O(1). The lock covers only that bookkeeping.
 *
 * Entries build once under a per-entry BuildOnce (a mutex-and-flag
 * once), outside the cache lock, so concurrent first requests for the
 * same key never duplicate work and builds of different keys never
 * serialize. A build that throws leaves its entry unbuilt, and the next
 * request builds it. Eviction drops the cache's reference only;
 * holders of the returned shared_ptr (including an in-flight builder)
 * keep the value alive.
 *
 * Every cache fixes its capacity where it is constructed, so
 * long-running batches have bounded residency, and which entries stay
 * resident does not depend on the host's core count.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/annotations.hpp"
#include "common/metrics.hpp"

namespace bitwave {

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

/// Thread-safe exact-LRU map from Key to immutable shared values.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    /**
     * A cache of @p capacity entries (at least one). A non-null
     * @p metric_name publishes the cache's hit/miss/eviction counters
     * as `cache.<metric_name>.{hits,misses,evictions}` in the global
     * metrics registry (the hits()/misses()/evictions() accessors then
     * read the registry counters, and snapshots/Prometheus dumps see
     * this cache by name).
     */
    explicit LruCache(std::size_t capacity,
                      const char *metric_name = nullptr)
        : capacity_(std::max<std::size_t>(capacity, 1))
    {
        if (metric_name != nullptr) {
            const std::string prefix = std::string("cache.") + metric_name;
            hits_ = &metrics::counter(prefix + ".hits");
            misses_ = &metrics::counter(prefix + ".misses");
            evictions_ = &metrics::counter(prefix + ".evictions");
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
        std::shared_ptr<Entry> entry;
        bool hit = false;
        {
            MutexLock lock(mutex_);
            const auto it = index_.find(key);
            hit = it != index_.end();
            if (hit) {
                order_.splice(order_.begin(), order_, it->second);
            } else {
                order_.emplace_front(key, std::make_shared<Entry>());
                index_.emplace(key, order_.begin());
                if (order_.size() > capacity_) {
                    index_.erase(order_.back().first);
                    order_.pop_back();
                    evictions_->inc();
                }
            }
            entry = order_.front().second;
        }
        (hit ? *hits_ : *misses_).inc();
        if (was_hit != nullptr) {
            *was_hit = hit;
        }
        return entry->get(build);
    }

    std::size_t size() const
    {
        MutexLock lock(mutex_);
        return order_.size();
    }
    std::size_t capacity() const { return capacity_; }
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
    using Entry = BuildOnce<Value>;
    /// Most recently used first.
    using Order = std::list<std::pair<Key, std::shared_ptr<Entry>>>;

    const std::size_t capacity_;
    mutable MutexCap mutex_;
    Order order_ GUARDED_BY(mutex_);
    std::unordered_map<Key, typename Order::iterator, Hash>
        index_ GUARDED_BY(mutex_);
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
