/**
 * @file
 * Bounded multi-producer / multi-consumer queue — the admission edge of
 * the evaluation service. Producers are client threads calling
 * EvalService::submit(); consumers are the dispatcher threads draining
 * jobs into ScenarioRunner batches.
 *
 * Unlike the runner's chunk cursor (one lock-free counter, nanosecond
 * claims), this queue sits in front of millisecond-to-second evaluation
 * jobs, and its interesting operations are *multi-step admission
 * transitions* — "evict the oldest entry and admit mine atomically"
 * (shed-oldest backpressure), "block until space or the queue closes" —
 * which a mutex + two condition variables express directly and
 * ThreadSanitizer verifies exactly. Lock hold times are a few pointer
 * moves; contention is not the bottleneck at request granularity.
 *
 * Closing wakes every blocked producer and consumer: producers observe
 * kClosed, consumers drain the remaining items and then observe
 * emptiness. FIFO order is preserved end to end — admission order is
 * completion-visible (the service's determinism tests rely on results
 * being independent of it anyway).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/annotations.hpp"
#include "common/fault.hpp"

namespace bitwave {

/// Outcome of one push attempt.
enum class QueuePush {
    kAccepted,  ///< Item enqueued.
    kFull,      ///< Bounded capacity reached (try_push only).
    kClosed,    ///< Queue closed; item not enqueued.
};

template <typename T>
class MpmcQueue
{
  public:
    /// @p capacity entries are admitted at once; at least 1 is enforced.
    explicit MpmcQueue(std::size_t capacity)
        : capacity_(capacity > 0 ? capacity : 1)
    {
    }

    MpmcQueue(const MpmcQueue &) = delete;
    MpmcQueue &operator=(const MpmcQueue &) = delete;

    /// Block until there is space (or the queue closes), then enqueue.
    QueuePush push(T item)
    {
        BITWAVE_FAULT_POINT("mpmc.push");
        MutexLock lock(mutex_);
        while (!closed_ && items_.size() >= capacity_) {
            not_full_.wait(mutex_);
        }
        if (closed_) {
            return QueuePush::kClosed;
        }
        enqueue_locked(std::move(item));
        return QueuePush::kAccepted;
    }

    /// Non-blocking push: kFull when at capacity.
    QueuePush try_push(T item)
    {
        BITWAVE_FAULT_POINT("mpmc.push");
        MutexLock lock(mutex_);
        if (closed_) {
            return QueuePush::kClosed;
        }
        if (items_.size() >= capacity_) {
            return QueuePush::kFull;
        }
        enqueue_locked(std::move(item));
        return QueuePush::kAccepted;
    }

    /**
     * Shed-oldest admission: when full, atomically evict the front
     * (oldest) item into @p shed and enqueue @p item in the same
     * critical section — no interleaving producer can observe the queue
     * over capacity or miss the eviction.
     */
    QueuePush push_shed_oldest(T item, std::optional<T> *shed)
    {
        shed->reset();
        BITWAVE_FAULT_POINT("mpmc.push");
        MutexLock lock(mutex_);
        if (closed_) {
            return QueuePush::kClosed;
        }
        if (items_.size() >= capacity_) {
            shed->emplace(std::move(items_.front()));
            items_.pop_front();
        }
        enqueue_locked(std::move(item));
        return QueuePush::kAccepted;
    }

    /// Block until an item arrives; false when closed and drained.
    bool pop(T *out)
    {
        MutexLock lock(mutex_);
        while (!closed_ && items_.empty()) {
            not_empty_.wait(mutex_);
        }
        return dequeue_locked(out);
    }

    /// Non-blocking pop; false when empty (or closed and drained).
    bool try_pop(T *out)
    {
        MutexLock lock(mutex_);
        return dequeue_locked(out);
    }

    /**
     * Pop with a bounded wait of @p seconds — the dynamic batcher's
     * linger: after the first job of a batch, wait briefly for
     * companions instead of dispatching a singleton. False on timeout
     * with the queue still empty (or closed and drained).
     */
    bool pop_for(T *out, double seconds)
    {
        // Clamp: the deadline conversion goes through the clock's
        // duration, and a huge seconds value would overflow that cast
        // (UB). One hour bounds any sane linger; callers loop anyway.
        const double bounded = std::clamp(seconds, 0.0, 3600.0);
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(bounded));
        MutexLock lock(mutex_);
        while (!closed_ && items_.empty()) {
            if (not_empty_.wait_until(mutex_, deadline) ==
                std::cv_status::timeout) {
                break;
            }
        }
        return dequeue_locked(out);
    }

    /// Stop admitting; blocked producers/consumers wake immediately.
    /// Already-enqueued items remain poppable (drain semantics).
    void close()
    {
        {
            MutexLock lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    bool closed() const
    {
        MutexLock lock(mutex_);
        return closed_;
    }

    std::size_t size() const
    {
        MutexLock lock(mutex_);
        return items_.size();
    }

    /// High-water mark of size() over the queue's lifetime.
    std::size_t peak_size() const
    {
        MutexLock lock(mutex_);
        return peak_;
    }

    std::size_t capacity() const { return capacity_; }

  private:
    void enqueue_locked(T item) REQUIRES(mutex_)
    {
        items_.push_back(std::move(item));
        peak_ = std::max(peak_, items_.size());
        not_empty_.notify_one();
    }

    bool dequeue_locked(T *out) REQUIRES(mutex_)
    {
        if (items_.empty()) {
            return false;
        }
        *out = std::move(items_.front());
        items_.pop_front();
        not_full_.notify_one();
        return true;
    }

    mutable MutexCap mutex_;
    CondVarCap not_empty_;
    CondVarCap not_full_;
    std::deque<T> items_ GUARDED_BY(mutex_);
    const std::size_t capacity_;
    std::size_t peak_ GUARDED_BY(mutex_) = 0;
    bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace bitwave
