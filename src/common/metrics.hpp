#pragma once

// Process-wide metrics registry: named counters and log-bucketed
// histograms with a wait-free relaxed-atomic hot path.
//
// Handles returned by counter()/histogram() have stable addresses for
// the life of the process — call sites look a metric up once (usually
// into a function-local static) and then bump a plain relaxed atomic.
// Registry histograms are gated on a global arm flag
// (BITWAVE_METRICS=1 or metrics::set_enabled(true)); a disarmed
// record() costs one relaxed load plus a never-taken branch, the same
// budget as a disarmed fault point.  Counters are always live: they
// replace the ad-hoc telemetry structs that previous PRs scattered
// across the service, runner, caches, and fault registry.
//
// snapshot() collects every registered metric into a name-sorted
// Snapshot that render_prometheus()/render_json() turn into the two
// standard exposition formats.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bitwave::metrics {

/// True when histogram recording is armed (BITWAVE_METRICS=1 or
/// set_enabled(true)).  Counters ignore this flag.
inline std::atomic<bool> g_enabled{false};

inline bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

/// Monotonic counter.  inc() is a single relaxed fetch_add.
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Bucket count for the log-scaled histogram: values 0..15 get a
/// bucket each, then four sub-buckets per octave up to 2^48 (≈3.3
/// days in nanoseconds), clamping anything larger into the top
/// bucket.  16 + (48 - 4) * 4 = 192.
inline constexpr int kHistogramBuckets = 192;

/// Value-type copy of a histogram: fixed-size arrays only, so taking
/// one never allocates (ServiceStats embeds three of these and its
/// stats() read path is asserted allocation-free).
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    double mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }

    /// Quantile estimate (q in [0,1]) by linear interpolation inside
    /// the bucket that crosses the target rank.  Returns 0 when the
    /// histogram is empty.
    double quantile(double q) const;
};

/// Log-bucketed histogram.  record() is wait-free: two relaxed
/// fetch_adds plus one bucket fetch_add when armed, a relaxed load
/// and branch when the histogram is gated and metrics are disarmed.
class Histogram
{
  public:
    /// Gated histograms (the registry default) only record while
    /// metrics::enabled(); ungated ones always record — the service
    /// owns always-on phase histograms so stats() is populated even
    /// without BITWAVE_METRICS.
    explicit Histogram(bool gated = true) : gated_(gated) {}

    void record(std::uint64_t value)
    {
        if (gated_ && !enabled()) {
            return;
        }
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        buckets_[bucket_index(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    /// Bucket for a value: identity below 16, then quarter-octave.
    static int bucket_index(std::uint64_t value);
    /// Smallest value that lands in bucket `index`.
    static std::uint64_t bucket_lower_bound(int index);

  private:
    const bool gated_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Look up (or register) a metric by dotted name.  The returned
/// reference is valid forever; lookups take the registry mutex, so
/// cache the reference on hot paths.
Counter &counter(std::string_view name);
Histogram &histogram(std::string_view name);

/// Value of a registered counter, or 0 when no such counter exists.
std::uint64_t counter_value(std::string_view name);

/// Point-in-time copy of the whole registry, sorted by name.
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

Snapshot snapshot();

/// Prometheus text exposition format (metric names are prefixed with
/// "bitwave_" and dots become underscores; histogram buckets are
/// emitted cumulatively with nanosecond `le` bounds).
std::string render_prometheus(const Snapshot &snap);

/// Compact JSON object: {"counters":{...},
/// "histograms":{name:{count,sum,mean,p50,p90,p99}}}.
std::string render_json(const Snapshot &snap);

} // namespace bitwave::metrics
