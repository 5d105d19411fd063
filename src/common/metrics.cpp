#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/env.hpp"

namespace bitwave::metrics {

namespace {

/// The registry: one mutex and two name → unique_ptr maps.  Call
/// sites look a metric up once and keep the reference, so the lock is
/// off every hot path.  Metrics are never erased, so the pointers
/// handed out by counter()/histogram() stay valid for the
/// process lifetime.  Leaked on purpose: worker threads may still bump
/// metrics while static destructors run.
struct Registry
{
    MutexCap mutex;
    std::unordered_map<std::string, std::unique_ptr<Counter>>
        counters GUARDED_BY(mutex);
    std::unordered_map<std::string, std::unique_ptr<Histogram>>
        histograms GUARDED_BY(mutex);
};

Registry &
registry()
{
    static Registry *const reg = new Registry;
    return *reg;
}

template <typename T, typename Map>
T &
lookup(Map &map, std::string_view name, bool gated_histogram = true)
{
    const std::string key(name);
    auto it = map.find(key);
    if (it == map.end()) {
        std::unique_ptr<T> fresh;
        if constexpr (std::is_same_v<T, Histogram>) {
            fresh = std::make_unique<T>(gated_histogram);
        } else {
            fresh = std::make_unique<T>();
        }
        it = map.emplace(key, std::move(fresh)).first;
    }
    return *it->second;
}

/// Arm histograms at startup when BITWAVE_METRICS is set to anything
/// other than "" or "0".
[[maybe_unused]] const bool g_env_armed = [] {
    const std::string v = env_string("BITWAVE_METRICS");
    if (!v.empty() && v != "0") {
        set_enabled(true);
        return true;
    }
    return false;
}();

std::string
sanitize_prometheus(const std::string &name)
{
    std::string out = "bitwave_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
append_json_escaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
        }
        out.push_back(c);
    }
    out.push_back('"');
}

void
append_u64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
append_double(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
}

} // namespace

void
set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
        if (buckets[i] == 0) {
            continue;
        }
        const double before = static_cast<double>(cumulative);
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) >= target) {
            const double lo =
                static_cast<double>(Histogram::bucket_lower_bound(i));
            const double hi = static_cast<double>(
                Histogram::bucket_lower_bound(i + 1));
            const double frac =
                std::clamp((target - before) /
                               static_cast<double>(buckets[i]),
                           0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
    }
    return static_cast<double>(
        Histogram::bucket_lower_bound(kHistogramBuckets));
}

int
Histogram::bucket_index(std::uint64_t value)
{
    if (value < 16) {
        return static_cast<int>(value);
    }
    int octave = std::bit_width(value) - 1; // >= 4
    if (octave > 47) {
        return kHistogramBuckets - 1;
    }
    const int sub = static_cast<int>((value >> (octave - 2)) & 3);
    return 16 + (octave - 4) * 4 + sub;
}

std::uint64_t
Histogram::bucket_lower_bound(int index)
{
    if (index <= 16) {
        return static_cast<std::uint64_t>(index < 0 ? 0 : index);
    }
    if (index >= kHistogramBuckets) {
        return std::uint64_t{1} << 48;
    }
    const int q = index - 16;
    const int octave = 4 + q / 4;
    const std::uint64_t sub = static_cast<std::uint64_t>(q % 4);
    return (std::uint64_t{4} + sub) << (octave - 2);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    out.count = count_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
        out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
}

Counter &
counter(std::string_view name)
{
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    return lookup<Counter>(reg.counters, name);
}

Histogram &
histogram(std::string_view name)
{
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    return lookup<Histogram>(reg.histograms, name);
}

std::uint64_t
counter_value(std::string_view name)
{
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    const auto it = reg.counters.find(std::string(name));
    return it == reg.counters.end() ? 0 : it->second->value();
}

Snapshot
snapshot()
{
    Snapshot out;
    {
        Registry &reg = registry();
        MutexLock lock(reg.mutex);
        for (const auto &[name, c] : reg.counters) {
            out.counters.emplace_back(name, c->value());
        }
        for (const auto &[name, h] : reg.histograms) {
            out.histograms.emplace_back(name, h->snapshot());
        }
    }
    const auto by_name = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(out.counters.begin(), out.counters.end(), by_name);
    std::sort(out.histograms.begin(), out.histograms.end(), by_name);
    return out;
}

std::string
render_prometheus(const Snapshot &snap)
{
    std::string out;
    for (const auto &[name, value] : snap.counters) {
        const std::string prom = sanitize_prometheus(name);
        out += "# TYPE " + prom + " counter\n";
        out += prom + " ";
        append_u64(out, value);
        out.push_back('\n');
    }
    for (const auto &[name, hist] : snap.histograms) {
        const std::string prom = sanitize_prometheus(name);
        out += "# TYPE " + prom + " histogram\n";
        std::uint64_t cumulative = 0;
        for (int i = 0; i < kHistogramBuckets; ++i) {
            if (hist.buckets[i] == 0) {
                continue;
            }
            cumulative += hist.buckets[i];
            out += prom + "_bucket{le=\"";
            append_u64(out, Histogram::bucket_lower_bound(i + 1) - 1);
            out += "\"} ";
            append_u64(out, cumulative);
            out.push_back('\n');
        }
        out += prom + "_bucket{le=\"+Inf\"} ";
        append_u64(out, hist.count);
        out.push_back('\n');
        out += prom + "_sum ";
        append_u64(out, hist.sum);
        out.push_back('\n');
        out += prom + "_count ";
        append_u64(out, hist.count);
        out.push_back('\n');
    }
    return out;
}

std::string
render_json(const Snapshot &snap)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : snap.counters) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        append_json_escaped(out, name);
        out.push_back(':');
        append_u64(out, value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : snap.histograms) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        append_json_escaped(out, name);
        out += ":{\"count\":";
        append_u64(out, hist.count);
        out += ",\"sum\":";
        append_u64(out, hist.sum);
        out += ",\"mean\":";
        append_double(out, hist.mean());
        out += ",\"p50\":";
        append_double(out, hist.quantile(0.50));
        out += ",\"p90\":";
        append_double(out, hist.quantile(0.90));
        out += ",\"p99\":";
        append_double(out, hist.quantile(0.99));
        out.push_back('}');
    }
    out += "}}";
    return out;
}

} // namespace bitwave::metrics
