#include "common/fault.hpp"

#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace bitwave {

const char *
error_kind_name(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::kTransient: return "transient";
      case ErrorKind::kInvalid: return "invalid";
      case ErrorKind::kCancelled: return "cancelled";
      case ErrorKind::kInternal: return "internal";
    }
    return "?";
}

namespace fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// What an armed fault point throws when it fires.
enum class FaultKind
{
    kTransient,  ///< FaultError(kTransient): retryable.
    kError,      ///< FaultError(kInternal): not retryable.
};

/// Armed configuration of one point, packed into atomics so fire() on
/// hot paths never takes the registry mutex.
struct PointConfig
{
    /// Probability as bit-cast double; 0 bits = disarmed.
    std::atomic<std::uint64_t> probability_bits{0};
    std::atomic<int> kind{static_cast<int>(FaultKind::kTransient)};
    /// `@tag` filter; 0 = fire for any context.
    std::atomic<std::uint64_t> tag{0};
};

struct Point
{
    std::string name;
    std::uint64_t salt = 0;  ///< splitmix64(fnv1a(name)): per-point stream.
    PointConfig config;
    std::atomic<std::uint64_t> counter{0};  ///< Invocation index.
};

/// One parsed spec entry.
struct SpecEntry
{
    double probability = 0.0;
    FaultKind kind = FaultKind::kTransient;
    std::uint64_t tag = 0;
};

/// Slot-table capacity. Registration past this aliases onto the last
/// slot (warn-once, never UB) — the codebase names a handful of seams.
constexpr std::size_t kMaxPoints = 256;

struct Registry
{
    MutexCap mutex;  ///< Guards registration + spec.
    /// Fixed slot table: fire() indexes it without the mutex, so the
    /// backing storage must never move — a growable vector's realloc
    /// would race the lock-free read. Each slot is written exactly once,
    /// under the mutex, before its id is published to any caller —
    /// which is also why it is deliberately NOT GUARDED_BY(mutex).
    std::unique_ptr<Point> points[kMaxPoints];
    std::size_t point_count GUARDED_BY(mutex) = 0;
    std::unordered_map<std::string, std::size_t> by_name GUARDED_BY(mutex);
    /// Armed spec, applied to points registered after configure().
    std::unordered_map<std::string, SpecEntry> spec GUARDED_BY(mutex);
    bool has_wildcard GUARDED_BY(mutex) = false;
    SpecEntry wildcard GUARDED_BY(mutex);
    std::atomic<std::uint64_t> seed{0};
    /// Aggregate tallies live in the global metrics registry
    /// (fault.*); fault::stats() is a thin view over them. They are
    /// monotonic across configure()/reset() just like before.
    metrics::Counter &fired = metrics::counter("fault.fired");
    metrics::Counter &transients = metrics::counter("fault.transients");
    metrics::Counter &errors = metrics::counter("fault.errors");
    metrics::Counter &checks = metrics::counter("fault.checks");
};

Registry &
registry()
{
    static Registry r;
    return r;
}

void
apply_locked(Point &point, const SpecEntry &entry)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    const double p = entry.probability;
    __builtin_memcpy(&bits, &p, sizeof(bits));
    point.config.kind.store(static_cast<int>(entry.kind),
                            std::memory_order_relaxed);
    point.config.tag.store(entry.tag, std::memory_order_relaxed);
    // Probability last: a concurrent fire() that sees it non-zero also
    // sees kind/tag from this entry or a newer one — close enough
    // for a fault injector; arming mid-flight is inherently racy.
    point.config.probability_bits.store(bits, std::memory_order_release);
}

void
disarm_locked(Point &point)
{
    point.config.probability_bits.store(0, std::memory_order_relaxed);
}

/// Parse one `point[@tag]=prob[:kind]` entry; false (with a warn-once)
/// on malformed input.
bool
parse_entry(const std::string &text, std::string *name, SpecEntry *entry)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0) {
        return false;
    }
    *name = text.substr(0, eq);
    const auto at = name->find('@');
    if (at != std::string::npos) {
        const std::string tag = name->substr(at + 1);
        if (tag.empty()) {
            return false;
        }
        entry->tag = context_tag(tag);
        name->resize(at);
    }
    if (name->empty()) {
        return false;
    }
    std::string rest = text.substr(eq + 1);
    std::string kind_text;
    const auto colon = rest.find(':');
    if (colon != std::string::npos) {
        kind_text = rest.substr(colon + 1);
        rest.resize(colon);
    }
    char *end = nullptr;
    entry->probability = std::strtod(rest.c_str(), &end);
    if (end == nullptr || *end != '\0' || rest.empty() ||
        !(entry->probability >= 0.0) || entry->probability > 1.0) {
        return false;
    }
    if (kind_text.empty() || kind_text == "transient") {
        entry->kind = FaultKind::kTransient;
    } else if (kind_text == "error") {
        entry->kind = FaultKind::kError;
    } else {
        return false;
    }
    return true;
}

/// uint64 -> double in [0, 1).
double
to_unit(std::uint64_t u)
{
    return static_cast<double>(u >> 11) * 0x1.0p-53;
}

}  // namespace

std::size_t
register_point(const char *name)
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    auto it = r.by_name.find(name);
    if (it != r.by_name.end()) {
        return it->second;
    }
    auto point = std::make_unique<Point>();
    point->name = name;
    point->salt = splitmix64(fnv1a(name, std::string_view(name).size()));
    auto spec_it = r.spec.find(point->name);
    if (spec_it != r.spec.end()) {
        apply_locked(*point, spec_it->second);
    } else if (r.has_wildcard) {
        apply_locked(*point, r.wildcard);
    }
    if (r.point_count >= kMaxPoints) {
        warn_once("fault:slot-overflow",
                  "fault point table full (%zu); \"%s\" aliases the last "
                  "registered point",
                  kMaxPoints, name);
        return kMaxPoints - 1;
    }
    const std::size_t id = r.point_count;
    r.points[id] = std::move(point);
    r.point_count = id + 1;
    r.by_name.emplace(name, id);
    return id;
}

std::uint64_t
context_tag(std::string_view token)
{
    return fnv1a(token.data(), token.size());
}

void
fire(std::size_t id, std::uint64_t context)
{
    Registry &r = registry();
    Point &point = *r.points[id];  // ids are stable; no lock needed
    const std::uint64_t bits =
        point.config.probability_bits.load(std::memory_order_acquire);
    if (bits == 0) {
        return;
    }
    const std::uint64_t tag =
        point.config.tag.load(std::memory_order_relaxed);
    if (tag != 0 && tag != context) {
        return;
    }
    r.checks.inc();
    double probability = 0.0;
    __builtin_memcpy(&probability, &bits, sizeof(probability));
    const std::uint64_t n =
        point.counter.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seed = r.seed.load(std::memory_order_relaxed);
    if (to_unit(splitmix64(seed ^ point.salt ^ n)) >= probability) {
        return;
    }
    r.fired.inc();
    const bool transient =
        static_cast<FaultKind>(point.config.kind.load(
            std::memory_order_relaxed)) == FaultKind::kTransient;
    (transient ? r.transients : r.errors).inc();
    throw FaultError(transient ? ErrorKind::kTransient
                               : ErrorKind::kInternal,
                     strprintf("injected %s fault at %s (draw %llu)",
                               transient ? "transient" : "error",
                               point.name.c_str(),
                               static_cast<unsigned long long>(n)));
}

void
configure(const std::string &spec, std::uint64_t seed)
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    r.spec.clear();
    r.has_wildcard = false;
    r.seed.store(seed, std::memory_order_relaxed);
    std::size_t begin = 0;
    bool armed = false;
    while (begin <= spec.size()) {
        std::size_t end = spec.find_first_of(",;", begin);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string entry_text = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry_text.empty()) {
            continue;
        }
        std::string name;
        SpecEntry entry;
        if (!parse_entry(entry_text, &name, &entry)) {
            warn_once(("fault-spec:" + entry_text).c_str(),
                      "ignoring malformed BITWAVE_FAULT_SPEC entry \"%s\" "
                      "(expected point[@tag]=prob[:kind])",
                      entry_text.c_str());
            continue;
        }
        if (name == "*") {
            r.has_wildcard = true;
            r.wildcard = entry;
        } else {
            r.spec[name] = entry;
        }
        armed = armed || entry.probability > 0.0;
    }
    for (std::size_t i = 0; i < r.point_count; ++i) {
        auto &point = r.points[i];
        // Restart the per-point draw stream: a (spec, seed) pair replays
        // the same storm no matter what ran before this configure().
        point->counter.store(0, std::memory_order_relaxed);
        auto it = r.spec.find(point->name);
        if (it != r.spec.end()) {
            apply_locked(*point, it->second);
        } else if (r.has_wildcard) {
            apply_locked(*point, r.wildcard);
        } else {
            disarm_locked(*point);
        }
    }
    detail::g_armed.store(armed, std::memory_order_relaxed);
}

void
reset()
{
    configure(std::string(), 0);
}

FaultStats
stats()
{
    // Thin view over the fault.* registry counters.
    Registry &r = registry();
    FaultStats s;
    s.checks = r.checks.value();
    s.fired = r.fired.value();
    s.transients = r.transients.value();
    s.errors = r.errors.value();
    return s;
}

namespace {

/// Arm from BITWAVE_FAULT_SPEC / BITWAVE_FAULT_SEED once at startup, so
/// any binary can run a storm without code changes.
const bool g_env_configured = [] {
    const std::string spec = env_string("BITWAVE_FAULT_SPEC");
    if (!spec.empty()) {
        configure(spec, static_cast<std::uint64_t>(env_positive_int(
                            "BITWAVE_FAULT_SEED", 0x5eed)));
    }
    return true;
}();

}  // namespace

}  // namespace fault
}  // namespace bitwave
