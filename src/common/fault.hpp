/**
 * @file
 * Deterministic fault injection — the failure model behind the
 * robustness layer. A registry of named **fault points**
 * (`BITWAVE_FAULT_POINT("runner.chunk")`, `"mpmc.push"`, …) sits at the
 * seams of the stack: queue admission, runner layer-range execution,
 * bit-plane packing. Each point can be armed with a per-point
 * probability and a fault *kind*:
 *
 *   - `transient` — throw FaultError(kTransient): the weather of flaky
 *     infrastructure (an NFS hiccup, a preempted worker). Retryable.
 *   - `error`     — make the call site take its error-return path
 *     (sites without one throw FaultError(kInternal) instead): a
 *     failure that is *not* retryable.
 *   - `delay`     — sleep the caller for a configured number of
 *     milliseconds, then continue normally: a stalled disk or a
 *     descheduled VM. Feeds the runner's stall budget.
 *
 * Configuration comes from `BITWAVE_FAULT_SPEC` (comma-separated
 * `point[@tag]=probability[:kind[:delay_ms]]` entries, `*` matching
 * every point) and `BITWAVE_FAULT_SEED`, or programmatically via
 * fault::configure(). Draws are seeded splitmix64 streams over a
 * per-point invocation counter — a (spec, seed) pair replays the same
 * storm — and the optional `@tag` restricts a point to call sites whose
 * context hash matches (e.g. one poisoned scenario label), which is how
 * the tests poison exactly one job in a batch.
 *
 * Cost when disarmed: `BITWAVE_FAULT_POINT` compiles to one relaxed
 * atomic load and a never-taken branch — nothing else is evaluated —
 * so production binaries pay nothing for carrying the fault model.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bitwave {

/**
 * Error taxonomy shared across the stack (the service surfaces it as
 * the EvalTicket failure payload):
 *   kTransient — infrastructure weather; safe and worthwhile to retry.
 *   kInvalid   — the request itself is unservable (bad configuration).
 *   kCancelled — cooperative abort (deadline, client cancel, shutdown).
 *   kInternal  — an unexpected failure; not retryable by default.
 */
enum class ErrorKind
{
    kTransient,
    kInvalid,
    kCancelled,
    kInternal,
};

/// Display name ("transient", "invalid", ...).
const char *error_kind_name(ErrorKind kind);

/// Exception thrown by armed fault points (and usable by real failure
/// detection, e.g. a retryable IO error) carrying its taxonomy kind.
class FaultError : public std::runtime_error
{
  public:
    FaultError(ErrorKind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    ErrorKind kind() const { return kind_; }

  private:
    ErrorKind kind_;
};

namespace fault {

/// What an armed fault point does when it fires.
enum class FaultKind
{
    kTransient,  ///< Throw FaultError(kTransient).
    kError,      ///< Return-error: the call site takes its error path.
    kDelay,      ///< Sleep delay_ms, then continue normally.
};

namespace detail {
/// Master switch, owned by fault.cpp. True only while at least one
/// point is armed — the whole registry is behind this one branch.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True when any fault point is armed (one relaxed load).
inline bool
enabled()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Register a fault point by name and return its stable id. Idempotent
 * per name; call sites cache the id in a function-local static. Safe to
 * call concurrently.
 */
std::size_t register_point(const char *name);

/**
 * Draw this invocation of point @p id against its armed configuration.
 * Returns true when a `error`-kind fault fired (the caller takes its
 * error-return path); throws FaultError for `transient`; sleeps for
 * `delay`. @p context is matched against the point's `@tag` filter
 * (0-filtered points fire for any context).
 */
bool fire(std::size_t id, std::uint64_t context);

/// Context hash of a call-site token (e.g. a scenario label) for
/// `@tag`-filtered fault points.
std::uint64_t context_tag(std::string_view token);

/**
 * Arm the registry from a spec string (see the file comment for the
 * grammar). Replaces any previous configuration; applies to already
 * registered points and to points registered later, and restarts every
 * per-point draw stream so the same (spec, seed) replays the same
 * storm. Malformed entries are warned once and skipped. An empty spec
 * disarms everything.
 */
void configure(const std::string &spec, std::uint64_t seed);

/// Disarm every fault point and clear the configuration (counters and
/// registered points survive — ids stay valid).
void reset();

/// Re-read BITWAVE_FAULT_SPEC / BITWAVE_FAULT_SEED (called once at
/// startup automatically; exposed for tests).
void configure_from_env();

/// Lifetime counters of the whole registry.
struct FaultStats
{
    std::uint64_t checks = 0;      ///< fire() draws against armed points.
    std::uint64_t fired = 0;       ///< Any kind.
    std::uint64_t transients = 0;  ///< FaultError(kTransient) thrown.
    std::uint64_t errors = 0;      ///< Error-return faults.
    std::uint64_t delays = 0;      ///< Delay faults.
};

FaultStats stats();

/// Snapshot of one registered point (for diagnostics and tests).
struct PointInfo
{
    std::string name;
    double probability = 0.0;      ///< 0 = disarmed.
    FaultKind kind = FaultKind::kTransient;
    double delay_ms = 0.0;
    std::uint64_t checks = 0;
    std::uint64_t fired = 0;
};

std::vector<PointInfo> points();

}  // namespace fault
}  // namespace bitwave

/**
 * Fault point with a context tag, as an expression: true when an
 * `error`-kind fault fired (take the error-return path); may throw
 * FaultError or sleep. Disarmed cost: one relaxed load + branch — the
 * id lookup and @p ctx are never evaluated.
 */
#define BITWAVE_FAULT_POINT_CTX(name, ctx)                                  \
    (::bitwave::fault::enabled() &&                                         \
     ::bitwave::fault::fire(                                                \
         []() -> std::size_t {                                              \
             static const std::size_t bitwave_fault_id_ =                   \
                 ::bitwave::fault::register_point(name);                    \
             return bitwave_fault_id_;                                      \
         }(),                                                               \
         (ctx)))

/// Fault point without a context tag (fires for any `@tag`-less spec).
#define BITWAVE_FAULT_POINT(name) BITWAVE_FAULT_POINT_CTX(name, 0)

/// Fault point at a site with no error-return path: `error`-kind faults
/// become FaultError(kInternal) throws.
#define BITWAVE_FAULT_INJECT_CTX(name, ctx)                                 \
    do {                                                                    \
        if (BITWAVE_FAULT_POINT_CTX(name, ctx)) {                           \
            throw ::bitwave::FaultError(                                    \
                ::bitwave::ErrorKind::kInternal,                            \
                "injected error fault at " name);                           \
        }                                                                   \
    } while (0)

#define BITWAVE_FAULT_INJECT(name) BITWAVE_FAULT_INJECT_CTX(name, 0)
