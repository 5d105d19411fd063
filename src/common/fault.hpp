/**
 * @file
 * Deterministic fault injection — the failure model behind the
 * robustness layer. A registry of named **fault points**
 * (`BITWAVE_FAULT_POINT("runner.chunk")`, `"mpmc.push"`, …) sits at the
 * seams of the stack: queue admission, runner layer-range execution,
 * bit-plane packing. Each point can be armed with a per-point
 * probability and a fault *kind*; an armed point that fires throws:
 *
 *   - `transient` — FaultError(kTransient): the weather of flaky
 *     infrastructure (an NFS hiccup, a preempted worker). Retryable.
 *   - `error`     — FaultError(kInternal): a failure that is *not*
 *     retryable.
 *
 * Configuration comes from `BITWAVE_FAULT_SPEC` (comma-separated
 * `point[@tag]=probability[:kind]` entries, `*` matching every point)
 * and `BITWAVE_FAULT_SEED`, read once at startup, or programmatically
 * via fault::configure(). Draws are seeded splitmix64 streams over a
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
 * Draw this invocation of point @p id against its armed configuration
 * and throw FaultError of the point's kind when it fires. @p context is
 * matched against the point's `@tag` filter (0-filtered points fire for
 * any context).
 */
void fire(std::size_t id, std::uint64_t context);

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

/// Lifetime counters of the whole registry.
struct FaultStats
{
    std::uint64_t checks = 0;      ///< fire() draws against armed points.
    std::uint64_t fired = 0;       ///< Any kind.
    std::uint64_t transients = 0;  ///< FaultError(kTransient) thrown.
    std::uint64_t errors = 0;      ///< FaultError(kInternal) thrown.
};

FaultStats stats();

}  // namespace fault
}  // namespace bitwave

/**
 * Fault point with a context tag, as a statement: throws FaultError when
 * an armed draw fires. Disarmed cost: one relaxed load + branch — the id
 * lookup and @p ctx are never evaluated.
 */
#define BITWAVE_FAULT_POINT_CTX(name, ctx)                                  \
    do {                                                                    \
        if (::bitwave::fault::enabled()) {                                  \
            static const std::size_t bitwave_fault_id_ =                    \
                ::bitwave::fault::register_point(name);                     \
            ::bitwave::fault::fire(bitwave_fault_id_, (ctx));               \
        }                                                                   \
    } while (0)

/// Fault point without a context tag (fires for any `@tag`-less spec).
#define BITWAVE_FAULT_POINT(name) BITWAVE_FAULT_POINT_CTX(name, 0)
