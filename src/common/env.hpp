/**
 * @file
 * One validated front door for the BITWAVE_* environment knobs
 * (BITWAVE_THREADS, BITWAVE_FAULT_SPEC/_SEED, BITWAVE_METRICS,
 * BITWAVE_TRACE/_EVENTS).
 * Every consumer used to hand-roll its own strtoll/getenv parsing with
 * silently divergent error handling; this helper parses strictly, and a
 * malformed or out-of-range value is *reported* — warned once per
 * variable per process — instead of being silently ignored, so
 * "BITWAVE_THREADS=4x" no longer masquerades as an unset knob.
 */
#pragma once

#include <string>

namespace bitwave {

/**
 * Integer environment knob: the value of @p name when it parses
 * strictly (whole string consumed) as an integer >= 1, else
 * @p fallback. Unset and empty both mean "use the fallback" silently; a
 * set-but-invalid value (garbage, trailing characters, zero, negative)
 * warns once per variable per process and then falls back.
 */
long long env_positive_int(const char *name, long long fallback);

/// String environment knob: the value of @p name, empty when unset.
std::string env_string(const char *name);

}  // namespace bitwave
