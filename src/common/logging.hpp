/**
 * @file
 * Minimal logging / fatal-error facilities in the spirit of gem5's
 * logging.hh: `fatal` for user errors that make continuing impossible,
 * `panic` for internal invariant violations, `warn` for status.
 */
#pragma once

#include <cstdarg>
#include <functional>
#include <string>

namespace bitwave {

/// Severity of a log line: kWarn for warn/warn_once, kFatal for fatal
/// and panic.
enum class LogLevel { kWarn, kFatal };

/**
 * Sink receiving every formatted log line (level + message without the
 * trailing newline). All messages — warn/fatal/panic and the warn_once
 * dedup path — funnel through one mutex-serialised sink, so
 * concurrent loggers never interleave lines and an embedding process
 * (an MPI rank, a test harness) can capture or redirect everything.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/// Replace the sink (nullptr/default restores stderr). Returns the
/// previous sink so scoped captures can chain.
LogSink set_log_sink(LogSink sink);

/// Print a warning (printf-style).
void warn(const char *fmt, ...);

/**
 * Warn once per @p key per process (printf-style): a long-running
 * service with a typoed knob or a recurring injected fault logs one
 * line, not one per occurrence.
 */
void warn_once(const char *key, const char *fmt, ...);

/**
 * Report an unrecoverable user-facing error (bad configuration, invalid
 * arguments) and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * Report an internal invariant violation (a bug in this library) and
 * abort().
 */
[[noreturn]] void panic(const char *fmt, ...);

/// Printf-style formatting into a std::string.
std::string strprintf(const char *fmt, ...);

/**
 * Small sequential ordinal of the calling thread (0, 1, 2, … in
 * first-use order). Stable for the thread's lifetime; shared by the
 * default log sink's stamps and the trace exporter's `tid` field so a
 * log line and a trace row from the same thread carry the same id.
 */
int thread_ordinal();

/// Monotonic seconds since the process started (the default log
/// sink's timestamp base).
double log_uptime_seconds();

}  // namespace bitwave
