#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "common/annotations.hpp"

namespace bitwave {

namespace {

/// The sink and the mutex serialising every emission. One struct so
/// the guarded_by relation is spelled in the type: fatal and panic
/// messages flush through the same mutex, and concurrent loggers never
/// interleave lines.
struct LogState
{
    MutexCap mutex;
    LogSink sink GUARDED_BY(mutex);
};

LogState &
log_state()
{
    static LogState state;
    return state;
}

/// Single choke point: every message lands here under the log mutex.
/// Custom sinks receive the raw message; only the default stderr sink
/// prepends the monotonic stamp + thread ordinal, so sink-capturing
/// tests (and warn_once dedup, keyed before any stamping) stay
/// byte-stable.
void
emit(LogLevel level, const char *prefix, const std::string &message)
{
    LogState &state = log_state();
    MutexLock lock(state.mutex);
    if (state.sink) {
        state.sink(level, message);
        return;
    }
    std::fprintf(stderr, "[%12.6f t%02d] %s: %s\n", log_uptime_seconds(),
                 thread_ordinal(), prefix, message.c_str());
}

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed <= 0) {
        return {};
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

}  // namespace

LogSink
set_log_sink(LogSink sink)
{
    LogState &state = log_state();
    MutexLock lock(state.mutex);
    LogSink previous = std::move(state.sink);
    state.sink = std::move(sink);
    return previous;
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string message = vformat(fmt, args);
    va_end(args);
    emit(LogLevel::kWarn, "warn", message);
}

void
warn_once(const char *key, const char *fmt, ...)
{
    {
        struct OnceState
        {
            MutexCap mutex;
            std::set<std::string> reported GUARDED_BY(mutex);
        };
        static OnceState state;
        MutexLock lock(state.mutex);
        if (!state.reported.insert(key).second) {
            return;
        }
    }
    std::va_list args;
    va_start(args, fmt);
    const std::string message = vformat(fmt, args);
    va_end(args);
    emit(LogLevel::kWarn, "warn", message);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string message = vformat(fmt, args);
    va_end(args);
    emit(LogLevel::kFatal, "fatal", message);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string message = vformat(fmt, args);
    va_end(args);
    emit(LogLevel::kFatal, "panic", message);
    std::abort();
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

int
thread_ordinal()
{
    static std::atomic<int> next{0};
    thread_local const int ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
}

double
log_uptime_seconds()
{
    static const auto start = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace bitwave
