#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"

namespace bitwave::trace {

namespace {

constexpr std::size_t kDefaultRingEvents = 32768;

/// One thread's ring. It grows by push_back as the thread records, up
/// to `capacity` events, then wraps: a thread pays only for the events
/// it keeps, not for the full capacity on its first event.
struct ThreadBuffer
{
    MutexCap mutex;
    std::vector<Event> ring GUARDED_BY(mutex);
    /// Total events ever written.
    std::uint64_t head GUARDED_BY(mutex) = 0;
    // Immutable once the buffer is published.
    std::size_t capacity = 1;
    std::uint32_t tid = 0;
};

/// Global buffer registry.  Leaked on purpose: worker threads and the
/// atexit exporter may touch it while static destructors run.
struct Global
{
    MutexCap mutex;
    std::vector<std::shared_ptr<ThreadBuffer>>
        buffers GUARDED_BY(mutex);
    std::atomic<std::uint64_t> dropped{0};
    std::size_t ring_capacity GUARDED_BY(mutex) = kDefaultRingEvents;
    std::string env_path GUARDED_BY(mutex);
};

Global &
global()
{
    static Global *const g = new Global;
    return *g;
}

std::atomic<ClockFn> g_clock{nullptr};

std::uint64_t
default_now_ns()
{
    static const auto start = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

ThreadBuffer &
local_buffer()
{
    thread_local const std::shared_ptr<ThreadBuffer> buffer = [] {
        auto fresh = std::make_shared<ThreadBuffer>();
        Global &g = global();
        MutexLock lock(g.mutex);
        fresh->capacity = g.ring_capacity;
        fresh->tid = static_cast<std::uint32_t>(thread_ordinal());
        g.buffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

void
push_event(const Event &event)
{
    ThreadBuffer &buf = local_buffer();
    MutexLock lock(buf.mutex);
    if (buf.ring.size() < buf.capacity) {
        buf.ring.push_back(event);
    } else {
        global().dropped.fetch_add(1, std::memory_order_relaxed);
        buf.ring[buf.head % buf.capacity] = event;
    }
    buf.head++;
}

void
write_env_trace()
{
    Global &g = global();
    std::string path;
    {
        MutexLock lock(g.mutex);
        path = g.env_path;
    }
    if (!path.empty()) {
        write_json(path);
    }
}

/// BITWAVE_TRACE=<path> arms tracing at startup and registers an
/// atexit exporter; BITWAVE_TRACE_EVENTS overrides the per-thread
/// ring capacity.
[[maybe_unused]] const bool g_env_armed = [] {
    const long long events =
        env_positive_int("BITWAVE_TRACE_EVENTS",
                         static_cast<long long>(kDefaultRingEvents));
    set_ring_capacity(static_cast<std::size_t>(events));
    const std::string path = env_string("BITWAVE_TRACE");
    if (path.empty()) {
        return false;
    }
    {
        // Under the registry mutex: the exporter path is read by
        // write_env_trace() at exit, potentially while late worker
        // threads are still registering buffers.
        Global &g = global();
        MutexLock lock(g.mutex);
        g.env_path = path;
    }
    start();
    std::atexit(&write_env_trace);
    return true;
}();

void
append_json_event(std::string &out, const Event &event)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  event.name, event.cat, event.phase,
                  static_cast<double>(event.ts_ns) / 1000.0,
                  static_cast<double>(event.dur_ns) / 1000.0, event.tid);
    out += buf;
    if (event.phase == 'i') {
        out += ",\"s\":\"t\"";
    }
    if (event.arg0_name != nullptr) {
        std::snprintf(buf, sizeof buf, ",\"args\":{\"%s\":%llu",
                      event.arg0_name,
                      static_cast<unsigned long long>(event.arg0));
        out += buf;
        if (event.arg1_name != nullptr) {
            std::snprintf(buf, sizeof buf, ",\"%s\":%llu",
                          event.arg1_name,
                          static_cast<unsigned long long>(event.arg1));
            out += buf;
        }
        out.push_back('}');
    }
    out.push_back('}');
}

} // namespace

void
set_clock(ClockFn fn)
{
    g_clock.store(fn, std::memory_order_relaxed);
}

std::uint64_t
now_ns()
{
    const ClockFn fn = g_clock.load(std::memory_order_relaxed);
    return fn != nullptr ? fn() : default_now_ns();
}

void
start()
{
    g_enabled.store(true, std::memory_order_relaxed);
}

void
stop()
{
    g_enabled.store(false, std::memory_order_relaxed);
}

void
clear()
{
    Global &g = global();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        MutexLock lock(g.mutex);
        buffers = g.buffers;
    }
    for (const auto &buf : buffers) {
        MutexLock lock(buf->mutex);
        buf->ring = {};
        buf->head = 0;
    }
    g.dropped.store(0, std::memory_order_relaxed);
}

void
emit_complete(const char *name, const char *cat, std::uint64_t ts_ns,
              std::uint64_t dur_ns, const char *arg0_name,
              std::uint64_t arg0, const char *arg1_name,
              std::uint64_t arg1)
{
    if (!enabled()) {
        return;
    }
    Event event;
    event.name = name;
    event.cat = cat;
    event.ts_ns = ts_ns;
    event.dur_ns = dur_ns;
    event.phase = 'X';
    event.arg0_name = arg0_name;
    event.arg0 = arg0;
    event.arg1_name = arg1_name;
    event.arg1 = arg1;
    push_event(event);
}

void
instant(const char *name, const char *cat, const char *arg0_name,
        std::uint64_t arg0, const char *arg1_name, std::uint64_t arg1)
{
    if (!enabled()) {
        return;
    }
    Event event;
    event.name = name;
    event.cat = cat;
    event.ts_ns = now_ns();
    event.phase = 'i';
    event.arg0_name = arg0_name;
    event.arg0 = arg0;
    event.arg1_name = arg1_name;
    event.arg1 = arg1;
    push_event(event);
}

std::vector<Event>
snapshot_events()
{
    Global &g = global();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        MutexLock lock(g.mutex);
        buffers = g.buffers;
    }
    std::vector<Event> out;
    for (const auto &buf : buffers) {
        MutexLock lock(buf->mutex);
        const std::uint64_t capacity = buf->capacity;
        const std::uint64_t kept = std::min(buf->head, capacity);
        for (std::uint64_t i = buf->head - kept; i < buf->head; ++i) {
            Event event = buf->ring[i % capacity];
            event.tid = buf->tid;
            out.push_back(event);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts_ns < b.ts_ns;
                     });
    return out;
}

std::uint64_t
dropped_events()
{
    return global().dropped.load(std::memory_order_relaxed);
}

void
set_ring_capacity(std::size_t events)
{
    Global &g = global();
    MutexLock lock(g.mutex);
    g.ring_capacity = std::max<std::size_t>(1, events);
}

std::size_t
write_json(const std::string &path)
{
    const std::vector<Event> events = snapshot_events();
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        warn("trace: cannot open '%s' for writing", path.c_str());
        return 0;
    }
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i != 0) {
            out.push_back(',');
        }
        out.push_back('\n');
        append_json_event(out, events[i]);
    }
    out += "\n]}\n";
    std::fwrite(out.data(), 1, out.size(), file);
    std::fclose(file);
    return events.size();
}

} // namespace bitwave::trace
