/**
 * @file
 * The evaluation service's layer metrics: the seeded Zipf multi-tenant
 * trace (bench::make_multitenant_trace) driven through one EvalService
 * in a closed loop — one generator thread keeps kOutstanding requests in
 * flight and submits the next as soon as any completes — on warm
 * caches, then the same under the seeded 1 % wildcard transient storm
 * with service_throughput's fault options. Each window lasts a fixed
 * time; requests still in flight when it closes are abandoned.
 */
#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/fault.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bitwave;

namespace {

constexpr std::size_t kTraceRequests = 1200;
constexpr std::size_t kOutstanding = 64;
constexpr double kWindowSeconds = 10.0;
constexpr const char *kStormSpec = "*=0.01:transient";

std::vector<bench::TraceRequest>
make_trace(const Options &options)
{
    bench::TraceSpec spec;
    spec.requests = kTraceRequests;
    spec.seed = options.seed;
    auto trace = bench::make_multitenant_trace(spec);
    if (options.tiny) {
        std::erase_if(trace, [](const bench::TraceRequest &r) {
            return r.scenario.workload != WorkloadId::kCnnLstm;
        });
    }
    return trace;
}

/// service_throughput's options: one dispatcher, batches of up to 16,
/// 0.5 ms linger, blocking admission; the storm adds its fault options.
service::ServiceOptions
service_options(bool storm)
{
    service::ServiceOptions options;
    options.queue_capacity = 512;
    options.policy = service::BackpressurePolicy::kBlock;
    options.dispatchers = 1;
    options.max_batch = 16;
    options.linger_seconds = 0.0005;
    if (storm) {
        // Per-layer chunks on a real (>= 2 worker) pool, so every layer
        // is a fault draw.
        options.runner.threads = static_cast<int>(
            std::max(2u, std::thread::hardware_concurrency()));
        options.runner.shard_layers = 1;
        options.retry.max_attempts = 6;
        options.retry.backoff_seconds = 0.001;
        options.retry.max_backoff_seconds = 0.02;
    }
    return options;
}

/// The trace's distinct requests (by fingerprint) and their goldens.
struct Goldens
{
    std::vector<eval::ScenarioResult> results;
    std::unordered_map<std::uint64_t, std::size_t> by_fingerprint;
};

/**
 * Every distinct request of the trace evaluated once, directly, under
 * the seed the service pins it to: this warms every content cache the
 * windows read, and the results are the goldens.
 */
Goldens
warm_up(const std::vector<bench::TraceRequest> &trace)
{
    Goldens g;
    std::vector<eval::Scenario> scenarios;
    std::vector<std::uint64_t> seeds;
    for (const auto &req : trace) {
        const auto fp = eval::scenario_fingerprint(req.scenario);
        if (g.by_fingerprint.emplace(fp, scenarios.size()).second) {
            scenarios.push_back(req.scenario);
            seeds.push_back(eval::scenario_rng_seed(req.scenario, 0));
        }
    }
    g.results = direct_results(scenarios, seeds, golden_workers());
    return g;
}

/// One closed-loop window through one service.
struct Window
{
    /// Declared first so it outlives the tickets it issued.
    std::unique_ptr<service::EvalService> service;
    std::vector<std::pair<service::EvalTicket, std::size_t>> tickets;
    service::ServiceStats stats;
};

/**
 * Submit trace requests (from @p cursor on, wrapping) for @p seconds,
 * keeping kOutstanding in flight; then shut the service down, which
 * abandons what is still in flight (those requests end kShutdown).
 */
Window
closed_loop(const service::ServiceOptions &options,
            const std::vector<bench::TraceRequest> &trace, double seconds,
            std::size_t &cursor)
{
    Window w;
    w.service = std::make_unique<service::EvalService>(options);
    service::EvalService &svc = *w.service;
    std::vector<std::size_t> outstanding;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
        if (outstanding.size() < kOutstanding) {
            const auto &req = trace[cursor % trace.size()];
            service::SubmitOptions submit;
            submit.deadline_seconds = req.deadline_seconds;
            w.tickets.emplace_back(svc.submit(req.scenario, submit),
                                   cursor % trace.size());
            ++cursor;
            outstanding.push_back(w.tickets.size() - 1);
            continue;
        }
        const std::size_t before = outstanding.size();
        std::erase_if(outstanding, [&](std::size_t i) {
            return service::ticket_status_terminal(
                w.tickets[i].first.status());
        });
        if (outstanding.size() == before) {
            w.tickets[outstanding.front()].first.wait_for(0.0002);
        }
    }
    svc.shutdown(service::EvalService::ShutdownMode::kAbort);
    w.stats = svc.stats();
    return w;
}

/**
 * Check one window: every completed request is bit-identical to its
 * golden; requests abandoned at the window's end are expected, and in
 * the @p storm window so are failures of the injected transient kind.
 * Returns the requests a user saw fail.
 */
std::int64_t
check_window(Report &report, const Window &w,
             const std::vector<bench::TraceRequest> &trace,
             const Goldens &goldens, bool storm)
{
    std::int64_t failures = 0;
    for (const auto &[ticket, index] : w.tickets) {
        const auto &scenario = trace[index].scenario;
        const auto status = ticket.status();
        if (status == service::TicketStatus::kShutdown) {
            continue;
        }
        ++report.attempted;
        if (status == service::TicketStatus::kDone) {
            const auto it = goldens.by_fingerprint.find(
                eval::scenario_fingerprint(scenario));
            if (!bench::identical_result(ticket.result(),
                                         goldens.results[it->second])) {
                ++failures;
                ++report.failed;
                report.problem("request " + std::to_string(index) + " (" +
                               scenario.name() +
                               ") differs from its direct evaluation");
            }
            continue;
        }
        ++failures;
        if (storm && status == service::TicketStatus::kFailed &&
            ticket.error_kind() == eval::ErrorKind::kTransient) {
            continue;  // The storm's own transient, retries exhausted.
        }
        ++report.failed;
        report.problem("request " + std::to_string(index) + " (" +
                       scenario.name() + ") ended " +
                       service::ticket_status_name(status));
    }
    return failures;
}

double
ms(const metrics::HistogramSnapshot &h, double q)
{
    return h.quantile(q) / 1e6;
}

std::string
window_info(const Window &w, std::int64_t failures)
{
    return std::to_string(w.tickets.size()) + " submitted, " +
        std::to_string(w.stats.completed) + " done, " +
        std::to_string(failures) + " failed, " +
        std::to_string(kOutstanding) + " outstanding";
}

}  // namespace

void
report_service_layers(Report &report, const Options &options)
{
    const auto trace = make_trace(options);
    const Goldens goldens = warm_up(trace);
    const double seconds = std::min(options.seconds, kWindowSeconds);
    std::size_t cursor = 0;

    const Window zipf =
        closed_loop(service_options(false), trace, seconds, cursor);
    const auto zipf_failures =
        check_window(report, zipf, trace, goldens, false);
    const auto &s = zipf.stats;
    report.metric("service.queue_wait_p50_ms", ms(s.queue_wait_ns, 0.50),
                  "ms");
    report.metric("service.queue_wait_p99_ms", ms(s.queue_wait_ns, 0.99),
                  "ms");
    report.metric("service.batch_p99_ms", ms(s.batch_ns, 0.99), "ms");
    report.metric("service.compute_p50_ms", ms(s.compute_ns, 0.50), "ms");
    report.metric("service.compute_p99_ms", ms(s.compute_ns, 0.99), "ms");
    report.metric("service.dedup_hit_rate",
                  s.submitted > 0 ? static_cast<double>(s.dedup_hits) /
                          static_cast<double>(s.submitted)
                                  : 0.0,
                  "frac");
    report.metric("service.jobs_per_batch",
                  s.batches > 0 ? static_cast<double>(s.batched_jobs) /
                          static_cast<double>(s.batches)
                                : 0.0,
                  "count");
    report.info.emplace_back("service_window",
                             window_info(zipf, zipf_failures));

    const auto faults_before = fault::stats().fired;
    fault::configure(kStormSpec, options.seed);
    const Window storm =
        closed_loop(service_options(true), trace, seconds, cursor);
    fault::reset();
    const auto storm_failures =
        check_window(report, storm, trace, goldens, true);
    const auto &f = storm.stats;
    report.metric("service.retries", static_cast<double>(f.retries),
                  "count");
    report.metric("service.bisections", static_cast<double>(f.bisections),
                  "count");
    report.metric("service.quarantined", static_cast<double>(f.quarantined),
                  "count");
    report.metric("service.faults_injected",
                  static_cast<double>(fault::stats().fired - faults_before),
                  "count");
    report.info.emplace_back("storm_window",
                             window_info(storm, storm_failures));
}

}  // namespace perfbench
