/**
 * @file
 * Service throughput bench — the ROADMAP item 1 headline: sustained
 * requests/s and p50/p99 latency of the evaluation service under a
 * synthetic multi-tenant trace (seeded, Zipf-distributed over the
 * benchmark networks; mixed full-grid evaluations, single-layer DSE
 * probes, Bit-Flip variant sweeps and statistics queries).
 *
 * Two replays of the same trace run through two service instances: a
 * cold pass that pays workload synthesis and cache fills, then the
 * measured warm pass — the steady-state regime a long-running service
 * operates in. After the warm pass every *distinct* request in the
 * trace is re-evaluated directly through a one-shot ScenarioRunner and
 * compared field-for-field against the service's answer: the
 * `bit_identical` flag in BENCH_service_throughput.json is CI's hard
 * gate on the service determinism contract (dedup, dynamic batching and
 * chunk order are pure scheduling).
 *
 * A third replay runs the trace with the observability layer fully
 * armed (metrics + request-span tracing) through another fresh
 * service: `bit_identical_traced` gates that instrumentation never
 * changes results, the Chrome trace-event JSON for the whole replay
 * lands in `--trace <path>` (default service_throughput_trace.json),
 * and `trace_overhead_frac` reports the armed-vs-warm wall ratio.
 * The warm service's always-on phase histograms decompose latency
 * into queue-wait / batch-form / compute p50/p90/p99 JSON keys.
 *
 * A fourth replay runs the same trace under a seeded 1% wildcard
 * transient fault storm (`--faults [seed]` picks the storm seed; CI
 * sweeps it): the runner retries each failed layer range in place, a
 * request fails only when one of its ranges faults on all 6 attempts,
 * and `bit_identical_under_faults` — every completion still matching
 * the direct goldens — is the second hard gate.  `--metrics` prints
 * the full Prometheus snapshot after the run.
 */
#include <algorithm>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "bench_util.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

using namespace bitwave;

namespace {

service::ServiceOptions
bench_service_options()
{
    service::ServiceOptions options;
    options.queue_capacity = 512;
    options.policy = service::BackpressurePolicy::kBlock;
    options.dispatchers = 1;
    options.max_batch = 16;
    options.linger_seconds = 0.0005;
    return options;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint64_t fault_seed = 0x5eed;
    bool print_metrics = false;
    std::string trace_path = "service_throughput_trace.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--faults" && i + 1 < argc) {
            fault_seed = std::strtoull(argv[i + 1], nullptr, 0);
            ++i;
        } else if (arg == "--metrics") {
            print_metrics = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[i + 1];
            ++i;
        }
    }
    bench::banner("Service throughput",
                  "multi-tenant trace replay: latency, requests/s, dedup "
                  "and bit-identity vs direct evaluation");
    bench::JsonReport json("service_throughput");

    bench::TraceSpec spec;
    spec.requests = 1200;
    spec.seed = 0xB17;
    const auto trace = bench::make_multitenant_trace(spec);

    // Cold pass: first-touch costs (synthesis, bit-plane packing,
    // Bit-Flip twins) land here, exactly once per content hash.
    double cold_wall = 0.0;
    {
        service::EvalService svc(bench_service_options());
        cold_wall = bench::replay_trace(svc, trace).wall_seconds;
    }

    // Warm pass: the measured steady state, through a fresh service so
    // queue/batch dynamics replay fully — only the process-wide content
    // caches persist, as they would across requests in a real server.
    const auto bitplane_counts = [] {
        return std::pair(metrics::counter_value("cache.bitplanes.hits"),
                         metrics::counter_value("cache.bitplanes.misses"));
    };
    const auto bitplanes_before = bitplane_counts();
    service::EvalService svc(bench_service_options());
    const auto replay = bench::replay_trace(svc, trace);
    const auto stats = svc.stats();
    const auto bitplanes_after = bitplane_counts();

    std::vector<double> latencies_ms;
    std::size_t done = 0;
    for (const auto &ticket : replay.tickets) {
        if (ticket.status() == service::TicketStatus::kDone) {
            ++done;
            latencies_ms.push_back(ticket.latency_seconds() * 1e3);
        }
    }
    const double p50 = bench::percentile(latencies_ms, 0.50);
    const double p99 = bench::percentile(latencies_ms, 0.99);
    const double requests_per_second = replay.wall_seconds > 0.0
        ? static_cast<double>(trace.size()) / replay.wall_seconds
        : 0.0;
    const double dedup_hit_rate = stats.submitted > 0
        ? static_cast<double>(stats.dedup_hits) /
            static_cast<double>(stats.submitted)
        : 0.0;
    const double warm_bitplane_hits = static_cast<double>(
        bitplanes_after.first - bitplanes_before.first);
    const double warm_bitplane_total = warm_bitplane_hits +
        static_cast<double>(bitplanes_after.second -
                            bitplanes_before.second);
    const double bitplane_hit_rate = warm_bitplane_total > 0.0
        ? warm_bitplane_hits / warm_bitplane_total
        : 0.0;

    // Determinism gate: every distinct request in the trace, evaluated
    // directly (one-shot runner, no service, no batching), must match
    // the service's completed result bit for bit.
    bool bit_identical = true;
    std::size_t distinct = 0;
    std::unordered_map<std::uint64_t, eval::ScenarioResult> golden;
    {
        std::unordered_map<std::uint64_t, std::size_t> first_index;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            first_index.emplace(
                eval::scenario_fingerprint(trace[i].scenario), i);
        }
        distinct = first_index.size();
        for (const auto &[fingerprint, i] : first_index) {
            auto direct = eval::ScenarioRunner().run({trace[i].scenario});
            if (!bench::identical_result(replay.tickets[i].result(),
                                         direct.front())) {
                bit_identical = false;
                std::fprintf(stderr,
                             "MISMATCH: request %zu (%s) differs from "
                             "direct evaluation\n", i,
                             trace[i].scenario.name().c_str());
            }
            golden.emplace(fingerprint, std::move(direct.front()));
        }
    }

    // Traced replay: the same trace with metrics and span tracing
    // fully armed, through another fresh service.  Instrumentation
    // must be pure observation — every completion still matches the
    // goldens — and its wall-clock cost is reported (not gated; CI
    // runners are too noisy for a hard timing gate).
    const bool trace_env_armed = trace::enabled();
    if (!trace_env_armed) {
        trace::clear();
        trace::start();
    }
    const bool metrics_env_armed = metrics::enabled();
    metrics::set_enabled(true);
    service::EvalService traced_svc(bench_service_options());
    const auto traced_replay = bench::replay_trace(traced_svc, trace);
    metrics::set_enabled(metrics_env_armed);
    if (!trace_env_armed) {
        trace::stop();
    }
    bool bit_identical_traced = true;
    std::size_t traced_done = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &ticket = traced_replay.tickets[i];
        if (ticket.status() != service::TicketStatus::kDone) {
            continue;
        }
        ++traced_done;
        const auto it =
            golden.find(eval::scenario_fingerprint(trace[i].scenario));
        if (it == golden.end() ||
            !bench::identical_result(ticket.result(), it->second)) {
            bit_identical_traced = false;
            std::fprintf(stderr,
                         "TRACED MISMATCH: request %zu (%s) differs "
                         "from the untraced golden\n", i,
                         trace[i].scenario.name().c_str());
        }
    }
    const std::size_t trace_events = trace::snapshot_events().size();
    const std::size_t trace_written = trace::write_json(trace_path);
    const double trace_overhead_frac = replay.wall_seconds > 0.0
        ? traced_replay.wall_seconds / replay.wall_seconds - 1.0
        : 0.0;

    // Fault-storm replay: the same trace under a seeded 1% wildcard
    // transient storm. The robustness gate: the runner retries failed
    // layer ranges in place and everything the service completes is
    // still bit-identical to the fault-free goldens.
    const auto faults_before = fault::stats();
    service::ServiceOptions fault_options = bench_service_options();
    // Per-layer chunks on a real (>= 2 worker) pool: each chunk is a
    // fault draw, so the storm sees hundreds of opportunities instead
    // of a handful per batch — the 1-thread inline path would collapse
    // a whole batch into one draw.
    fault_options.runner.threads = std::max(
        2u, std::thread::hardware_concurrency());
    fault_options.runner.shard_layers = 1;
    fault_options.retry.max_attempts = 6;
    fault_options.retry.backoff_seconds = 0.001;
    fault_options.retry.max_backoff_seconds = 0.02;
    service::EvalService fault_svc(fault_options);
    fault::configure("*=0.01:transient", fault_seed);
    const auto fault_replay = bench::replay_trace(fault_svc, trace);
    fault::reset();
    const auto fault_stats = fault_svc.stats();
    const auto faults_injected =
        fault::stats().fired - faults_before.fired;

    bool bit_identical_under_faults = true;
    std::vector<double> fault_latencies_ms;
    std::size_t fault_done = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &ticket = fault_replay.tickets[i];
        if (ticket.status() != service::TicketStatus::kDone) {
            continue;
        }
        ++fault_done;
        fault_latencies_ms.push_back(ticket.latency_seconds() * 1e3);
        const auto it =
            golden.find(eval::scenario_fingerprint(trace[i].scenario));
        if (it == golden.end() ||
            !bench::identical_result(ticket.result(), it->second)) {
            bit_identical_under_faults = false;
            std::fprintf(stderr,
                         "FAULT MISMATCH: request %zu (%s) differs from "
                         "the fault-free golden\n", i,
                         trace[i].scenario.name().c_str());
        }
    }
    const double fault_p99 = bench::percentile(fault_latencies_ms, 0.99);

    json.param("requests", trace.size());
    json.param("distinct_requests", distinct);
    json.param("trace_seed", spec.seed);
    json.param("zipf_exponent", spec.zipf_exponent);
    json.param("completed", done);
    json.param("cold_wall_s", cold_wall);
    json.param("warm_wall_s", replay.wall_seconds);
    json.param("p50_latency_ms", p50);
    json.param("p99_latency_ms", p99);
    json.param("requests_per_second", requests_per_second);
    json.param("dedup_hit_rate", dedup_hit_rate);
    json.param("dedup_hits", stats.dedup_hits);
    json.param("bitplane_cache_hit_rate", bitplane_hit_rate);
    json.param("batches", stats.batches);
    json.param("batched_jobs", stats.batched_jobs);
    json.param("peak_queue_depth", stats.peak_queue_depth);
    json.param("bit_identical", bit_identical);
    // Latency decomposition from the warm service's always-on phase
    // histograms (nanosecond samples, reported in ms).
    const auto phase_ms = [](const metrics::HistogramSnapshot &h,
                             double q) { return h.quantile(q) / 1e6; };
    json.param("queue_wait_p50_ms", phase_ms(stats.queue_wait_ns, 0.50));
    json.param("queue_wait_p90_ms", phase_ms(stats.queue_wait_ns, 0.90));
    json.param("queue_wait_p99_ms", phase_ms(stats.queue_wait_ns, 0.99));
    json.param("batch_p50_ms", phase_ms(stats.batch_ns, 0.50));
    json.param("batch_p90_ms", phase_ms(stats.batch_ns, 0.90));
    json.param("batch_p99_ms", phase_ms(stats.batch_ns, 0.99));
    json.param("compute_p50_ms", phase_ms(stats.compute_ns, 0.50));
    json.param("compute_p90_ms", phase_ms(stats.compute_ns, 0.90));
    json.param("compute_p99_ms", phase_ms(stats.compute_ns, 0.99));
    json.param("traced_wall_s", traced_replay.wall_seconds);
    json.param("traced_completed", traced_done);
    json.param("trace_overhead_frac", trace_overhead_frac);
    json.param("trace_events", trace_events);
    json.param("trace_path", trace_path);
    json.param("bit_identical_traced", bit_identical_traced);
    json.param("fault_seed", fault_seed);
    json.param("faults_injected", faults_injected);
    json.param("fault_completed", fault_done);
    json.param("fault_retries", fault_stats.retries);
    json.param("fault_quarantined", fault_stats.quarantined);
    json.param("fault_p99_latency_ms", fault_p99);
    json.param("bit_identical_under_faults", bit_identical_under_faults);

    Table t({"metric", "value"});
    t.add_row({"requests", strprintf("%zu (%zu distinct)", trace.size(),
                                     distinct)});
    t.add_row({"completed", strprintf("%zu", done)});
    t.add_row({"cold wall", strprintf("%.2fs", cold_wall)});
    t.add_row({"warm wall", strprintf("%.2fs", replay.wall_seconds)});
    t.add_row({"requests/s (warm)", strprintf("%.1f",
                                              requests_per_second)});
    t.add_row({"p50 latency", strprintf("%.2f ms", p50)});
    t.add_row({"p99 latency", strprintf("%.2f ms", p99)});
    t.add_row({"dedup hit rate", fmt_percent(dedup_hit_rate, 1)});
    t.add_row({"bit-plane cache hit rate",
               fmt_percent(bitplane_hit_rate, 1)});
    t.add_row({"batches", strprintf("%llu (%.1f jobs/batch)",
                                    static_cast<unsigned long long>(
                                        stats.batches),
                                    stats.batches > 0
                                        ? static_cast<double>(
                                              stats.batched_jobs) /
                                            static_cast<double>(
                                                stats.batches)
                                        : 0.0)});
    t.add_row({"bit-identical vs direct", bit_identical ? "yes" : "NO"});
    t.add_row({"phase p50/p99 (queue)",
               strprintf("%.2f / %.2f ms",
                         phase_ms(stats.queue_wait_ns, 0.50),
                         phase_ms(stats.queue_wait_ns, 0.99))});
    t.add_row({"phase p50/p99 (batch)",
               strprintf("%.2f / %.2f ms", phase_ms(stats.batch_ns, 0.50),
                         phase_ms(stats.batch_ns, 0.99))});
    t.add_row({"phase p50/p99 (compute)",
               strprintf("%.2f / %.2f ms",
                         phase_ms(stats.compute_ns, 0.50),
                         phase_ms(stats.compute_ns, 0.99))});
    t.add_row({"traced wall (metrics+spans)",
               strprintf("%.2fs (%+.1f%% vs warm)",
                         traced_replay.wall_seconds,
                         trace_overhead_frac * 100.0)});
    t.add_row({"trace events",
               strprintf("%zu (%zu written to %s)", trace_events,
                         trace_written, trace_path.c_str())});
    t.add_row({"bit-identical traced",
               bit_identical_traced ? "yes" : "NO"});
    t.add_row({"fault storm (1% transient)",
               strprintf("seed %llu, %llu injected",
                         static_cast<unsigned long long>(fault_seed),
                         static_cast<unsigned long long>(faults_injected))});
    t.add_row({"  completed / retried / quarantined",
               strprintf("%zu / %llu / %llu", fault_done,
                         static_cast<unsigned long long>(
                             fault_stats.retries),
                         static_cast<unsigned long long>(
                             fault_stats.quarantined))});
    t.add_row({"  p99 latency", strprintf("%.2f ms", fault_p99)});
    t.add_row({"  bit-identical under faults",
               bit_identical_under_faults ? "yes" : "NO"});
    std::printf("%s", t.render().c_str());
    std::printf("\nEvery distinct request re-evaluated standalone and "
                "compared field-for-field; dedup coalesced %llu of %llu "
                "submissions onto in-flight twins.\n",
                static_cast<unsigned long long>(stats.dedup_hits),
                static_cast<unsigned long long>(stats.submitted));
    if (print_metrics) {
        std::printf("\n%s",
                    metrics::render_prometheus(metrics::snapshot())
                        .c_str());
    }
    return (bit_identical && bit_identical_traced &&
            bit_identical_under_faults)
        ? 0
        : 1;
}
