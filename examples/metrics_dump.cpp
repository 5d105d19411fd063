/**
 * @file
 * Observability tour: run a small burst of duplicate-heavy requests
 * through the evaluation service with metrics and span tracing armed,
 * then dump the whole registry — every counter the runner, caches and
 * fault layer maintain, plus the runner's histograms — in Prometheus
 * text format (default) or JSON. The service's own counters are per
 * instance: the stderr footer reads its dedup hits and compute p50
 * from stats().
 *
 * Run: ./metrics_dump [--json] [--trace out.json]
 *   --json        render the registry as JSON instead of Prometheus
 *   --trace PATH  also write the request spans as Chrome trace-event
 *                 JSON (open in chrome://tracing or ui.perfetto.dev)
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "eval/runner.hpp"
#include "service/service.hpp"

using namespace bitwave;

int
main(int argc, char **argv)
{
    bool as_json = false;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            as_json = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[i + 1];
            ++i;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--trace out.json]\n",
                         argv[0]);
            return 1;
        }
    }

    metrics::set_enabled(true);  // arm the gated histograms
    if (!trace_path.empty() && !trace::enabled()) {
        trace::start();
    }

    // A small multi-tenant burst with duplicates, so dedup, batching
    // and every cache layer light up in the dump.
    std::vector<eval::Scenario> pool;
    for (WorkloadId id : {WorkloadId::kResNet18, WorkloadId::kMobileNetV2,
                          WorkloadId::kCnnLstm}) {
        eval::Scenario s;
        s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
        s.workload = id;
        pool.push_back(std::move(s));
    }

    service::ServiceOptions options;
    options.max_batch = 4;
    service::EvalService svc(options);
    std::vector<service::EvalTicket> tickets;
    const int requests = 18;
    for (int i = 0; i < requests; ++i) {
        tickets.push_back(svc.submit(pool[static_cast<std::size_t>(i) %
                                          pool.size()]));
    }
    for (auto &ticket : tickets) {
        ticket.wait();
    }
    const auto stats = svc.stats();

    const auto snap = metrics::snapshot();
    std::printf("%s", as_json ? metrics::render_json(snap).c_str()
                              : metrics::render_prometheus(snap).c_str());
    if (as_json) {
        std::printf("\n");
    }

    std::fprintf(stderr,
                 "\n# %d requests (%llu deduped), compute p50 %.2f ms\n",
                 requests,
                 static_cast<unsigned long long>(stats.dedup_hits),
                 stats.compute_ns.quantile(0.50) / 1e6);
    if (!trace_path.empty()) {
        const std::size_t written = trace::write_json(trace_path);
        std::fprintf(stderr, "# wrote %zu trace events to %s\n", written,
                     trace_path.c_str());
    }
    return 0;
}
