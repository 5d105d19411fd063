/**
 * @file
 * Drive the evaluation service interactively: submit a burst of
 * accelerator x network requests (with duplicates, so dedup is visible),
 * watch tickets complete asynchronously, then print per-ticket status
 * and the service counters.
 *
 * Run: ./eval_service [requests] [dispatchers] [policy]
 *   requests     burst size (default 24; duplicates cycle a small pool)
 *   dispatchers  dispatcher threads (default 1)
 *   policy       block | reject | shed (default block)
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/table.hpp"
#include "eval/runner.hpp"
#include "service/service.hpp"

using namespace bitwave;

int
main(int argc, char **argv)
{
    int requests = 24;
    if (argc > 1) {
        requests = std::atoi(argv[1]);
        if (requests <= 0) {
            std::fprintf(stderr,
                         "usage: %s [requests] [dispatchers] "
                         "[block|reject|shed]\n",
                         argv[0]);
            return 1;
        }
    }
    service::ServiceOptions options;
    options.queue_capacity = 8;  // small on purpose: show backpressure
    if (argc > 2) {
        options.dispatchers = std::max(1, std::atoi(argv[2]));
    }
    if (argc > 3) {
        if (std::strcmp(argv[3], "reject") == 0) {
            options.policy = service::BackpressurePolicy::kReject;
        } else if (std::strcmp(argv[3], "shed") == 0) {
            options.policy = service::BackpressurePolicy::kShedOldest;
        } else if (std::strcmp(argv[3], "block") != 0) {
            std::fprintf(stderr, "unknown policy: %s\n", argv[3]);
            return 1;
        }
    }

    // Request pool: every accelerator on CNN-LSTM plus the BitWave
    // flagship on each network — a multi-tenant mix with repeats.
    std::vector<eval::Scenario> pool;
    for (const auto &cfg : {make_scnn(), make_stripes(), make_bitlet(),
                            make_huaa(),
                            make_bitwave(BitWaveVariant::kDfSm)}) {
        eval::Scenario s;
        s.accel = cfg;
        s.workload = WorkloadId::kCnnLstm;
        pool.push_back(std::move(s));
    }
    for (WorkloadId id : {WorkloadId::kResNet18, WorkloadId::kMobileNetV2,
                          WorkloadId::kCnnLstm}) {
        eval::Scenario s;
        s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
        s.workload = id;
        s.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
        s.bitflip.weight_share = 0.8;
        s.bitflip.group_size = 16;
        s.bitflip.zero_columns = 5;
        pool.push_back(std::move(s));
    }

    std::printf("submitting %d requests (%zu distinct) through %d "
                "dispatcher(s), queue capacity %zu\n\n",
                requests, pool.size(), options.dispatchers,
                options.queue_capacity);

    service::EvalService svc(options);
    std::vector<service::EvalTicket> tickets;
    tickets.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        tickets.push_back(svc.submit(pool[static_cast<std::size_t>(i) %
                                          pool.size()]));
    }
    for (auto &ticket : tickets) {
        ticket.wait();
    }

    Table t({"#", "request", "status", "deduped", "latency",
             "cycles"});
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const auto &ticket = tickets[i];
        const bool done =
            ticket.status() == service::TicketStatus::kDone;
        t.add_row({strprintf("%zu", i),
                   pool[i % pool.size()].name(),
                   service::ticket_status_name(ticket.status()),
                   ticket.deduped() ? "yes" : "-",
                   strprintf("%.1f ms", ticket.latency_seconds() * 1e3),
                   done ? strprintf("%.0f", ticket.result().total_cycles)
                        : "-"});
    }
    std::printf("%s\n", t.render().c_str());

    const auto stats = svc.stats();
    std::printf("submitted=%llu dedup_hits=%llu completed=%llu "
                "rejected=%llu shed=%llu batches=%llu "
                "batched_jobs=%llu peak_queue=%zu\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.dedup_hits),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.batched_jobs),
                stats.peak_queue_depth);
    return 0;
}
