/**
 * @file
 * Chaos tests — seeded fault storms over the full evaluation service.
 * The contract under test is the robustness layer's north star: under
 * injected faults **nothing hangs, every ticket reaches a terminal
 * state, and every successful result is bit-identical to the fault-free
 * golden run**. Individual mechanisms (per-job isolation, the outcome
 * table's kept failures, non-retryable `error` faults) get targeted
 * pump-driven tests; the storm test runs real dispatcher threads under
 * a wildcard transient spec whose seed CI varies via
 * BITWAVE_FAULT_SEED.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "nn/synthesis.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace bitwave {
namespace {

using service::BackpressurePolicy;
using service::EvalService;
using service::EvalTicket;
using service::ServiceOptions;
using service::TicketStatus;

// Same tiny private workload as test_service: chaos tests must never
// pay benchmark-network synthesis.
std::shared_ptr<Workload>
tiny_net()
{
    auto net = std::make_shared<Workload>();
    net->name = "tiny-chaos";
    net->metric_name = "top-1";
    net->base_metric = 90.0;
    net->error_sensitivity = 40.0;
    Rng rng(13);
    auto add = [&](LayerDesc desc, double act_sparsity) {
        WeightProfile profile;
        profile.scale = 6.0;
        WorkloadLayer layer;
        layer.desc = std::move(desc);
        layer.weights = synthesize_weights(layer.desc, profile, rng);
        layer.activation_sparsity = act_sparsity;
        net->layers.push_back(std::move(layer));
    };
    add(make_conv("stem", 16, 3, 16, 16, 3, 3, 1), 0.0);
    add(make_pointwise("pw", 32, 16, 16, 16), 0.4);
    add(make_linear("fc", 10, 32), 0.4);
    net->content_hash = 0xC8A05;
    for (auto &layer : net->layers) {
        layer.weights_hash = layer.compute_weights_hash();
        net->content_hash ^= layer.weights_hash * 0x9E3779B97F4A7C15ULL;
    }
    return net;
}

eval::Scenario
tiny_scenario(const std::shared_ptr<Workload> &net,
              const AcceleratorConfig &accel)
{
    eval::Scenario s;
    s.custom_workload = net;
    s.accel = accel;
    return s;
}

// Distinct-fingerprint scenarios spanning the accelerator zoo plus a
// bitflip and a stats engine variant (mirrors test_service).
std::vector<eval::Scenario>
distinct_scenarios(const std::shared_ptr<Workload> &net)
{
    std::vector<eval::Scenario> scenarios;
    for (const auto &cfg : {make_scnn(), make_stripes(), make_bitlet(),
                            make_huaa(),
                            make_bitwave(BitWaveVariant::kDfSm)}) {
        scenarios.push_back(tiny_scenario(net, cfg));
    }
    eval::Scenario flipped =
        tiny_scenario(net, make_bitwave(BitWaveVariant::kDfSmBf));
    flipped.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    flipped.bitflip.group_size = 16;
    flipped.bitflip.zero_columns = 4;
    scenarios.push_back(std::move(flipped));
    eval::Scenario stats = tiny_scenario(net, make_scnn());
    stats.engine = eval::EngineKind::kStats;
    scenarios.push_back(std::move(stats));
    return scenarios;
}

ServiceOptions
pump_options(std::size_t capacity,
             BackpressurePolicy policy = BackpressurePolicy::kReject)
{
    ServiceOptions options;
    options.queue_capacity = capacity;
    options.policy = policy;
    options.dispatchers = 0;
    options.runner.threads = 1;
    return options;
}

/// Drive a pump-mode service until every ticket is terminal (bounded by
/// a generous wall-clock budget so a regression fails instead of
/// hanging the suite).
void
pump_until_terminal(EvalService &service,
                    const std::vector<EvalTicket> &tickets)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        bool pending = false;
        for (const auto &ticket : tickets) {
            if (!service::ticket_status_terminal(ticket.status())) {
                pending = true;
                break;
            }
        }
        if (!pending) {
            return;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "tickets did not terminate";
        if (service.pump(4) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
}

// ---------------------------------------------------------------- storm ---

// The tentpole contract: a seeded 5% wildcard transient storm across
// every fault point (IO, queue admission, runner layer ranges,
// bit-plane packing) with real dispatcher threads. Every ticket ends
// kDone, bit-identical to the fault-free golden run: a layer range
// fails terminally only after 8 faults in a row (0.05^8 per range),
// and admission retries under the same bound. CI sweeps
// BITWAVE_FAULT_SEED over 3 seeds.
TEST(Chaos, SeededTransientStormTerminatesBitIdentical)
{
    const auto net = tiny_net();

    // Distinct fingerprints per ticket (dedup would collapse repeats
    // into a handful of jobs and starve the storm of fault draws).
    std::vector<eval::Scenario> requests;
    constexpr int kRepeats = 6;
    for (int r = 0; r < kRepeats; ++r) {
        for (auto s : distinct_scenarios(net)) {
            s.seed = static_cast<std::uint64_t>(r) * 100 + requests.size();
            requests.push_back(std::move(s));
        }
    }

    // Goldens first, before any fault is armed.
    std::vector<eval::ScenarioResult> golden;
    for (const auto &s : requests) {
        golden.push_back(eval::ScenarioRunner().run({s}).front());
    }

    const auto seed = static_cast<std::uint64_t>(
        env_positive_int("BITWAVE_FAULT_SEED", 0x5eed));
    FaultGuard storm("*=0.05:transient", seed);

    ServiceOptions options;
    options.queue_capacity = 64;
    options.policy = BackpressurePolicy::kBlock;
    options.dispatchers = 2;
    options.runner.threads = 2;
    options.runner.shard_layers = 1;  // per-layer chunks: more draws
    options.retry.max_attempts = 8;
    options.retry.backoff_seconds = 0.001;
    options.retry.max_backoff_seconds = 0.02;
    EvalService service(options);

    std::vector<EvalTicket> tickets;
    for (const auto &s : requests) {
        tickets.push_back(service.submit(s));
    }

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        ASSERT_TRUE(tickets[i].wait_for(120.0))
            << "ticket " << i << " never terminated";
        ASSERT_EQ(tickets[i].status(), TicketStatus::kDone)
            << "ticket " << i << " failed with "
            << error_kind_name(tickets[i].error_kind());
        expect_identical(tickets[i].result(), golden[i]);
    }
    service.shutdown();

    EXPECT_GT(fault::stats().fired, 0u) << "storm never fired";
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, tickets.size());
}

// ------------------------------------------------------------- isolation ---

std::uint64_t
runner_batches()
{
    return metrics::counter("runner.batches").value();
}

// One poisoned job coalesced with innocent siblings: the single runner
// batch reports it as its own outcome and the siblings complete
// bit-identically from that same batch (nothing re-runs). A transient
// failure is not kept in the outcome table.
TEST(Chaos, PoisonJobIsIsolated)
{
    const auto net = tiny_net();
    auto scenarios = distinct_scenarios(net);
    std::vector<eval::ScenarioResult> golden;
    for (const auto &s : scenarios) {
        golden.push_back(eval::ScenarioRunner().run({s}).front());
    }

    eval::Scenario poison = tiny_scenario(net, make_scnn());
    poison.label = "poison";
    poison.seed = 0xBAD;

    FaultGuard guard("runner.chunk@poison=1:transient", 7);

    ServiceOptions options = pump_options(16);
    options.retry.max_attempts = 2;
    options.retry.backoff_seconds = 0.0;
    EvalService service(options);
    const std::uint64_t runner_batches_before = runner_batches();

    std::vector<EvalTicket> tickets;
    for (const auto &s : scenarios) {
        tickets.push_back(service.submit(s));
    }
    tickets.push_back(service.submit(poison));
    pump_until_terminal(service, tickets);

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        ASSERT_EQ(tickets[i].status(), TicketStatus::kDone)
            << "innocent sibling " << i << " failed";
        expect_identical(tickets[i].result(), golden[i]);
    }
    EXPECT_EQ(tickets.back().status(), TicketStatus::kFailed);
    EXPECT_EQ(tickets.back().error_kind(), eval::ErrorKind::kTransient);

    const auto stats = service.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(runner_batches() - runner_batches_before, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.quarantined, 0u);
    service.shutdown();
}

// --------------------------------------------------------- outcome table ---

// A request that evaluation fails as kInvalid (a layer filter naming no
// layer) can only fail again: the outcome table keeps the failure, an
// identical resubmission completes inside submit() with the stored
// error and evaluates nothing, and the kept entry pins no custom
// workload once the client drops its references.
TEST(Chaos, InvalidFailureIsKeptAndAnsweredAtSubmit)
{
    EvalService service(pump_options(4));
    std::weak_ptr<Workload> weak_net;
    {
        const auto net = tiny_net();
        weak_net = net;
        eval::Scenario bad = tiny_scenario(net, make_scnn());
        bad.layer_filter = {"no_such_layer"};

        EvalTicket first = service.submit(bad);
        pump_until_terminal(service, {first});
        ASSERT_EQ(first.status(), TicketStatus::kFailed);
        ASSERT_EQ(first.error_kind(), eval::ErrorKind::kInvalid);
        EXPECT_EQ(service.stats().quarantined, 1u);

        const std::uint64_t runner_batches_before = runner_batches();
        EvalTicket again = service.submit(bad);
        EXPECT_EQ(again.status(), TicketStatus::kFailed);
        EXPECT_EQ(again.error_kind(), eval::ErrorKind::kInvalid);
        EXPECT_TRUE(again.deduped());
        EXPECT_THROW(again.result(), eval::EvalError);
        EXPECT_EQ(service.pump(), 0);
        EXPECT_EQ(runner_batches() - runner_batches_before, 0u);
        EXPECT_EQ(service.stats().dedup_hits, 1u);
    }
    EXPECT_TRUE(weak_net.expired())
        << "a kept failure keeps its custom workload alive";
    service.shutdown();
}

// Only kInvalid failures are kept. A transient failure or an internal
// error (an injected `error` fault) need not recur, so once the fault
// is disarmed an identical resubmission evaluates and matches its
// golden.
TEST(Chaos, FailureIsNotKeptUnlessInvalid)
{
    const auto net = tiny_net();
    eval::Scenario poison = tiny_scenario(net, make_scnn());
    poison.label = "poison";
    const auto golden = eval::ScenarioRunner().run({poison}).front();

    for (const char *kind : {"transient", "error"}) {
        SCOPED_TRACE(kind);
        ServiceOptions options = pump_options(4);
        options.retry.max_attempts = 1;
        options.retry.backoff_seconds = 0.0;
        EvalService service(options);
        {
            FaultGuard guard(std::string("runner.chunk@poison=1:") + kind,
                             7);
            EvalTicket ticket = service.submit(poison);
            pump_until_terminal(service, {ticket});
            ASSERT_EQ(ticket.status(), TicketStatus::kFailed);
        }

        const std::uint64_t runner_batches_before = runner_batches();
        EvalTicket retry = service.submit(poison);
        EXPECT_FALSE(retry.deduped());
        pump_until_terminal(service, {retry});
        ASSERT_EQ(retry.status(), TicketStatus::kDone);
        expect_identical(retry.result(), golden);
        EXPECT_EQ(runner_batches() - runner_batches_before, 1u);
        EXPECT_EQ(service.stats().quarantined, 0u);
        service.shutdown();
    }
}

// The table keeps at most kMaxKeptFailures failures, oldest evicted
// first: past the cap, the first invalid request evaluates again while
// the newest is still answered at submit.
TEST(Chaos, KeptFailuresAreBounded)
{
    const auto net = tiny_net();
    const auto invalid = [&](std::size_t i) {
        eval::Scenario s = tiny_scenario(net, make_scnn());
        s.layer_filter = {"no_such_layer"};
        s.seed = 1000 + i;  // distinct fingerprint per request
        return s;
    };
    constexpr std::size_t kCap = service::kMaxKeptFailures;
    EvalService service(pump_options(kCap + 1));
    std::vector<EvalTicket> tickets;
    for (std::size_t i = 0; i <= kCap; ++i) {
        tickets.push_back(service.submit(invalid(i)));
    }
    pump_until_terminal(service, tickets);
    for (const auto &ticket : tickets) {
        ASSERT_EQ(ticket.error_kind(), eval::ErrorKind::kInvalid);
    }
    EXPECT_EQ(service.stats().quarantined, kCap + 1);

    std::uint64_t before = runner_batches();
    EvalTicket first = service.submit(invalid(0));
    EXPECT_FALSE(first.deduped()) << "the oldest failure was evicted";
    pump_until_terminal(service, {first});
    EXPECT_EQ(first.error_kind(), eval::ErrorKind::kInvalid);
    EXPECT_EQ(runner_batches() - before, 1u);

    before = runner_batches();
    EvalTicket last = service.submit(invalid(kCap));
    EXPECT_TRUE(last.deduped());
    EXPECT_EQ(last.status(), TicketStatus::kFailed);
    EXPECT_EQ(last.error_kind(), eval::ErrorKind::kInvalid);
    EXPECT_EQ(runner_batches() - before, 0u);
    service.shutdown();
}

// ---------------------------------------------------------- error faults ---

// An `error` fault is not retryable: under `runner.chunk=1:error` every
// job ends kFailed/kInternal on its first attempt although retries are
// allowed, and nothing is kept. Once the storm clears, the same service
// completes a fresh request bit-identically.
TEST(Chaos, ErrorFaultsFailWithoutRetryAndTheServiceRecovers)
{
    const auto net = tiny_net();
    auto scenario = [&](std::uint64_t seed) {
        eval::Scenario s = tiny_scenario(net, make_scnn());
        s.seed = seed;  // distinct fingerprint per seed
        return s;
    };

    ServiceOptions options = pump_options(4);
    options.retry.max_attempts = 3;
    options.retry.backoff_seconds = 0.0;
    EvalService service(options);
    {
        FaultGuard guard("runner.chunk=1:error", 7);
        for (std::uint64_t i = 0; i < 4; ++i) {
            EvalTicket ticket = service.submit(scenario(100 + i));
            pump_until_terminal(service, {ticket});
            EXPECT_EQ(ticket.status(), TicketStatus::kFailed);
            EXPECT_EQ(ticket.error_kind(), eval::ErrorKind::kInternal);
        }
        const auto stats = service.stats();
        EXPECT_EQ(stats.failed, 4u);
        EXPECT_EQ(stats.retries, 0u);
        EXPECT_EQ(stats.quarantined, 0u);
    }

    const eval::Scenario fresh = scenario(300);
    const auto golden = eval::ScenarioRunner().run({fresh}).front();
    EvalTicket ticket = service.submit(fresh);
    pump_until_terminal(service, {ticket});
    ASSERT_EQ(ticket.status(), TicketStatus::kDone);
    expect_identical(ticket.result(), golden);
    service.shutdown();
}

}  // namespace
}  // namespace bitwave
