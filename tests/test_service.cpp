/**
 * @file
 * Tests for the evaluation service layer: ticket lifecycle, dedup by
 * scenario fingerprint, dynamic batching determinism (batched +
 * deduped + chaos-scheduled results bit-identical to serial direct
 * evaluation), admission-control policies, deadlines, cancellation, and
 * shutdown semantics. Timing-sensitive paths run with `dispatchers = 0`
 * and explicit pump() so no test depends on scheduler luck.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string_view>
#include <thread>
#include <vector>

#include "nn/synthesis.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

// Counting global allocator: the observability layer guarantees that
// EvalService::stats() never touches the heap (it copies counters and
// fixed-size histogram snapshots only), and a test below asserts it.
// The replacement is process-wide, so it just counts and delegates.
// The malloc/new pairing is intentional and self-consistent.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<std::uint64_t> g_heap_allocations{0};

void *
operator new(std::size_t size)
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace bitwave {
namespace {

using service::BackpressurePolicy;
using service::EvalService;
using service::EvalTicket;
using service::ServiceOptions;
using service::SubmitOptions;
using service::TicketStatus;

// Small private workload so service tests never pay benchmark-network
// synthesis (mirrors test_eval's tiny_workload).
std::shared_ptr<Workload>
tiny_net()
{
    auto net = std::make_shared<Workload>();
    net->name = "tiny-svc";
    net->metric_name = "top-1";
    net->base_metric = 90.0;
    net->error_sensitivity = 40.0;
    Rng rng(11);
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
    // Populate the content identities scenario_fingerprint() and the
    // prep caches key on (build_* workloads do this during synthesis).
    net->content_hash = 0x7117;
    for (auto &layer : net->layers) {
        layer.weights_hash = layer.compute_weights_hash();
        net->content_hash ^= layer.weights_hash * 0x9E3779B97F4A7C15ULL;
    }
    return net;
}

// A scenario over the shared tiny net, distinguished by accelerator.
eval::Scenario
tiny_scenario(const std::shared_ptr<Workload> &net,
              const AcceleratorConfig &accel)
{
    eval::Scenario s;
    s.custom_workload = net;
    s.accel = accel;
    return s;
}

// A bag of distinct scenarios (distinct fingerprints).
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

// Pump-driven options: no dispatcher threads, nothing timing-dependent.
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

// ---------------------------------------------------------- fingerprint ---

TEST(Fingerprint, DistinguishesEveryResultAffectingKnob)
{
    const auto net = tiny_net();
    const eval::Scenario base = tiny_scenario(net, make_scnn());
    const auto fp = eval::scenario_fingerprint(base);
    EXPECT_EQ(fp, eval::scenario_fingerprint(base)) << "stable";

    eval::Scenario other = base;
    other.accel = make_stripes();
    EXPECT_NE(eval::scenario_fingerprint(other), fp);

    other = base;
    other.seed = 99;
    EXPECT_NE(eval::scenario_fingerprint(other), fp);

    other = base;
    other.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
    EXPECT_NE(eval::scenario_fingerprint(other), fp);

    other = base;
    other.layer_filter = {"pw"};
    EXPECT_NE(eval::scenario_fingerprint(other), fp);

    other = base;
    other.engine = eval::EngineKind::kStats;
    EXPECT_NE(eval::scenario_fingerprint(other), fp);

    // The label is part of the result (ScenarioResult::name), so it
    // must split dedup classes: a deduped ticket returns the evaluated
    // job's result verbatim.
    other = base;
    other.label = "renamed";
    EXPECT_NE(eval::scenario_fingerprint(other), fp);
}

/// @p v moved off its current value: @p a, or @p b when it already is @p a.
template <typename T>
T
other_than(T v, T a, T b)
{
    return v == a ? b : a;
}

// Dedup hands one request's result to another with the same
// fingerprint, so every config field an engine reads must reach it:
// move each field to another value, under the engine that reads it,
// and the fingerprint must change.
TEST(Fingerprint, EveryConfigFieldReachesIt)
{
    // Member-count tripwires: a structured binding names every member,
    // so a new member fails to compile here until it is bound and its
    // case below is added.
    {
        [[maybe_unused]] const auto &[name, style, sparsity, weight_repr,
                                      dataflows, mapping_policy, memory,
                                      sync_lanes, interleave_window,
                                      interleave_overhead, compress_weights,
                                      accumulator_banks, compress_acts,
                                      value_imbalance, planar_crossbar,
                                      layer_sequential_dram,
                                      e_crossbar_conflict_pj,
                                      e_lane_overhead_pj] =
            AcceleratorConfig{};
        [[maybe_unused]] const auto &[weight_sram_bytes, act_sram_bytes,
                                      weight_port_bits, act_port_bits] =
            MemoryHierarchy{};
        [[maybe_unused]] const auto &[su_name, factors, depthwise_only,
                                      bit_columns] = SpatialUnrolling{};
        [[maybe_unused]] const auto &[stats_group_size, column_stats,
                                      reference_codecs] = eval::StatsSpec{};
        [[maybe_unused]] const auto &[mode, flip_group_size, zero_columns,
                                      weight_share] = eval::BitflipSpec{};
    }

    using E = eval::EngineKind;
    using Policy = search::MappingPolicy;
    struct Case
    {
        const char *field;
        E engine;
        void (*perturb)(eval::Scenario &);
    };
    const Case cases[] = {
        // AcceleratorConfig, read by the analytical model and, below,
        // by the simulator.
        {"accel.name", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.name += "'"; }},
        {"accel.style", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.style = other_than(s.accel.style,
                                        ComputeStyle::kBitParallel,
                                        ComputeStyle::kBitSerial);
         }},
        {"accel.sparsity", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.sparsity = other_than(s.accel.sparsity,
                                           SparsityMode::kNone,
                                           SparsityMode::kValue);
         }},
        {"accel.weight_repr", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.weight_repr = other_than(
                 s.accel.weight_repr, Representation::kTwosComplement,
                 Representation::kSignMagnitude);
         }},
        {"accel.dataflows (length)", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.dataflows.pop_back(); }},
        {"accel.dataflows[0].name", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.dataflows[0].name += "'"; }},
        {"accel.dataflows[0].factors", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.dataflows[0].factors[Dim::kOX] += 1;
         }},
        {"accel.dataflows[0].depthwise_only", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.dataflows[0].depthwise_only =
                 !s.accel.dataflows[0].depthwise_only;
         }},
        {"accel.dataflows[0].bit_columns", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.dataflows[0].bit_columns += 1; }},
        {"accel.mapping_policy", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.mapping_policy =
                 other_than(s.accel.mapping_policy, Policy::kUtilization,
                            Policy::kCostAware);
         }},
        {"accel.memory.weight_sram_bytes", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.memory.weight_sram_bytes *= 2; }},
        {"accel.memory.act_sram_bytes", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.memory.act_sram_bytes *= 2; }},
        {"accel.memory.weight_port_bits", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.memory.weight_port_bits *= 2; }},
        {"accel.memory.act_port_bits", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.memory.act_port_bits *= 2; }},
        {"accel.sync_lanes", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.sync_lanes += 1; }},
        {"accel.interleave_window", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.interleave_window += 1; }},
        {"accel.interleave_overhead", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.interleave_overhead += 0.5; }},
        {"accel.compress_weights", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.compress_weights = !s.accel.compress_weights;
         }},
        {"accel.accumulator_banks", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.accumulator_banks = !s.accel.accumulator_banks;
         }},
        {"accel.compress_acts", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.compress_acts = !s.accel.compress_acts;
         }},
        {"accel.value_imbalance", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.value_imbalance += 0.5; }},
        {"accel.planar_crossbar", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.planar_crossbar = !s.accel.planar_crossbar;
         }},
        {"accel.layer_sequential_dram", E::kAnalytical,
         [](eval::Scenario &s) {
             s.accel.layer_sequential_dram = !s.accel.layer_sequential_dram;
         }},
        {"accel.e_crossbar_conflict_pj", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.e_crossbar_conflict_pj += 1.0; }},
        {"accel.e_lane_overhead_pj", E::kAnalytical,
         [](eval::Scenario &s) { s.accel.e_lane_overhead_pj += 1.0; }},
        // StatsSpec, read by the statistics engine.
        {"stats.group_size", E::kStats,
         [](eval::Scenario &s) { s.stats.group_size *= 2; }},
        {"stats.column_stats", E::kStats,
         [](eval::Scenario &s) {
             s.stats.column_stats = !s.stats.column_stats;
         }},
        {"stats.reference_codecs", E::kStats,
         [](eval::Scenario &s) {
             s.stats.reference_codecs = !s.stats.reference_codecs;
         }},
        // BitflipSpec, read by every engine's preparation.
        {"bitflip.mode", E::kAnalytical,
         [](eval::Scenario &s) {
             s.bitflip.mode = other_than(s.bitflip.mode,
                                         eval::BitflipSpec::Mode::kNone,
                                         eval::BitflipSpec::Mode::kUniform);
         }},
        {"bitflip.group_size", E::kAnalytical,
         [](eval::Scenario &s) { s.bitflip.group_size *= 2; }},
        {"bitflip.zero_columns", E::kAnalytical,
         [](eval::Scenario &s) { s.bitflip.zero_columns += 1; }},
        {"bitflip.weight_share", E::kAnalytical,
         [](eval::Scenario &s) { s.bitflip.weight_share /= 2; }},
    };
    eval::Scenario base =
        tiny_scenario(tiny_net(), make_bitwave(BitWaveVariant::kDfSm));
    // The one Bit-Flip mode that reads every BitflipSpec field.
    base.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
    const auto expect_moves = [&](const Case &c, E engine) {
        eval::Scenario s = base;
        s.engine = engine;
        const auto fp = eval::scenario_fingerprint(s);
        c.perturb(s);
        EXPECT_NE(eval::scenario_fingerprint(s), fp)
            << c.field << " under " << eval::engine_name(engine);
    };
    for (const Case &c : cases) {
        expect_moves(c, c.engine);
        // The simulator runs the machine `accel` describes.
        if (std::string_view(c.field).starts_with("accel.")) {
            expect_moves(c, E::kCycleSim);
        }
    }
}

// ------------------------------------------------------------ lifecycle ---

TEST(Service, TicketCompletesAndMatchesDirectEvaluation)
{
    const auto net = tiny_net();
    const eval::Scenario s = tiny_scenario(net, make_scnn());

    EvalService svc(pump_options(8));
    EvalTicket ticket = svc.submit(s);
    EXPECT_TRUE(ticket.valid());
    EXPECT_FALSE(ticket.deduped());
    EXPECT_EQ(svc.pump(), 1);
    EXPECT_EQ(ticket.status(), TicketStatus::kDone);
    EXPECT_GE(ticket.latency_seconds(), 0.0);

    const auto direct = eval::ScenarioRunner().run({s});
    expect_identical(ticket.result(), direct.front());
}

// A default-constructed ticket acts as a terminal kRejected one: every
// accessor answers without a service behind it.
TEST(Service, InvalidDefaultTicket)
{
    EvalTicket ticket;
    EXPECT_FALSE(ticket.valid());
    EXPECT_EQ(ticket.status(), TicketStatus::kRejected);
    ticket.wait();
    EXPECT_TRUE(ticket.wait_for(0.0));
    EXPECT_THROW(ticket.result(), std::runtime_error);
    EXPECT_EQ(ticket.latency_seconds(), 0.0);
    EXPECT_FALSE(ticket.cancel());
    EXPECT_FALSE(ticket.deduped());
}

// A request the runner cannot serve (a layer filter naming no layer)
// fails alone: coalesced into one batch with good requests, it ends
// kFailed/kInvalid and the others complete bit-identically to direct
// runs. The service process survives it.
TEST(Service, InvalidRequestFailsAloneInItsBatch)
{
    const auto net = tiny_net();
    const auto scenarios = distinct_scenarios(net);
    std::vector<eval::ScenarioResult> golden;
    for (const auto &s : scenarios) {
        golden.push_back(eval::ScenarioRunner().run({s}).front());
    }
    eval::Scenario bad = tiny_scenario(net, make_scnn());
    bad.layer_filter = {"no_such_layer"};

    ServiceOptions options = pump_options(16);
    options.runner.threads = 2;
    EvalService svc(options);
    std::vector<EvalTicket> tickets;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        tickets.push_back(svc.submit(scenarios[i]));
        if (i == 2) {
            tickets.push_back(svc.submit(bad));
        }
    }
    EXPECT_EQ(svc.pump(), 1);
    EXPECT_EQ(svc.stats().batches, 1u);

    std::size_t next = 0;
    for (std::size_t t = 0; t < tickets.size(); ++t) {
        if (t == 3) {
            EXPECT_EQ(tickets[t].status(), TicketStatus::kFailed);
            EXPECT_EQ(tickets[t].error_kind(), eval::ErrorKind::kInvalid);
            EXPECT_THROW(tickets[t].result(), eval::EvalError);
            continue;
        }
        ASSERT_EQ(tickets[t].status(), TicketStatus::kDone) << t;
        expect_identical(tickets[t].result(), golden[next++]);
    }
}

// Every request an engine would once have fatal()ed on fails alone as
// kInvalid, and the next valid request is served.
TEST(Service, UnservableRequestsFailAndServiceKeepsServing)
{
    const auto net = tiny_net();
    const auto bad = unservable_scenarios(net);
    EvalService svc(pump_options(bad.size()));
    std::vector<EvalTicket> tickets;
    for (const auto &[what, s] : bad) {
        tickets.push_back(svc.submit(s));
    }
    svc.pump();  // Counts batches that complete a job: none here.
    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_EQ(tickets[i].status(), TicketStatus::kFailed)
            << bad[i].first;
        EXPECT_EQ(tickets[i].error_kind(), eval::ErrorKind::kInvalid)
            << bad[i].first;
    }

    const eval::Scenario good =
        tiny_scenario(net, make_bitwave(BitWaveVariant::kDfSm));
    EvalTicket served = svc.submit(good);
    EXPECT_EQ(svc.pump(), 1);
    ASSERT_EQ(served.status(), TicketStatus::kDone);
    expect_identical(served.result(),
                     eval::ScenarioRunner().run({good}).front());
}

// ----------------------------------------------------------------- dedup ---

TEST(Service, IdenticalInFlightRequestsCoalesce)
{
    const auto net = tiny_net();
    const eval::Scenario s = tiny_scenario(net, make_bitlet());

    EvalService svc(pump_options(8));
    EvalTicket first = svc.submit(s);
    EvalTicket second = svc.submit(s);
    EXPECT_FALSE(first.deduped());
    EXPECT_TRUE(second.deduped());

    EXPECT_EQ(svc.pump(), 1);
    EXPECT_EQ(first.status(), TicketStatus::kDone);
    EXPECT_EQ(second.status(), TicketStatus::kDone);
    expect_identical(first.result(), second.result());

    const auto stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.dedup_hits, 1u);
    EXPECT_EQ(stats.batched_jobs, 1u) << "one evaluation, two tickets";
    EXPECT_EQ(stats.completed, 2u);
}

// ---------------------------------------------------------- determinism ---

TEST(Service, BatchedDedupedChaoticServiceIsBitIdenticalToSerial)
{
    // The tentpole contract: admission order, batch composition, dedup
    // and chunk order are pure scheduling. A service with concurrent
    // dispatchers, a chaos-seeded chunk order and duplicated
    // submissions must complete every ticket bit-identically to a
    // one-shot serial runner evaluating that scenario alone.
    const auto net = tiny_net();
    const auto scenarios = distinct_scenarios(net);

    std::vector<eval::ScenarioResult> golden;
    for (const auto &s : scenarios) {
        golden.push_back(eval::ScenarioRunner().run({s}).front());
    }

    ServiceOptions options;
    options.queue_capacity = 64;
    options.dispatchers = 2;
    options.max_batch = 3;  // force multiple batches
    options.linger_seconds = 0.0005;
    options.runner.threads = 4;
    options.runner.shard_layers = 1;  // max splitting: one chunk per layer
    options.runner.chaos_seed = 0xD15EA5E;
    EvalService svc(options);

    std::vector<EvalTicket> tickets;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &s : scenarios) {
            tickets.push_back(svc.submit(s));
        }
    }
    for (auto &ticket : tickets) {
        ticket.wait();
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        ASSERT_EQ(tickets[i].status(), TicketStatus::kDone) << i;
        expect_identical(tickets[i].result(),
                         golden[i % scenarios.size()]);
    }
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, tickets.size());
    EXPECT_GE(stats.dedup_hits + stats.batched_jobs, tickets.size());
}

// ----------------------------------------------------------- admission ---

TEST(Service, RejectPolicyBouncesWhenFull)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(2, BackpressurePolicy::kReject));
    EvalTicket a = svc.submit(tiny_scenario(net, make_scnn()));
    EvalTicket b = svc.submit(tiny_scenario(net, make_stripes()));
    EvalTicket c = svc.submit(tiny_scenario(net, make_bitlet()));

    EXPECT_EQ(c.status(), TicketStatus::kRejected);
    EXPECT_THROW(c.result(), std::runtime_error);
    EXPECT_EQ(svc.stats().rejected, 1u);

    // A duplicate of a queued job attaches instead of being rejected:
    // dedup happens before admission.
    EvalTicket dup = svc.submit(tiny_scenario(net, make_scnn()));
    EXPECT_TRUE(dup.deduped());
    EXPECT_NE(dup.status(), TicketStatus::kRejected);

    while (svc.pump() > 0) {
    }
    EXPECT_EQ(a.status(), TicketStatus::kDone);
    EXPECT_EQ(b.status(), TicketStatus::kDone);
    EXPECT_EQ(dup.status(), TicketStatus::kDone);
}

TEST(Service, ShedOldestEvictsTheHeadForTheNewcomer)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(2, BackpressurePolicy::kShedOldest));
    EvalTicket oldest = svc.submit(tiny_scenario(net, make_scnn()));
    EvalTicket mid = svc.submit(tiny_scenario(net, make_stripes()));
    EvalTicket fresh = svc.submit(tiny_scenario(net, make_bitlet()));

    EXPECT_EQ(oldest.status(), TicketStatus::kShed);
    EXPECT_EQ(svc.stats().shed, 1u);

    while (svc.pump() > 0) {
    }
    EXPECT_EQ(mid.status(), TicketStatus::kDone);
    EXPECT_EQ(fresh.status(), TicketStatus::kDone);
}

TEST(Service, BlockPolicyKeepsTheQueueBoundedWithoutLosses)
{
    const auto net = tiny_net();
    ServiceOptions options;
    options.queue_capacity = 1;
    options.policy = BackpressurePolicy::kBlock;
    options.dispatchers = 1;
    options.max_batch = 2;
    options.runner.threads = 2;
    EvalService svc(options);

    std::vector<EvalTicket> tickets;
    for (const auto &s : distinct_scenarios(net)) {
        tickets.push_back(svc.submit(s));  // blocks when full
    }
    for (auto &ticket : tickets) {
        ticket.wait();
        EXPECT_EQ(ticket.status(), TicketStatus::kDone);
    }
    const auto stats = svc.stats();
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_LE(stats.peak_queue_depth, options.queue_capacity);
}

// ------------------------------------------------ deadlines and cancel ---

TEST(Service, ExpiredDeadlineIsPrunedWithoutEvaluation)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    SubmitOptions deadline;
    deadline.deadline_seconds = 1e-6;
    EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()),
                                   deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc.pump();
    EXPECT_EQ(ticket.status(), TicketStatus::kDeadlineExpired);
    EXPECT_THROW(ticket.result(), std::runtime_error);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.deadline_expired, 1u);
    EXPECT_EQ(stats.batched_jobs, 0u) << "expired work must not run";
}

TEST(Service, GenerousDeadlineDoesNotFire)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    SubmitOptions deadline;
    deadline.deadline_seconds = 3600.0;
    EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()),
                                   deadline);
    svc.pump();
    EXPECT_EQ(ticket.status(), TicketStatus::kDone);
}

// Regression: deadline arithmetic must saturate, not overflow. A huge
// relative deadline (or infinity) added to steady_clock::now() would
// wrap negative and expire instantly; it must instead mean "never".
TEST(Service, HugeDeadlineSaturatesInsteadOfOverflowing)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    for (const double seconds :
         {1e18, 1e300, std::numeric_limits<double>::infinity()}) {
        SubmitOptions deadline;
        deadline.deadline_seconds = seconds;
        EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()),
                                       deadline);
        svc.pump();
        EXPECT_EQ(ticket.status(), TicketStatus::kDone)
            << "deadline_seconds = " << seconds;
    }
    EXPECT_EQ(svc.stats().deadline_expired, 0u);
}

// Regression: wait_for with an absurd bound must behave as wait(), not
// overflow into an immediate timeout.
TEST(Service, WaitForHugeTimeoutActsAsUnboundedWait)
{
    const auto net = tiny_net();
    ServiceOptions options = pump_options(8);
    options.dispatchers = 1;
    EvalService svc(options);
    EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()));
    EXPECT_TRUE(ticket.wait_for(1e18));
    EXPECT_EQ(ticket.status(), TicketStatus::kDone);
}

TEST(Service, CancelBeforeDispatch)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()));
    EXPECT_TRUE(ticket.cancel());
    EXPECT_EQ(ticket.status(), TicketStatus::kCancelled);
    EXPECT_FALSE(ticket.cancel()) << "already terminal";
    svc.pump();
    EXPECT_EQ(svc.stats().batched_jobs, 0u)
        << "a fully-cancelled job must not evaluate";
    EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, CancellingOneSubscriberLeavesTheTwinAlive)
{
    const auto net = tiny_net();
    const eval::Scenario s = tiny_scenario(net, make_huaa());
    EvalService svc(pump_options(8));
    EvalTicket keep = svc.submit(s);
    EvalTicket drop = svc.submit(s);
    EXPECT_TRUE(drop.deduped());
    EXPECT_TRUE(drop.cancel());
    svc.pump();
    EXPECT_EQ(keep.status(), TicketStatus::kDone);
    EXPECT_EQ(drop.status(), TicketStatus::kCancelled);
}

// -------------------------------------------------------------- shutdown ---

TEST(Service, DrainShutdownEvaluatesTheBacklog)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    EvalTicket a = svc.submit(tiny_scenario(net, make_scnn()));
    EvalTicket b = svc.submit(tiny_scenario(net, make_stripes()));
    svc.shutdown(EvalService::ShutdownMode::kDrain);
    EXPECT_EQ(a.status(), TicketStatus::kDone);
    EXPECT_EQ(b.status(), TicketStatus::kDone);
    EXPECT_GT(a.result().total_cycles, 0.0);

    // Post-shutdown submissions complete immediately as kShutdown.
    EvalTicket late = svc.submit(tiny_scenario(net, make_bitlet()));
    EXPECT_EQ(late.status(), TicketStatus::kShutdown);
    EXPECT_THROW(late.result(), std::runtime_error);
}

TEST(Service, AbortShutdownDiscardsTheBacklog)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    EvalTicket a = svc.submit(tiny_scenario(net, make_scnn()));
    EvalTicket b = svc.submit(tiny_scenario(net, make_stripes()));
    svc.shutdown(EvalService::ShutdownMode::kAbort);
    EXPECT_EQ(a.status(), TicketStatus::kShutdown);
    EXPECT_EQ(b.status(), TicketStatus::kShutdown);
    EXPECT_EQ(svc.stats().shutdown_discarded, 2u);
    EXPECT_EQ(svc.stats().batched_jobs, 0u);
    // Idempotent.
    svc.shutdown(EvalService::ShutdownMode::kAbort);
}

TEST(Service, DestructorDrainsLikeGracefulShutdown)
{
    const auto net = tiny_net();
    EvalTicket ticket;
    {
        ServiceOptions options;
        options.dispatchers = 1;
        options.runner.threads = 2;
        EvalService svc(options);
        ticket = svc.submit(tiny_scenario(net, make_scnn()));
        // Ticket state is owned via shared_ptr: reading the result after
        // the service object is gone is safe for completed tickets.
        ticket.wait();
    }
    EXPECT_EQ(ticket.status(), TicketStatus::kDone);
    EXPECT_GT(ticket.result().total_cycles, 0.0);
}

// --------------------------------------------------------- observability ---

TEST(Service, PhaseHistogramsDecomposeTicketLatency)
{
    const auto net = tiny_net();
    const eval::Scenario s = tiny_scenario(net, make_scnn());
    EvalService svc(pump_options(8));
    EvalTicket ticket = svc.submit(s);
    EXPECT_EQ(svc.pump(), 1);
    ASSERT_EQ(ticket.status(), TicketStatus::kDone);

    const auto stats = svc.stats();
    ASSERT_EQ(stats.queue_wait_ns.count, 1u);
    ASSERT_EQ(stats.batch_ns.count, 1u);
    ASSERT_EQ(stats.compute_ns.count, 1u);
    EXPECT_GT(stats.compute_ns.sum, 0u);

    // The three phases tile submit → evaluation-end, which the ticket
    // latency bounds (finalize adds a sliver after evaluation ends;
    // the slack allowance also absorbs clock-read granularity).
    const double phase_sum_s =
        (static_cast<double>(stats.queue_wait_ns.sum) +
         static_cast<double>(stats.batch_ns.sum) +
         static_cast<double>(stats.compute_ns.sum)) /
        1e9;
    const double latency_s = ticket.latency_seconds();
    EXPECT_GT(phase_sum_s, 0.0);
    EXPECT_LE(phase_sum_s, latency_s + 0.010);
    EXPECT_LT(latency_s - phase_sum_s, 0.250);
}

TEST(Service, PhaseHistogramsCoverEveryCompletion)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(16));
    std::vector<EvalTicket> tickets;
    for (const auto &s : distinct_scenarios(net)) {
        tickets.push_back(svc.submit(s));
    }
    while (svc.pump() > 0) {
    }
    for (auto &ticket : tickets) {
        ASSERT_EQ(ticket.status(), TicketStatus::kDone);
    }
    const auto stats = svc.stats();
    // One sample per evaluated job in every phase histogram (dedup'd
    // twins share their job's sample).
    EXPECT_EQ(stats.queue_wait_ns.count, stats.batched_jobs);
    EXPECT_EQ(stats.batch_ns.count, stats.batched_jobs);
    EXPECT_EQ(stats.compute_ns.count, stats.batched_jobs);
}

TEST(Service, StatsReadPathDoesNotAllocate)
{
    const auto net = tiny_net();
    EvalService svc(pump_options(8));
    EvalTicket ticket = svc.submit(tiny_scenario(net, make_scnn()));
    svc.pump();
    ticket.wait();

    (void)svc.stats();  // warm: nothing lazy may remain
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    std::uint64_t total = 0;
    for (int i = 0; i < 100; ++i) {
        const auto stats = svc.stats();
        total += stats.completed + stats.queue_wait_ns.count;
    }
    EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed),
              before)
        << "stats() allocated on the read path";
    EXPECT_EQ(total, 200u);  // 1 completed + 1 histogram sample, x100
}

TEST(Service, StatusNamesAndTerminality)
{
    EXPECT_STREQ(service::ticket_status_name(TicketStatus::kDone), "done");
    EXPECT_STREQ(service::ticket_status_name(TicketStatus::kShed), "shed");
    EXPECT_FALSE(service::ticket_status_terminal(TicketStatus::kQueued));
    EXPECT_FALSE(service::ticket_status_terminal(TicketStatus::kRunning));
    EXPECT_TRUE(service::ticket_status_terminal(TicketStatus::kDone));
    EXPECT_TRUE(service::ticket_status_terminal(TicketStatus::kRejected));
}

}  // namespace
}  // namespace bitwave
