#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "eval/engine.hpp"
#include "tensor/bitplane.hpp"

namespace perfbench {

using namespace bitwave;

namespace {

const Clock::time_point g_main_entry = Clock::now();

/// The process-wide content caches, by registry name.
constexpr const char *kCaches[] = {
    "workloads", "bitflip_twins", "bitplanes",
    "mapping_cycles", "mapping_bcs", "stats_memo",
};

/// JSON number with every digit (NaN/inf are not JSON; report 0).
std::string
number(double v)
{
    if (!std::isfinite(v)) {
        v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

bool
is_flagship(const eval::Scenario &s)
{
    return s.workload_seed == eval::kCachedWorkloadSeed &&
        s.layer_filter.empty() &&
        s.bitflip.mode == eval::BitflipSpec::Mode::kHeavyLayers &&
        (s.engine == eval::EngineKind::kCycleSim ||
         s.accel.name == bench::bitwave_flagship_scenario(
                             WorkloadId::kResNet18).accel.name);
}

bool
is_scnn(const eval::Scenario &s)
{
    return s.engine == eval::EngineKind::kAnalytical &&
        s.workload_seed == eval::kCachedWorkloadSeed &&
        s.layer_filter.empty() &&
        s.bitflip.mode == eval::BitflipSpec::Mode::kNone &&
        s.accel.name == make_scnn().name;
}

/**
 * Whether evaluating @p s reads packed bit planes, and in which
 * representations — mirrors the lazy shared_bitplanes() calls of the
 * engines (AcceleratorModel::model_layer packs only for bit-column
 * machines that skip columns or compress; the simulator always packs;
 * the stats engine packs both). A wrong guess costs extra pack time
 * that shows up as a negative attribution gap.
 */
std::vector<Representation>
plane_reprs(const eval::Scenario &s)
{
    switch (s.engine) {
      case eval::EngineKind::kCycleSim:
        return {s.npu.repr};
      case eval::EngineKind::kStats:
        return {Representation::kTwosComplement,
                Representation::kSignMagnitude};
      case eval::EngineKind::kAnalytical:
        break;
    }
    const AcceleratorConfig &a = s.accel;
    const bool column_skip = a.sparsity == SparsityMode::kWeightBitColumn;
    const bool bit_columns = a.style == ComputeStyle::kBitColumnSerial;
    const bool cost_aware =
        a.mapping_policy == search::MappingPolicy::kCostAware;
    if ((bit_columns && (column_skip || (cost_aware && a.compress_weights)))
        || (a.compress_weights && column_skip)) {
        return {a.weight_repr};
    }
    return {};
}

}  // namespace

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
seconds_since_spawn(const Options &options)
{
    if (options.spawn_epoch <= 0.0) {
        return seconds_since(g_main_entry);
    }
    const double now = std::chrono::duration<double>(
        std::chrono::system_clock::now().time_since_epoch()).count();
    return now - options.spawn_epoch;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &m : metrics) {
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    }
    metrics.push_back({name, {value, unit}});
}

void
Report::problem(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void
report_failures(Report &report, double failures)
{
    const double frac = failures /
        static_cast<double>(std::max<std::int64_t>(report.attempted, 1));
    report.metric("ok_frac", 1.0 - frac, "frac");
    report.metric("failed_frac", frac, "frac");
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::size_t>
network_order(const std::vector<eval::Scenario> &scenarios)
{
    std::vector<std::size_t> order(scenarios.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return scenarios[a].workload <
                             scenarios[b].workload;
                     });
    return order;
}

std::vector<eval::ScenarioResult>
direct_results(const std::vector<eval::Scenario> &scenarios,
               const std::vector<std::uint64_t> &seeds, int workers)
{
    eval::RunnerOptions serial;
    serial.threads = 1;
    const eval::ScenarioRunner runner(serial);
    std::vector<eval::ScenarioResult> results(scenarios.size());
    const auto order = network_order(scenarios);
    std::size_t group_begin = 0;
    while (group_begin < order.size()) {
        std::size_t group_end = group_begin;
        while (group_end < order.size() &&
               scenarios[order[group_end]].workload ==
                   scenarios[order[group_begin]].workload) {
            ++group_end;
        }
        std::atomic<std::size_t> next{group_begin};
        const auto drain = [&] {
            for (std::size_t k = next.fetch_add(1); k < group_end;
                 k = next.fetch_add(1)) {
                const std::size_t i = order[k];
                results[i] = std::move(
                    runner.run_seeded({scenarios[i]}, {seeds[i]}).front());
            }
        };
        std::vector<std::thread> pool;
        for (int t = 1; t < workers; ++t) {
            pool.emplace_back(drain);
        }
        drain();
        for (auto &thread : pool) {
            thread.join();
        }
        group_begin = group_end;
    }
    return results;
}

int
golden_workers()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<std::uint64_t>
batch_seeds(const std::vector<eval::Scenario> &scenarios)
{
    std::vector<std::uint64_t> seeds(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        seeds[i] = eval::scenario_rng_seed(scenarios[i], i);
    }
    return seeds;
}

std::int64_t
check_results(Report &report, const std::string &what,
              const std::vector<eval::ScenarioResult> &results,
              const std::vector<eval::ScenarioResult> &goldens)
{
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i >= goldens.size() ||
            !bench::identical_result(results[i], goldens[i])) {
            ++mismatches;
            report.problem(what + ": " + results[i].name +
                           " differs from its direct serial evaluation");
        }
    }
    report.failed += mismatches;
    return mismatches;
}

void
perturb(eval::ScenarioResult &golden)
{
    golden.total_cycles = std::nextafter(golden.total_cycles, 0.0);
}

std::vector<WorkloadId>
networks(bool tiny)
{
    if (tiny) {
        return {WorkloadId::kCnnLstm};
    }
    return {std::begin(kAllWorkloads), std::end(kAllWorkloads)};
}

std::vector<eval::Scenario>
accuracy_scenarios(bool tiny)
{
    std::vector<eval::Scenario> scenarios;
    for (WorkloadId id : networks(tiny)) {
        eval::Scenario scnn;
        scnn.accel = make_scnn();
        scnn.workload = id;
        scenarios.push_back(scnn);
        eval::Scenario flagship = bench::bitwave_flagship_scenario(id);
        scenarios.push_back(flagship);
        flagship.engine = eval::EngineKind::kCycleSim;
        scenarios.push_back(flagship);
    }
    return scenarios;
}

void
report_accuracy(Report &report, const std::vector<eval::Scenario> &scenarios,
                const std::vector<eval::ScenarioResult> &results)
{
    const auto cycles = [&](WorkloadId id, auto &&pred) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (scenarios[i].workload == id && pred(scenarios[i])) {
                return results[i].total_cycles;
            }
        }
        return 0.0;
    };
    struct Anchor { WorkloadId id; double speedup; };
    const Anchor anchors[] = {{WorkloadId::kCnnLstm, 10.1},
                              {WorkloadId::kBertBase, 13.25}};
    double anchor_err = 0.0;
    std::string anchor_info;
    for (const auto &anchor : anchors) {
        const double scnn = cycles(anchor.id, is_scnn);
        const double bitwave = cycles(anchor.id, [](const auto &s) {
            return is_flagship(s) &&
                s.engine == eval::EngineKind::kAnalytical;
        });
        if (scnn <= 0.0 || bitwave <= 0.0) {
            continue;
        }
        const double speedup = scnn / bitwave;
        const double err = std::abs(speedup / anchor.speedup - 1.0);
        anchor_err = std::max(anchor_err, err);
        anchor_info += std::string(anchor_info.empty() ? "" : ", ") +
            workload_name(anchor.id) + " " + number(speedup) + "x vs " +
            number(anchor.speedup) + "x";
        if (err > 0.20) {
            report.problem(std::string("fig14 anchor off by more than "
                                       "20 %: ") + workload_name(anchor.id));
        }
    }
    double sim_err = 0.0;
    std::string sim_info;
    for (WorkloadId id : kAllWorkloads) {
        const double model = cycles(id, [](const auto &s) {
            return is_flagship(s) && s.engine == eval::EngineKind::kAnalytical;
        });
        const double sim = cycles(id, [](const auto &s) {
            return is_flagship(s) && s.engine == eval::EngineKind::kCycleSim;
        });
        if (model > 0.0 && sim > 0.0) {
            sim_err = std::max(sim_err, std::abs(sim / model - 1.0));
            sim_info += std::string(sim_info.empty() ? "" : ", ") +
                workload_name(id) + " " + number(sim / model - 1.0);
        }
    }
    report.info.emplace_back("fig14_speedup_vs_scnn", anchor_info);
    report.info.emplace_back("flagship_sim_vs_model_cycles", sim_info);
    report.metric("anchor_err_max", anchor_err, "frac");
    report.metric("sim_model_err_max", sim_err, "frac");
}

Attribution
attribute_serial_pass(const std::vector<eval::Scenario> &scenarios,
                      const std::vector<std::uint64_t> &seeds)
{
    Attribution a;
    a.results.resize(scenarios.size());
    for (std::size_t i : network_order(scenarios)) {
        eval::Scenario s = scenarios[i];
        auto t0 = Clock::now();
        std::shared_ptr<const Workload> workload;
        if (s.workload_seed == eval::kCachedWorkloadSeed) {
            workload = shared_workload(s.workload);
        } else {
            // A private synthesis, handed to prepare_scenario as the
            // custom workload it would have built itself.
            workload = std::make_shared<const Workload>(
                build_workload(s.workload, s.workload_seed));
            s.custom_workload = workload;
        }
        a.workload_s += seconds_since(t0);

        t0 = Clock::now();
        const eval::ScenarioPrep prep = eval::prepare_scenario(s);
        a.prepare_s += seconds_since(t0);

        // The Bit-Flip twins and bit planes evaluate_layer_range will
        // fetch, built here so the evaluation itself finds them cached.
        const Workload &w = *prep.workload;
        std::vector<std::shared_ptr<const void>> keepalive;
        const auto reprs = plane_reprs(s);
        for (std::size_t l : prep.layers) {
            const Int8Tensor *tensor = &w.layers[l].weights;
            std::uint64_t hash = w.layers[l].weights_hash;
            if (prep.flip[l] && !prep.weights[l]) {
                t0 = Clock::now();
                auto twin = eval::cached_bitflip(
                    *tensor, hash, s.bitflip.group_size,
                    s.bitflip.zero_columns);
                a.twin_s += seconds_since(t0);
                if (twin) {
                    hash = eval::flipped_weights_hash(
                        hash, s.bitflip.group_size, s.bitflip.zero_columns,
                        tensor->numel());
                    tensor = twin.get();
                    keepalive.push_back(std::move(twin));
                }
            } else if (prep.weights[l]) {
                tensor = prep.weights[l].get();
                hash = 0;
            }
            t0 = Clock::now();
            for (Representation repr : reprs) {
                keepalive.push_back(shared_bitplanes(*tensor, repr, hash));
            }
            a.pack_s += seconds_since(t0);
        }

        t0 = Clock::now();
        auto layers = eval::evaluate_layer_range(s, prep, seeds[i], 0,
                                                 prep.layers.size());
        const double evaluate = seconds_since(t0);
        a.evaluate_s += evaluate;
        switch (s.engine) {
          case eval::EngineKind::kAnalytical:
            (s.accel.style == ComputeStyle::kBitColumnSerial
                 ? a.model_bitwave_s
                 : a.model_baseline_s) += evaluate;
            break;
          case eval::EngineKind::kCycleSim:
            a.sim_s += evaluate;
            for (const auto &layer : layers) {
                a.sim_cycles += layer.total_cycles;
            }
            break;
          case eval::EngineKind::kStats:
            break;
        }

        t0 = Clock::now();
        a.results[i] = eval::finalize_scenario(s, prep, seeds[i],
                                               std::move(layers));
        a.finalize_s += seconds_since(t0);
    }
    return a;
}

void
report_attribution(Report &report, const Attribution &a,
                   double module_sum_s, double serial_wall_s)
{
    report.metric("nn.workload_s", a.workload_s, "s");
    report.metric("bitflip.twin_s", a.twin_s, "s");
    report.metric("tensor.pack_s", a.pack_s, "s");
    report.metric("model.baseline_layer_s", a.model_baseline_s, "s");
    report.metric("model.bitwave_layer_s", a.model_bitwave_s, "s");
    report.metric("sim.layer_s", a.sim_s, "s");
    report.metric("sim.cycles_per_host_s",
                  a.sim_s > 0.0 ? a.sim_cycles / a.sim_s : 0.0, "cycles/s");
    report.metric("eval.prepare_s", a.prepare_s, "s");
    report.metric("eval.evaluate_s", a.evaluate_s, "s");
    report.metric("eval.finalize_s", a.finalize_s, "s");
    report.metric("eval.attr_gap_frac",
                  serial_wall_s > 0.0 ? 1.0 - module_sum_s / serial_wall_s
                                      : 0.0,
                  "frac");
    report.info.emplace_back("serial_passes_s",
                             "plain " + number(serial_wall_s) +
                                 ", module sum " + number(module_sum_s));
}

std::map<std::string, double>
self_seconds_by_span(const std::vector<trace::Event> &events)
{
    std::map<std::uint32_t, std::vector<const trace::Event *>> by_thread;
    for (const auto &e : events) {
        if (e.phase == 'X') {
            by_thread[e.tid].push_back(&e);
        }
    }
    std::map<std::string, double> self;
    for (auto &[tid, spans] : by_thread) {
        (void)tid;
        // Parents first: earlier start, then the longer span.
        std::sort(spans.begin(), spans.end(), [](auto *x, auto *y) {
            return x->ts_ns != y->ts_ns ? x->ts_ns < y->ts_ns
                                        : x->dur_ns > y->dur_ns;
        });
        struct Open { const trace::Event *e; std::uint64_t children; };
        std::vector<Open> stack;
        const auto close = [&] {
            const Open top = stack.back();
            stack.pop_back();
            self[top.e->name] += static_cast<double>(
                top.e->dur_ns - std::min(top.children, top.e->dur_ns)) * 1e-9;
        };
        for (const auto *e : spans) {
            while (!stack.empty() &&
                   e->ts_ns >= stack.back().e->ts_ns + stack.back().e->dur_ns) {
                close();
            }
            if (!stack.empty()) {
                // Clamped to the parent: spans stamped after the fact
                // (the service's phase spans) can overlap without nesting.
                const std::uint64_t parent_end =
                    stack.back().e->ts_ns + stack.back().e->dur_ns;
                stack.back().children +=
                    std::min(e->ts_ns + e->dur_ns, parent_end) - e->ts_ns;
            }
            stack.push_back({e, 0});
        }
        while (!stack.empty()) {
            close();
        }
    }
    return self;
}

void
report_spans(Report &report, const std::map<std::string, double> &self)
{
    std::string line;
    for (const auto &[name, seconds] : self) {
        line += std::string(line.empty() ? "" : ", ") + name + " " +
            number(seconds);
    }
    report.info.emplace_back("span_self_s", line);
}

double
prepare_frac(const std::map<std::string, double> &self)
{
    const auto get = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double prepare = get("runner.prepare");
    const double busy = prepare + get("runner.chunk");
    return busy > 0.0 ? prepare / busy : 0.0;
}

CounterSnapshot
CounterSnapshot::take()
{
    CounterSnapshot snap;
    for (const auto &[name, value] : metrics::snapshot().counters) {
        snap.values[name] = value;
    }
    return snap;
}

double
CounterSnapshot::delta(const CounterSnapshot &before,
                       const std::string &name) const
{
    const auto get = [&](const CounterSnapshot &s) {
        const auto it = s.values.find(name);
        return it == s.values.end() ? 0.0
                                    : static_cast<double>(it->second);
    };
    return get(*this) - get(before);
}

void
report_caches(Report &report, const CounterSnapshot &before,
              const CounterSnapshot &after)
{
    for (const char *cache : kCaches) {
        const std::string prefix = std::string("cache.") + cache;
        const double hits = after.delta(before, prefix + ".hits");
        const double misses = after.delta(before, prefix + ".misses");
        if (std::string(cache) == "workloads") {
            report.metric(prefix + ".misses", misses, "count");
            report.metric(prefix + ".evictions",
                          after.delta(before, prefix + ".evictions"),
                          "count");
        } else {
            report.metric(prefix + ".hit_rate",
                          hits + misses > 0.0 ? hits / (hits + misses)
                                              : 0.0,
                          "frac");
        }
    }
}

const std::vector<std::pair<std::string, std::string>> &
per_layer_units()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"nn.workload_s", "s"},
        {"cache.workloads.misses", "count"},
        {"cache.workloads.evictions", "count"},
        {"bitflip.twin_s", "s"},
        {"cache.bitflip_twins.hit_rate", "frac"},
        {"tensor.pack_s", "s"},
        {"cache.bitplanes.hit_rate", "frac"},
        {"model.baseline_layer_s", "s"},
        {"model.bitwave_layer_s", "s"},
        {"sim.layer_s", "s"},
        {"sim.cycles_per_host_s", "cycles/s"},
        {"cache.mapping_cycles.hit_rate", "frac"},
        {"cache.mapping_bcs.hit_rate", "frac"},
        {"eval.prepare_s", "s"},
        {"eval.evaluate_s", "s"},
        {"eval.finalize_s", "s"},
        {"eval.attr_gap_frac", "frac"},
        {"eval.runner_wall_s", "s"},
        {"eval.runner_parallel_eff", "frac"},
        {"eval.runner_prepare_frac", "frac"},
        {"eval.runner_steals", "count"},
        {"eval.runner_chunks", "count"},
        {"cache.stats_memo.hit_rate", "frac"},
        {"service.queue_wait_p50_ms", "ms"},
        {"service.queue_wait_p99_ms", "ms"},
        {"service.batch_p99_ms", "ms"},
        {"service.compute_p50_ms", "ms"},
        {"service.compute_p99_ms", "ms"},
        {"service.dedup_hit_rate", "frac"},
        {"service.jobs_per_batch", "count"},
        {"service.retries", "count"},
        {"service.bisections", "count"},
        {"service.quarantined", "count"},
        {"service.faults_injected", "count"},
        {"failed_frac", "frac"},
        {"trace.overhead_frac", "frac"},
    };
    return units;
}

void
print(const Report &report)
{
    for (const auto &[key, value] : report.info) {
        std::printf("info %s: %s\n", key.c_str(), value.c_str());
    }
    std::string metrics;
    for (const auto &[name, value_unit] : report.metrics) {
        metrics += std::string(metrics.empty() ? "" : ", ") + quoted(name) +
            ": {\"value\": " + number(value_unit.first) +
            ", \"unit\": " + quoted(value_unit.second) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                report.correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed), metrics.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
