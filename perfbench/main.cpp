/**
 * @file
 * perfbench — one workload of the reproduction benchmark per process.
 *
 *   perfbench --workload <grid|cold_sweep>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--spawn-epoch <t>] [--tiny] [--perturb-golden]
 *             [--setup-only]
 *
 * Prints `info` lines, then the result as one JSON object on the last
 * line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end set, with --trace 1 the per-layer set.
 * Exits non-zero when any output check fails. `perfbench/run.py` is the
 * entry point: it builds this binary, clears the BITWAVE_* environment
 * and stamps the machine.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

const char *const kEndToEnd[][2] = {
    {"setup_s", "s"},          {"eval_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"ok_frac", "frac"},       {"peak_rss_mb", "MB"},
    {"anchor_err_max", "frac"}, {"sim_model_err_max", "frac"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<grid|cold_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spawn-epoch <t>] [--tiny] "
                 "[--perturb-golden] [--setup-only]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value(), nullptr);
        } else if (arg == "--trace") {
            o.trace = std::strcmp(value(), "0") != 0;
        } else if (arg == "--spawn-epoch") {
            o.spawn_epoch = std::strtod(value(), nullptr);
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--perturb-golden") {
            o.perturb_golden = true;
        } else if (arg == "--setup-only") {
            o.setup_only = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.seconds <= 0.0) {
        usage("--seconds must be positive");
    }
    return o;
}

/// Keep exactly the metrics of the run's kind, in BENCHMARK.json order;
/// per-layer metrics a workload never reaches read 0.
void
select_metrics(Report &report, const Options &options)
{
    if (options.setup_only) {
        std::erase_if(report.metrics,
                      [](const auto &m) { return m.first != "setup_s"; });
        return;
    }
    Report::Metrics selected;
    const auto take = [&](const std::string &name, const std::string &unit,
                          bool required) {
        for (const auto &m : report.metrics) {
            if (m.first == name) {
                selected.push_back(m);
                return;
            }
        }
        if (required) {
            report.problem("metric " + name + " was not measured");
        }
        selected.push_back({name, {0.0, unit}});
    };
    if (options.trace) {
        for (const auto &[name, unit] : per_layer_units()) {
            take(name, unit, false);
        }
    } else {
        for (const auto &[name, unit] : kEndToEnd) {
            take(name, unit, true);
        }
    }
    report.metrics = std::move(selected);
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    Report report;
    if (options.workload == "grid") {
        run_grid(report, options);
    } else if (options.workload == "cold_sweep") {
        run_cold_sweep(report, options);
    } else {
        usage(("unknown workload " + options.workload).c_str());
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.info.emplace_back("build", std::string(PERFBENCH_COMPILER) +
                                          ", " + PERFBENCH_BUILD_TYPE);
    select_metrics(report, options);
    print(report);
    return report.correct ? 0 : 1;
}
