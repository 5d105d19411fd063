/**
 * @file
 * Shared helpers for the benchmark harness: every bench binary prints the
 * rows/series of one paper table or figure, prefixed with a banner naming
 * the artifact it regenerates, and emits a machine-readable
 * `BENCH_<name>.json` twin of the human table so the performance
 * trajectory can be tracked across PRs.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "eval/engine.hpp"
#include "eval/runner.hpp"
#include "eval/scenario.hpp"
#include "nn/workloads.hpp"
#include "service/service.hpp"

namespace bitwave::bench {

/// Print the artifact banner ("=== Fig. 5: ... ===").
inline void
banner(const std::string &artifact, const std::string &caption)
{
    std::printf("\n=== %s: %s ===\n\n", artifact.c_str(), caption.c_str());
}

/// Print the standard runner footer every bench emits.
inline void
print_runner_report(const eval::RunnerReport &report)
{
    std::printf("[runner: %d threads, %lld chunks, %.2fs wall, %.2fx "
                "parallel speedup]\n", report.threads_used,
                static_cast<long long>(report.chunks), report.wall_seconds,
                report.speedup());
}

// ---------------------------------------------------------------------------
// Machine-readable bench output
// ---------------------------------------------------------------------------

/// One scalar cell of the JSON report (string / number / bool).
struct JsonValue
{
    enum class Kind { kString, kNumber, kBool };
    Kind kind = Kind::kNumber;
    std::string str;
    double num = 0.0;
    bool boolean = false;

    JsonValue(const char *v) : kind(Kind::kString), str(v) {}
    JsonValue(std::string v) : kind(Kind::kString), str(std::move(v)) {}
    JsonValue(bool v) : kind(Kind::kBool), boolean(v) {}
    template <typename T,
              std::enable_if_t<std::is_arithmetic_v<T> &&
                                   !std::is_same_v<T, bool>, int> = 0>
    JsonValue(T v) : num(static_cast<double>(v)) {}
};

/// A flat key/value record (one row or the params block).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/**
 * Append the paper-anchor keys CI's deviation gate greps for (`anchor`
 * and `deviation` on rows; `<prefix>_anchor` / `<prefix>_deviation` on
 * params via the overload below). One definition keeps the key
 * contract between the anchored benches (fig14/fig15/fig17) and the
 * workflow assertion in sync.
 */
inline void
add_anchor(JsonObject &row, double value, double anchor)
{
    row.emplace_back("anchor", anchor);
    row.emplace_back("deviation", value / anchor - 1.0);
}


/**
 * Collects the bench's parameters and result rows and writes
 * `BENCH_<name>.json` (name, params, rows, wall-time) next to the human
 * tables. Written on destruction or by an explicit write().
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    ~JsonReport() { write(); }

    /// Record one sweep parameter ("group_size": 16, ...).
    void param(const std::string &key, JsonValue value)
    {
        params_.emplace_back(key, std::move(value));
    }

    /// Append one result row.
    void add_row(JsonObject row) { rows_.push_back(std::move(row)); }

    /// Append the standard fields of one scenario result, plus @p extra.
    void add_result(const eval::ScenarioResult &r, JsonObject extra = {})
    {
        JsonObject row{
            {"scenario", r.name},
            {"engine", r.engine},
            {"accelerator", r.accelerator},
            {"workload", r.workload},
            {"cycles", r.total_cycles},
            {"energy_pj", r.energy.total_pj},
            {"runtime_ms", r.runtime_ms()},
            {"tops_per_watt", r.tops_per_watt()},
            {"eval_wall_s", r.wall_seconds},
        };
        for (auto &kv : extra) {
            row.push_back(std::move(kv));
        }
        add_row(std::move(row));
    }

    /// Write BENCH_<name>.json to the working directory (best effort).
    /// The write is atomic — temp file + rename — so a bench that
    /// crashes mid-report never leaves a truncated JSON behind.
    void write()
    {
        if (written_) {
            return;
        }
        written_ = true;
        const double wall = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_).count();
        const std::string path = "BENCH_" + name_ + ".json";
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", tmp.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n", escape(name_).c_str());
        std::fprintf(f, "  \"wall_time_s\": %.6f,\n", wall);
        std::fprintf(f, "  \"params\": ");
        print_object(f, params_, "  ");
        std::fprintf(f, ",\n  \"rows\": [");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s\n    ", i == 0 ? "" : ",");
            print_object(f, rows_[i], "    ");
        }
        std::fprintf(f, "%s]\n}\n", rows_.empty() ? "" : "\n  ");
        const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
        std::fclose(f);
        if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::fprintf(stderr, "bench: cannot finalize %s\n",
                         path.c_str());
            std::remove(tmp.c_str());
            return;
        }
        std::printf("\n[bench json: %s]\n", path.c_str());
    }

  private:
    static std::string escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (c == '\n') {
                out += "\\n";
            } else {
                out += c;
            }
        }
        return out;
    }

    static void print_object(std::FILE *f, const JsonObject &obj,
                             const char *indent)
    {
        std::fprintf(f, "{");
        for (std::size_t i = 0; i < obj.size(); ++i) {
            std::fprintf(f, "%s\n%s  \"%s\": ", i == 0 ? "" : ",", indent,
                         escape(obj[i].first).c_str());
            const JsonValue &v = obj[i].second;
            switch (v.kind) {
              case JsonValue::Kind::kString:
                std::fprintf(f, "\"%s\"", escape(v.str).c_str());
                break;
              case JsonValue::Kind::kNumber:
                std::fprintf(f, "%.17g", v.num);
                break;
              case JsonValue::Kind::kBool:
                std::fprintf(f, "%s", v.boolean ? "true" : "false");
                break;
            }
        }
        if (obj.empty()) {
            std::fprintf(f, "}");
        } else {
            std::fprintf(f, "\n%s}", indent);
        }
    }

    std::string name_;
    std::chrono::steady_clock::time_point start_;
    JsonObject params_;
    std::vector<JsonObject> rows_;
    bool written_ = false;
};

/// Params-block variant of add_anchor(): `<name>`, `<name>_anchor`,
/// `<name>_deviation`.
inline void
add_anchor_param(JsonReport &json, const std::string &name, double value,
                 double anchor)
{
    json.param(name, value);
    json.param(name + "_anchor", anchor);
    json.param(name + "_deviation", value / anchor - 1.0);
}

// ---------------------------------------------------------------------------
// Shared paper-grid scenario factories
// ---------------------------------------------------------------------------
// fig14/fig15/fig17 and table3 compare the same machines under the same
// protocol; these factories are the single definition of that grid.

/// The five modeled baseline machines, in the papers' column order.
inline std::vector<AcceleratorConfig>
paper_baselines()
{
    return {make_scnn(), make_stripes(), make_pragmatic(), make_bitlet(),
            make_huaa()};
}

/// BitWave's flagship configuration on @p id: +DF+SM+BF with the
/// heavy-layer Bit-Flip protocol (80 % of weights, group 16, 5 zero
/// columns) the Fig. 13-17 bars use.
inline eval::Scenario
bitwave_flagship_scenario(WorkloadId id)
{
    eval::Scenario s;
    s.accel = make_bitwave(BitWaveVariant::kDfSmBf);
    s.workload = id;
    s.bitflip.mode = eval::BitflipSpec::Mode::kHeavyLayers;
    s.bitflip.weight_share = 0.8;
    s.bitflip.group_size = 16;
    s.bitflip.zero_columns = 5;
    return s;
}

/// Columns per workload in paper_grid(): the baselines plus BitWave.
inline constexpr std::size_t kPaperGridPerWorkload = 6;

/// The full figure grid: per benchmark network, every baseline followed
/// by the BitWave flagship — the batch fig14/fig15/fig17 evaluate.
inline std::vector<eval::Scenario>
paper_grid()
{
    const auto baselines = paper_baselines();
    std::vector<eval::Scenario> scenarios;
    for (auto id : kAllWorkloads) {
        for (const auto &cfg : baselines) {
            eval::Scenario s;
            s.accel = cfg;
            s.workload = id;
            scenarios.push_back(std::move(s));
        }
        scenarios.push_back(bitwave_flagship_scenario(id));
    }
    return scenarios;
}

/// Bit-exact equality of the determinism-contract fields of two results
/// (everything except the wall_seconds / stats_memo_hits host
/// diagnostics) — the comparison the scaling bench, the service bench
/// and the service tests all gate on.
inline bool
identical_result(const eval::ScenarioResult &x,
                 const eval::ScenarioResult &y)
{
    if (x.name != y.name || x.rng_seed != y.rng_seed ||
        x.total_cycles != y.total_cycles ||
        x.energy.total_pj != y.energy.total_pj ||
        x.nominal_macs != y.nominal_macs ||
        x.layers.size() != y.layers.size()) {
        return false;
    }
    for (std::size_t l = 0; l < x.layers.size(); ++l) {
        const auto &p = x.layers[l];
        const auto &q = y.layers[l];
        if (p.layer_name != q.layer_name || p.su_name != q.su_name ||
            p.total_cycles != q.total_cycles ||
            p.compute_cycles != q.compute_cycles ||
            p.energy.total_pj != q.energy.total_pj) {
            return false;
        }
    }
    return true;
}

/// identical_result() over whole batches, in order.
inline bool
identical_results(const std::vector<eval::ScenarioResult> &a,
                  const std::vector<eval::ScenarioResult> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!identical_result(a[i], b[i])) {
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Synthetic multi-tenant trace + service replay
// ---------------------------------------------------------------------------

/// One request of a replayable trace.
struct TraceRequest
{
    eval::Scenario scenario;
    double deadline_seconds = 0.0;  ///< 0 = no deadline.
};

/// Knobs of make_multitenant_trace().
struct TraceSpec
{
    std::size_t requests = 1200;
    std::uint64_t seed = 0xB17;
    /// Zipf exponent of the workload popularity ranking (rank order =
    /// kAllWorkloads order): tenants hammer ResNet-class networks far
    /// more often than BERT-class ones.
    double zipf_exponent = 1.1;
};

/**
 * Synthesize a seeded multi-tenant request trace: workloads drawn
 * Zipf(@p zipf_exponent) over the benchmark networks; request bodies
 * drawn from small per-workload pools of realistic shapes — full
 * figure-grid evaluations (quickstart/deploy style), single-layer
 * flagship probes and Bit-Flip variant sweeps (DSE style), and
 * statistics queries. The pools are deliberately small so a trace
 * repeats design points the way real tenants do — that repetition is
 * what the service's dedup and the content-hash caches exploit.
 */
inline std::vector<TraceRequest>
make_multitenant_trace(const TraceSpec &spec)
{
    // Zipf CDF over the benchmark networks.
    constexpr std::size_t kWorkloads = std::size(kAllWorkloads);
    double zipf_cdf[kWorkloads];
    double norm = 0.0;
    for (std::size_t r = 0; r < kWorkloads; ++r) {
        norm += 1.0 / std::pow(static_cast<double>(r + 1),
                               spec.zipf_exponent);
        zipf_cdf[r] = norm;
    }

    // Per-workload probe-layer pools: a few layer names spread through
    // the network, from the cheap skeleton build (no weight synthesis).
    std::vector<std::vector<std::string>> probe_layers(kWorkloads);
    for (std::size_t w = 0; w < kWorkloads; ++w) {
        const Workload skeleton = build_workload_skeleton(kAllWorkloads[w]);
        const std::size_t n = skeleton.layers.size();
        for (const std::size_t idx :
             {std::size_t{0}, n / 3, (2 * n) / 3, n - 1}) {
            const std::string &name = skeleton.layers[idx].desc.name;
            auto &pool = probe_layers[w];
            if (std::find(pool.begin(), pool.end(), name) == pool.end()) {
                pool.push_back(name);
            }
        }
    }
    const auto baselines = paper_baselines();

    Rng rng(spec.seed);
    std::vector<TraceRequest> trace;
    trace.reserve(spec.requests);
    while (trace.size() < spec.requests) {
        const double u = rng.uniform() * norm;
        std::size_t w = 0;
        while (w + 1 < kWorkloads && zipf_cdf[w] < u) {
            ++w;
        }
        const WorkloadId id = kAllWorkloads[w];

        TraceRequest req;
        const double kind = rng.uniform();
        if (kind < 0.55) {
            // Single-layer flagship probe (DSE inner loop style).
            req.scenario = bitwave_flagship_scenario(id);
            req.scenario.layer_filter = {probe_layers[w][static_cast<
                std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(probe_layers[w].size()) - 1))]};
        } else if (kind < 0.80) {
            // Full-network figure-grid evaluation (quickstart/deploy
            // style): a baseline machine or the flagship.
            const auto pick = static_cast<std::size_t>(
                rng.uniform_int(0,
                                static_cast<std::int64_t>(baselines.size())));
            if (pick < baselines.size()) {
                req.scenario.accel = baselines[pick];
                req.scenario.workload = id;
            } else {
                req.scenario = bitwave_flagship_scenario(id);
            }
        } else if (kind < 0.95) {
            // Bit-Flip variant sweep point: small (group, zero-column)
            // pool on a probe layer.
            req.scenario = bitwave_flagship_scenario(id);
            req.scenario.bitflip.group_size =
                rng.bernoulli(0.5) ? 16 : 8;
            req.scenario.bitflip.zero_columns =
                static_cast<int>(rng.uniform_int(3, 5));
            req.scenario.layer_filter = {probe_layers[w].front()};
        } else {
            // Statistics query.
            req.scenario.engine = eval::EngineKind::kStats;
            req.scenario.workload = id;
            req.scenario.layer_filter = {probe_layers[w].back()};
        }
        // A slice of requests carries a (generous) deadline, exercising
        // the deadline bookkeeping without expiring under normal load.
        if (rng.bernoulli(0.25)) {
            req.deadline_seconds = 120.0;
        }
        trace.push_back(std::move(req));
    }
    return trace;
}

/// Result of replaying one trace through a service.
struct ReplayOutcome
{
    std::vector<service::EvalTicket> tickets;  ///< Parallel to the trace.
    double wall_seconds = 0.0;  ///< First submit -> last completion.
};

/// Submit every trace request, then wait for all completions.
inline ReplayOutcome
replay_trace(service::EvalService &svc,
             const std::vector<TraceRequest> &trace)
{
    ReplayOutcome outcome;
    outcome.tickets.reserve(trace.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &req : trace) {
        service::SubmitOptions opts;
        opts.deadline_seconds = req.deadline_seconds;
        outcome.tickets.push_back(svc.submit(req.scenario, opts));
    }
    for (const auto &ticket : outcome.tickets) {
        ticket.wait();
    }
    outcome.wall_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return outcome;
}

/// The @p p-quantile (0..1) of @p values (nearest-rank; sorts a copy).
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(values.size()) - 1.0,
                         std::max(0.0, p * static_cast<double>(
                                                values.size()) - 0.5)));
    return values[rank];
}

}  // namespace bitwave::bench
