/**
 * @file
 * Ablation — lane-synchronization cost and the Bit-Flip balancing claim:
 * decoupled vs lockstep cycle counts from the cycle-level simulator,
 * before and after Bit-Flip, on representative layers. Each probe is a
 * pair of cycle-sim scenarios (original / Bit-Flipped weights)
 * restricted to the probed layer, run as one ScenarioRunner batch —
 * only the probed layers are ever flipped, through the shared
 * preparation cache.
 */
#include "bench_util.hpp"

using namespace bitwave;

int
main()
{
    bench::banner("Ablation: synchronization",
                  "decoupled vs lockstep BCE scheduling, +/- Bit-Flip");
    bench::JsonReport json("ablation_sync");

    struct Probe { WorkloadId id; const char *layer; };
    const Probe probes[] = {
        {WorkloadId::kCnnLstm, "LSTM.0"},
        {WorkloadId::kCnnLstm, "fc_out"},
        {WorkloadId::kResNet18, "l4.0.down"},
        {WorkloadId::kBertBase, "layer.0.q"},
    };
    std::vector<eval::Scenario> scenarios;
    for (const auto &probe : probes) {
        eval::Scenario base;
        base.engine = eval::EngineKind::kCycleSim;
        base.workload = probe.id;
        base.layer_filter = {probe.layer};
        scenarios.push_back(base);

        eval::Scenario flipped = base;
        flipped.bitflip.mode = eval::BitflipSpec::Mode::kUniform;
        flipped.bitflip.group_size = 16;
        flipped.bitflip.zero_columns = 4;
        scenarios.push_back(std::move(flipped));
    }
    eval::RunnerReport report;
    const auto results = eval::ScenarioRunner().run(scenarios, &report);

    Table t({"layer", "decoupled", "lockstep", "sync penalty",
             "lockstep +BF", "penalty +BF"});
    for (std::size_t p = 0; p < std::size(probes); ++p) {
        const eval::LayerEval &base = results[2 * p].layers.front();
        const eval::LayerEval &bf = results[2 * p + 1].layers.front();
        t.add_row({strprintf("%s/%s", results[2 * p].workload.c_str(),
                             probes[p].layer),
                   fmt_double(base.compute_cycles, 0),
                   fmt_double(base.cycles_lockstep, 0),
                   fmt_ratio(base.cycles_lockstep / base.compute_cycles),
                   fmt_double(bf.cycles_lockstep, 0),
                   fmt_ratio(bf.cycles_lockstep / bf.compute_cycles)});
        json.add_row({{"workload", results[2 * p].workload},
                      {"layer", probes[p].layer},
                      {"decoupled", base.compute_cycles},
                      {"lockstep", base.cycles_lockstep},
                      {"sync_penalty",
                       base.cycles_lockstep / base.compute_cycles},
                      {"lockstep_bf", bf.cycles_lockstep},
                      {"sync_penalty_bf",
                       bf.cycles_lockstep / bf.compute_cycles}});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: Bit-Flip equalizes per-group occupancy, "
                "driving the lockstep/decoupled penalty toward 1.0 "
                "(Section III-D's balanced-workload claim).\n");
    bench::print_runner_report(report);
    return 0;
}
