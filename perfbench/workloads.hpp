/**
 * @file
 * The benchmark's workloads. Each fills a Report with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run, see
 * Options::trace) and checks its own outputs.
 */
#pragma once

#include "harness.hpp"

namespace perfbench {

/// `grid`: the fig14 paper grid plus the flagship on the simulator.
void run_grid(Report &report, const Options &options);

/// `cold_sweep`: a DSE batch on fresh private workload seeds.
void run_cold_sweep(Report &report, const Options &options);

/**
 * The evaluation service's per-layer metrics (queue/batch/compute
 * phases, dedup, batching; retries, bisections, quarantine and faults
 * under a transient storm), measured in cold_sweep's traced run: the
 * Zipf multi-tenant trace through one EvalService, closed loop.
 */
void report_service_layers(Report &report, const Options &options);

}  // namespace perfbench
