// The benchmark's workloads. Each runs one mode: without tracing it times
// its section and reports the end-to-end metrics; with tracing it reports
// the per-layer ones. Both modes run the workload's correctness checks.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_tune_job(const Options& opts, Report& report);
void run_fleet(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);

}  // namespace perfbench
