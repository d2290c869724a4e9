#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The benchmark's workloads. Each builds its inputs from the seed, sets
/// the store up several times (setup_s is the median), measures for the
/// configured seconds, checks its outputs, and fills \p report. Rationale
/// per workload: perfbench/README.md.

#include "report.h"

namespace perfbench {

/// lubm-analytic and dbpedia-lookup: in-process QueryWith, closed loop.
void RunQueryWorkload(const Config& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
