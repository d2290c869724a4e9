#ifndef PERFBENCH_SERVE_PHASE_H_
#define PERFBENCH_SERVE_PHASE_H_

/// \file serve_phase.h
/// HTTP reads beside durable writes, measured as per-layer figures: a
/// SparqlServer over the workload's (persistent) store, an open loop of
/// GETs over one more keep-alive connection than server workers at a
/// reference rate and then a ladder of higher rates, and a writer issuing
/// durable InsertBatch calls at a fixed rate beside them. Every response
/// is checked afterwards against the in-process answer to the same text.

#include <functional>
#include <string>

#include "durability.h"
#include "report.h"
#include "store/rdf_store.h"
#include "trace.h"

namespace perfbench {

/// Runs the phase for about 0.4 * \p seconds. \p next_text yields the
/// query text of each request in turn. Sets the serve.* metrics and
/// bench.gen_lag_p99_ms, appends the writes to \p writes and counts the
/// requests into \p report. With a \p tracer, every request and write
/// also leaves spans there.
void RunServePhase(rdfrel::store::RdfStore& store,
                   const std::function<std::string()>& next_text,
                   double seconds, WriteLog* writes, Tracer* tracer,
                   Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PHASE_H_
