#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/// \file layers.h
/// The traced decomposition of one query: the same sequence of public
/// calls `RdfStore::QueryWith` makes on a plan-cache miss — SPARQL parse,
/// optimizer, translator, SQL parse, execution, decode — each issued
/// separately and wrapped in a span, so every layer is timed from outside
/// the library. Execution is repeated serially to give the parallel gain.

#include <cstdint>
#include <string_view>
#include <vector>

#include "report.h"
#include "store/rdf_store.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// What one decomposed query produced; its times are the spans it left.
struct LayerCounts {
  uint64_t sql_bytes = 0;
  uint64_t rows = 0;
  uint64_t ops = 0;

  LayerCounts& operator+=(const LayerCounts& o) {
    sql_bytes += o.sql_bytes;
    rows += o.rows;
    ops += o.ops;
    return *this;
  }
};

/// Decomposes \p text against \p store under \p opts, one span per call
/// under \p parent: sparql.parse, opt.optimize (CostModel through
/// MergeExecTree), translate.translate (BuildSqlFull), sql.parse
/// (ParseSelect), store.execute (ExecuteDecodedSqlStreaming), sql.exec
/// (Database::QueryStreaming) and sql.exec_serial (the same, one thread).
/// Read-only: callers must not run writers on the store meanwhile.
rdfrel::Result<LayerCounts> DecomposeQuery(
    rdfrel::store::RdfStore& store, std::string_view text,
    const rdfrel::store::QueryOptions& opts, Tracer& tracer, int32_t parent,
    uint64_t request);

/// Sets the sparql/opt/translate/sql/store layer metrics and
/// `bench.layer_coverage` from the self times of the spans in \p tracers
/// (each traced operation is a `store.query_with` span around the real
/// call, then a decomposition) and the summed \p counts.
///
/// The front half (parse, optimize, translate) only runs on a plan-cache
/// miss, so the layer metrics charge it at \p served_miss_rate, the miss
/// rate of the traffic described; coverage compares the layers with the
/// traced QueryWith calls, whose own miss rate is \p traced_miss_rate.
/// `store.decode_ms` is store.execute minus sql.exec, and `sql.exec_ms`
/// is sql.exec minus the SQL parse it performs.
void EmitLayerMetrics(const std::vector<const Tracer*>& tracers,
                      const LayerCounts& counts, double served_miss_rate,
                      double traced_miss_rate, Report* report);

/// Sets store.plan_cache_{hit_rate,lookups,evictions} and
/// sql.page_cache_hit_rate from counter deltas over a traced phase and
/// returns the plan-cache miss rate over it.
double EmitCacheMetrics(const rdfrel::util::CacheStats& plan_before,
                        const rdfrel::util::CacheStats& plan_after,
                        const rdfrel::util::CacheStats& page_before,
                        const rdfrel::util::CacheStats& page_after,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
