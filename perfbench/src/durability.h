#ifndef PERFBENCH_DURABILITY_H_
#define PERFBENCH_DURABILITY_H_

/// \file durability.h
/// Durable writes and the close/reopen check shared by every workload.
/// Writes use a predicate no read query names, so read answers stay
/// checkable while writes run beside them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "report.h"
#include "stats.h"
#include "store/rdf_store.h"
#include "trace.h"

namespace perfbench {

inline constexpr uint64_t kTriplesPerWrite = 8;

/// The triples of write number \p batch (fresh subjects, one predicate).
std::vector<rdfrel::rdf::Triple> WriteBatch(uint64_t batch);

struct WriteLog {
  std::vector<Clock::time_point> start;  ///< when each InsertBatch began
  std::vector<double> latency_ms;  ///< InsertBatch call to durable return
  std::vector<uint64_t> acked;     ///< batch numbers that returned OK
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One durable InsertBatch of write number \p batch, timed into \p log.
void TimedWrite(rdfrel::store::RdfStore& store, uint64_t batch,
                WriteLog* log);

/// Adds a `persist.insert_batch` span to \p tracer for each write of
/// \p log from number \p first on.
void AddWriteSpans(const WriteLog& log, size_t first, Tracer* tracer);

/// Ends a persistent run: takes a final Checkpoint, measures the newest
/// snapshot, closes, reopens the directory with RdfStore::Open and checks
/// that every acknowledged triple is present. Sets
/// snapshot_bytes_per_triple and the persist.* metrics, and counts the
/// writes (and any lost acknowledged write) into \p report.
void FinishDurable(std::unique_ptr<rdfrel::store::RdfStore> store,
                   const std::string& dir, const WriteLog& log,
                   Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_DURABILITY_H_
