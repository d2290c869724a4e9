#ifndef RDFREL_SQL_EXEC_CONTROL_H_
#define RDFREL_SQL_EXEC_CONTROL_H_

/// \file exec_control.h
/// Cooperative cancellation for query execution. An ExecControl carries an
/// optional deadline and an optional external cancel flag; the executor
/// checks it at every batch boundary, so a long scan stops within one batch
/// of the deadline instead of running to completion. The two conditions
/// surface as distinct status codes: kCancelled (somebody asked us to stop)
/// vs kDeadlineExceeded (we ran out of time) — callers route them
/// differently (a shed HTTP request vs a 504).

#include <atomic>
#include <chrono>

#include "util/status.h"

namespace rdfrel::sql {

struct ExecControl {
  /// Absolute deadline; ignored unless has_deadline.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  /// External cancel flag (e.g. a disconnected client, server shutdown).
  /// Not owned; must outlive the execution. nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// OK while the query may keep running. Cancel wins over the deadline so
  /// a shutdown reads as kCancelled even when the deadline also lapsed.
  Status Check() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// True when neither condition can ever fire (skip per-batch checks).
  bool Trivial() const { return !has_deadline && cancel == nullptr; }
};

/// Per-execution knobs that never affect plan *shape* (and therefore must
/// never enter plan-cache identity — see store::PlanCacheKey): control flow
/// plus the intra-query parallelism settings (DESIGN.md §13).
struct ExecOptions {
  /// Default morsel granularity: big enough that per-morsel overhead
  /// (re-Open of the pipeline, one dispenser claim, one reorder-buffer
  /// publish) is amortized over several batches, small enough that scans
  /// split into many work units per worker.
  static constexpr uint32_t kDefaultMorselRows = 4096;
  /// Driving inputs below this stay serial under auto parallelism: a few
  /// thousand rows finish faster on one thread than the pool hand-off costs.
  static constexpr uint64_t kDefaultParallelMinRows = 8192;

  /// Borrowed; must outlive the execution. nullptr = uncontrolled.
  const ExecControl* control = nullptr;
  /// Resolved worker-pipeline count: <=1 executes serially. Callers resolve
  /// "auto" (hardware_concurrency) before constructing ExecOptions.
  unsigned max_threads = 1;
  /// Target rows per morsel; 0 = kDefaultMorselRows. Tests shrink this to
  /// force many morsels over small inputs.
  uint32_t morsel_rows = 0;
  /// Minimum driving-input rows before a plan goes parallel; explicit
  /// max_threads requests set this to 0 to force parallelism.
  uint64_t parallel_min_rows = kDefaultParallelMinRows;

  uint32_t effective_morsel_rows() const {
    return morsel_rows == 0 ? kDefaultMorselRows : morsel_rows;
  }
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_EXEC_CONTROL_H_
