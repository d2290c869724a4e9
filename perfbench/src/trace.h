#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory spans recorded by the benchmark around its calls into each
/// layer's public functions (nothing inside the library is instrumented).
/// A span has a name, start, end, parent and the id of the request it
/// belongs to; spans stay in memory until the run ends and are then
/// written out. Each client thread owns one Tracer, so recording takes no
/// lock.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;   ///< since the tracer's epoch
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index into the same tracer; -1 = root
  uint64_t request = 0;   ///< shared by every span of one operation
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span and returns its index.
  int32_t Begin(const char* name, int32_t parent, uint64_t request);
  void End(int32_t id);
  /// Records a span whose interval was measured elsewhere.
  int32_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, int32_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
/// Indexed like \p spans, in ns.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Total self time and span count per span name.
struct NameTotals {
  int64_t self_ns = 0;
  uint64_t count = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes spans as tab-separated lines: name, start_ns, end_ns, parent,
/// request, thread. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
