#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, uint64_t request) {
  spans_.push_back(Span{name, Ns(Clock::now()), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Ns(Clock::now());
}

int32_t Tracer::Add(const char* name, Clock::time_point start,
                    Clock::time_point end, int32_t parent, uint64_t request) {
  spans_.push_back(Span{name, Ns(start), Ns(end), parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    // Only the part of a child inside its parent's interval is charged.
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, NameTotals> totals;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    t.self_ns += self[i];
    ++t.count;
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\tthread\n");
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\t%zu\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request), t);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
