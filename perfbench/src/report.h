#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/// \file report.h
/// Run configuration, the metric catalogue (names and units exactly as in
/// BENCHMARK.json) and the result printer: a human-readable report, one
/// `meta` JSON line, and as the last line of stdout the result object
/// {"correct", "attempted", "failed", "metrics"}.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Version of the benchmark itself; bump when a workload or metric changes.
inline constexpr const char* kBenchVersion = "2";

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;     ///< scratch directory for persisted stores
  std::string trace_path;  ///< where the traced run writes its spans
  std::string git_sha;     ///< "unknown" outside a git checkout
  std::string src_digest;  ///< hash of the library sources that were built
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every traced run (--trace 1).
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const;

  /// Adds a metadata field; \p json_value must already be valid JSON.
  void Meta(const std::string& key, const std::string& json_value);
  void MetaString(const std::string& key, const std::string& value);
  void MetaNumber(const std::string& key, double value);

  /// Counts operations; a failed one is also attempted.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& why);
  /// A check that failed without a counted operation (e.g. a missing
  /// acknowledged triple after reopen): counts one failed operation.
  void Problem(const std::string& why) { Fail(1, why); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints meta and the result line for the metric set of \p trace.
  /// Returns the process exit code: 0 when a result line was printed.
  int Print(const Config& cfg) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> meta_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonString(const std::string& s);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Size of the newest `snapshot-*.snap` file in \p dir; 0 when none.
uint64_t NewestSnapshotBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
