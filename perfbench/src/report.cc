#include "report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"read_p50_ms", "ms"},
      {"read_p95_ms", "ms"},
      {"read_qps", "1/s"},
      {"snapshot_bytes_per_triple", "B/triple"},
      {"rss_peak_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sparql.parse_ms", "ms"},
      {"opt.optimize_ms", "ms"},
      {"translate.translate_ms", "ms"},
      {"translate.sql_bytes", "count"},
      {"sql.parse_ms", "ms"},
      {"sql.exec_ms", "ms"},
      {"sql.exec_serial_ms", "ms"},
      {"sql.parallel_gain", "x"},
      {"sql.page_cache_hit_rate", "fraction"},
      {"store.plan_cache_hit_rate", "fraction"},
      {"store.plan_cache_lookups", "count"},
      {"store.plan_cache_evictions", "count"},
      {"store.decode_ms", "ms"},
      {"store.result_rows", "count"},
      {"store.query_with_ms", "ms"},
      {"serve.http_p50_ms", "ms"},
      {"serve.http_p95_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.bad", "count"},
      {"serve.response_bytes", "count"},
      {"serve.max_qps", "1/s"},
      {"bench.gen_lag_p99_ms", "ms"},
      {"persist.write_p50_ms", "ms"},
      {"persist.wal_bytes_per_triple", "B/triple"},
      {"persist.fsyncs_per_commit", "count"},
      {"persist.group_commit_batch", "count"},
      {"persist.commit_tail_ms", "ms"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.recovery_ms", "ms"},
      {"schema.load_ms", "ms"},
      {"schema.dph_spill_frac", "fraction"},
      {"schema.rows_per_triple", "count"},
      {"bench.error_frac", "fraction"},
      {"bench.trace_overhead_ms", "ms"},
      {"bench.layer_coverage", "fraction"},
  };
  return kDefs;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Report::Meta(const std::string& key, const std::string& json_value) {
  meta_.emplace_back(key, json_value);
}

void Report::MetaString(const std::string& key, const std::string& value) {
  Meta(key, JsonString(value));
}

void Report::MetaNumber(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
  Meta(key, buf);
}

void Report::Fail(uint64_t n, const std::string& why) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: FAILED (%" PRIu64 "): %s\n", n,
               why.c_str());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

int Report::Print(const Config& cfg) const {
  std::printf("\n%-32s %18s  %s\n", "metric", "value", "unit");
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (!Has(d.name)) continue;
      std::printf("%-32s %18.6f  %s\n", d.name, Get(d.name), d.unit);
    }
  }
  std::string meta = "{";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) meta += ",";
    meta += JsonString(meta_[i].first) + ":" + meta_[i].second;
  }
  std::printf("meta %s}\n", meta.c_str());

  const auto& defs = cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    const MetricDef& d = defs[i];
    double v = Get(d.name);
    if (!Has(d.name) || !std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   d.name);
      return 2;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", i > 0 ? ", " : "", d.name, v, d.unit);
    metrics += buf;
  }
  metrics += "}";
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted_, failed_,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t NewestSnapshotBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::string newest;
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 || e.path().extension() != ".snap") {
      continue;
    }
    // Generation numbers are zero-padded, so name order is age order.
    if (name > newest) {
      newest = name;
      bytes = static_cast<uint64_t>(e.file_size(ec));
    }
  }
  return bytes;
}

}  // namespace perfbench
