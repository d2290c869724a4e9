// perfbench: the rdfrel benchmark binary. Normally started by
// perfbench/run.py, which builds it and passes every flag:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> --trace-path <file>
//             [--git-sha <sha>] [--src-digest <hash>]
//
// Prints a report, a `meta` line, and as its last line the result JSON.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lubm-analytic|dbpedia-lookup --seed N "
               "--seconds S --trace 0|1 --workdir DIR --trace-path FILE "
               "[--git-sha SHA] [--src-digest HASH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags come in --name value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags come in --name value pairs");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "workdir", "trace-path"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }

  perfbench::Config cfg;
  cfg.workload = args["workload"];
  char* end = nullptr;
  cfg.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  cfg.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(cfg.seconds > 0)) {
    return Usage("--seconds must be a positive number");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  cfg.trace = args["trace"] == "1";
  cfg.workdir = args["workdir"];
  cfg.trace_path = args["trace-path"];
  cfg.git_sha = args.count("git-sha") ? args["git-sha"] : "unknown";
  cfg.src_digest = args.count("src-digest") ? args["src-digest"] : "unknown";
  if (cfg.workload != "lubm-analytic" && cfg.workload != "dbpedia-lookup") {
    return Usage("unknown workload");
  }

  perfbench::Report report;
  report.MetaString("bench_version", perfbench::kBenchVersion);
  report.MetaString("workload", cfg.workload);
  report.MetaNumber("seed", static_cast<double>(cfg.seed));
  report.MetaNumber("seconds", cfg.seconds);
  report.MetaNumber("trace", cfg.trace ? 1 : 0);
  report.MetaNumber("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.MetaString("build_type", PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  report.Meta("optimized", "true");
#else
  report.Meta("optimized", "false");
  std::fprintf(stderr, "perfbench: WARNING: not an optimized build; "
                       "timings are not comparable\n");
#endif
  report.MetaString("git_sha", cfg.git_sha);
  report.MetaString("src_digest", cfg.src_digest);

  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", cfg.workdir.c_str());
    return 2;
  }
  perfbench::RunQueryWorkload(cfg, &report);
  std::filesystem::remove_all(cfg.workdir, ec);

  report.Set("bench.error_frac",
             report.attempted() == 0
                 ? 1.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()));
  return report.Print(cfg);
}
