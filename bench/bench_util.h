// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Each binary prints the same rows/series the paper
// reports; absolute numbers differ (our substrate is a from-scratch engine,
// not the authors' SQL Server testbed) but the shapes should hold.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/workload/runner.h"

namespace bqo::bench {

struct Comparison {
  Workload workload;
  std::vector<QueryRun> original;  ///< kBaselinePostProcess
  std::vector<QueryRun> bqo;       ///< kBqoShallow
};

inline Workload MakeWorkloadByIndex(int which, double scale) {
  switch (which) {
    case 0:
      return MakeJobLite(scale);
    case 1:
      return MakeTpcdsLite(scale);
    default:
      return MakeCustomerLite(scale);
  }
}

/// \brief Run Original vs BQO over the three workloads (JOB, TPC-DS,
/// CUSTOMER — the paper's ordering in Figures 8-10). Every pipeline —
/// hash-join builds and the top probe chain alike — runs on BQO_THREADS
/// workers (see exec_config.h); the default of one worker, inline on the
/// calling thread, keeps figures comparable across machines.
inline std::vector<Comparison> RunAllComparisons(double scale,
                                                 size_t limit = 0,
                                                 int repeats = 2) {
  std::vector<Comparison> out;
  const ExecConfig exec = ExecConfigFromEnv();
  if (exec.ResolvedThreads() > 1) {
    std::fprintf(stderr, "[bench] pipeline workers: %d\n",
                 exec.ResolvedThreads());
  }
  for (int which = 0; which < 3; ++which) {
    Comparison c{MakeWorkloadByIndex(which, scale), {}, {}};
    RunOptions options;
    options.repeats = repeats;
    options.limit = limit;
    options.execution.exec = exec;
    std::fprintf(stderr, "[bench] %s: running Original...\n",
                 c.workload.name.c_str());
    c.original =
        RunWorkload(c.workload, OptimizerMode::kBaselinePostProcess, options);
    std::fprintf(stderr, "[bench] %s: running BQO...\n",
                 c.workload.name.c_str());
    c.bqo = RunWorkload(c.workload, OptimizerMode::kBqoShallow, options);
    out.push_back(std::move(c));
  }
  return out;
}

inline int64_t TotalNs(const std::vector<QueryRun>& runs) {
  int64_t total = 0;
  for (const QueryRun& r : runs) total += r.metrics.total_ns;
  return total;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bqo::bench
