// Workload runner: optimize + execute every query of a workload under one
// or more optimizer modes, collecting the measurements the paper reports —
// per-query CPU time (Figures 8 and 10, Table 4), operator tuple counts
// (Figure 9), filter usage (Table 4), and optimization time (overhead).
//
// RunWorkload executes queries strictly one at a time (the paper's
// measurement setup); concurrent serving goes through QueryService
// (src/server/query_service.h). RunWorkload keys per-query min-of-k
// repeat timing on QueryMetrics::cpu_ns — the query's own task time on
// per-thread CPU clocks — so a query's reported time is not inflated by
// co-running queries (metrics.h).
#pragma once

#include <vector>

#include "src/exec/executor.h"
#include "src/optimizer/optimizer.h"
#include "src/workload/workload.h"

namespace bqo {

struct QueryRun {
  std::string query_name;
  OptimizerMode mode = OptimizerMode::kBqoShallow;
  QueryMetrics metrics;       ///< best (minimum-cpu_ns) of `repeats` runs
  double estimated_cost = 0;
  int64_t optimize_ns = 0;
  int num_joins = 0;
  int pruned_filters = 0;
  bool used_bitvectors = false;
};

struct RunOptions {
  /// Warm repetitions per query; the run with the minimum cpu_ns is kept
  /// (the paper averages ten warm runs; min-of-k is the low-variance
  /// equivalent, and keying on the per-task CPU clock keeps it meaningful
  /// under concurrency).
  int repeats = 2;
  OptimizerOptions optimizer;
  /// Execution knobs, including execution.exec.threads: scans run
  /// morsel-parallel when > 1 (exec_config.h). Merged filter stats are
  /// thread-count-invariant, so used_bitvectors and per-query lambdas below
  /// stay exact either way.
  ExecutionOptions execution;
  /// Run only the first `limit` queries (0 = all); smoke tests use this.
  size_t limit = 0;
};

/// \brief Run every query of `workload` under `mode`; results are index-
/// aligned with workload.queries.
std::vector<QueryRun> RunWorkload(const Workload& workload,
                                  OptimizerMode mode,
                                  const RunOptions& options = {});

/// \brief Selectivity groups of Figure 8: queries split into terciles by
/// the CPU time of their BASELINE runs — S(mall) = cheapest third,
/// L(arge) = most expensive third.
enum class QueryGroup { kS = 0, kM = 1, kL = 2 };

/// \brief Group assignment per query, computed from baseline CPU times.
std::vector<QueryGroup> GroupBySelectivity(
    const std::vector<QueryRun>& baseline_runs);

}  // namespace bqo
