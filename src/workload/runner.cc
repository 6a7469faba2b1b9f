#include "src/workload/runner.h"

#include <algorithm>

namespace bqo {

std::vector<QueryRun> RunWorkload(const Workload& workload,
                                  OptimizerMode mode,
                                  const RunOptions& options) {
  std::vector<QueryRun> runs;
  StatsCatalog stats(workload.catalog.get());

  size_t count = workload.queries.size();
  if (options.limit > 0) count = std::min(count, options.limit);

  for (size_t qi = 0; qi < count; ++qi) {
    const QuerySpec& spec = workload.queries[qi];
    auto graph_result = BuildJoinGraph(*workload.catalog, spec);
    BQO_CHECK_MSG(graph_result.ok(),
                  ("query failed to bind: " + spec.name).c_str());
    const JoinGraph& graph = graph_result.value();

    OptimizerOptions opt = options.optimizer;
    opt.mode = mode;
    OptimizedQuery optimized = OptimizeQuery(graph, &stats, opt);

    ExecutionOptions exec = options.execution;
    exec.use_bitvectors = mode != OptimizerMode::kNoBitvectors;
    exec.agg = spec.agg;

    QueryRun run;
    run.query_name = spec.name;
    run.mode = mode;
    run.estimated_cost = optimized.estimated_cost;
    run.optimize_ns = optimized.optimize_ns;
    run.num_joins = spec.num_joins();
    run.pruned_filters = optimized.pruned_filters;

    for (int rep = 0; rep < std::max(1, options.repeats); ++rep) {
      QueryMetrics m = ExecutePlan(optimized.plan, exec);
      // Min-of-k keys on the query's own task time (cpu_ns), not wall
      // time: under a shared pool a repeat can be slowed by co-running
      // queries without doing any more work itself.
      if (rep == 0 || m.cpu_ns < run.metrics.cpu_ns) {
        run.metrics = std::move(m);
      }
    }
    for (const FilterStats& fs : run.metrics.filters) {
      if (fs.created && fs.probed > 0) run.used_bitvectors = true;
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<QueryGroup> GroupBySelectivity(
    const std::vector<QueryRun>& baseline_runs) {
  std::vector<size_t> order(baseline_runs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return baseline_runs[a].metrics.total_ns <
           baseline_runs[b].metrics.total_ns;
  });
  std::vector<QueryGroup> groups(baseline_runs.size(), QueryGroup::kM);
  const size_t third = baseline_runs.size() / 3;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (rank < third) {
      groups[order[rank]] = QueryGroup::kS;
    } else if (rank >= order.size() - third) {
      groups[order[rank]] = QueryGroup::kL;
    }
  }
  return groups;
}

}  // namespace bqo
