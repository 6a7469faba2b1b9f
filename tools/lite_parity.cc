// Parity dump of the three lite workloads: everything the optimizer
// decides and everything execution counts, in a text form that two builds
// can be compared on with `cmp`.
//
// For every query of JOB-lite, TPC-DS-lite and CUSTOMER-lite (312 in all),
// at scales 0.05 and 0.1, in the Original (baseline-postprocess), BQO
// (bqo-shallow) and alternative-plan modes, it prints:
//  * the plan text, the estimated cost (%a, so every bit shows), the
//    pruned-filter count and each filter's estimated lambda;
//  * at threads 1 and 4: the result checksum and row count, leaf and join
//    tuples, and each filter's created/inserted/probed/passed counts.
// Timings are left out: they differ from run to run.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target lite_parity
//   ./build/lite_parity > parity.txt     # then `cmp` against another build
#include <cinttypes>
#include <cstdio>

#include "src/exec/executor.h"
#include "src/optimizer/optimizer.h"
#include "src/workload/workload.h"

using namespace bqo;

namespace {

void DumpQuery(const Workload& w, const QuerySpec& spec, StatsCatalog* stats,
               OptimizerMode mode) {
  auto graph = BuildJoinGraph(*w.catalog, spec);
  BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + spec.name).c_str());
  OptimizerOptions options;
  options.mode = mode;
  const OptimizedQuery q = OptimizeQuery(graph.value(), stats, options);
  std::printf("== %s %s %s\n%s", w.name.c_str(), spec.name.c_str(),
              OptimizerModeName(mode), q.plan.ToString().c_str());
  std::printf("cost %a pruned %d\n", q.estimated_cost, q.pruned_filters);
  for (const PlanFilter& f : q.plan.filters) {
    std::printf("lambda BV#%d %a\n", f.id, f.estimated_lambda);
  }
  for (int threads : {1, 4}) {
    ExecutionOptions exec;
    exec.exec.threads = threads;
    exec.use_bitvectors = mode != OptimizerMode::kNoBitvectors;
    exec.agg = spec.agg;
    const QueryMetrics m = ExecutePlan(q.plan, exec);
    std::printf("threads %d checksum %" PRIu64 " rows %" PRId64
                " leaf %" PRId64 " join %" PRId64 "\n",
                threads, m.result_checksum, m.result_rows, m.leaf_tuples,
                m.join_tuples);
    for (const FilterStats& fs : m.filters) {
      std::printf("  filter %d created %d inserted %" PRId64
                  " probed %" PRId64 " passed %" PRId64 "\n",
                  fs.filter_id, fs.created ? 1 : 0, fs.inserted, fs.probed,
                  fs.passed);
    }
  }
}

}  // namespace

int main() {
  for (double scale : {0.05, 0.1}) {
    for (int which = 0; which < 3; ++which) {
      const Workload w = which == 0   ? MakeJobLite(scale)
                         : which == 1 ? MakeTpcdsLite(scale)
                                      : MakeCustomerLite(scale);
      std::printf("#### %s scale %g: %zu queries\n", w.name.c_str(), scale,
                  w.queries.size());
      StatsCatalog stats(w.catalog.get());
      for (const QuerySpec& spec : w.queries) {
        for (OptimizerMode mode : {OptimizerMode::kBaselinePostProcess,
                                   OptimizerMode::kBqoShallow,
                                   OptimizerMode::kAlternativePlan}) {
          DumpQuery(w, spec, &stats, mode);
        }
      }
    }
  }
  return 0;
}
