// Serving parity for once-only predicate evaluation: the statistics layer
// evaluates each relation's predicate into a selection (RelationRef::
// selection), plan-cache entries keep those selections, a rebind
// re-evaluates only its moved relations, and scans read the selection
// instead of evaluating again. None of that may change an answer:
//
//  * A TPC-DS-lite template with a fact-side predicate, served as a cold
//    miss, an exact hit, and a rebind with a moved fact-side constant, at
//    pool sizes {1, 4} x threads {1, 4}, returns the checksum and
//    FilterStats of a fresh single-threaded run of the same literals.
//  * Every executed scan reads exactly its relation's filtered_rows rows
//    (OperatorStats::rows_prefilter), whichever path produced the
//    selection.
//  * The scan never evaluates a predicate itself: compiling a plan over a
//    graph bound without statistics (no selections at all) is a check
//    failure, not a second evaluation path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/predicate_shape.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/workload/workload.h"

namespace bqo {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

const Workload& Tpcds() {
  static const Workload* w = new Workload(MakeTpcdsLite(0.04));
  return *w;
}

/// The first query whose fact relation (relation 0) carries a predicate
/// with a constant slot.
const QuerySpec& FactPredicatedTemplate() {
  for (const QuerySpec& spec : Tpcds().queries) {
    const ExprPtr& p = spec.relations[0].predicate;
    if (p != nullptr && !CollectPredicateConstants(p).empty()) return spec;
  }
  BQO_CHECK_MSG(false, "no TPC-DS-lite query has a fact-side constant");
  return Tpcds().queries[0];
}

/// `spec` with its fact predicate's first constant moved by `delta`.
QuerySpec MoveFactConstant(const QuerySpec& spec, int64_t delta) {
  QuerySpec moved = spec;
  ExprPtr& p = moved.relations[0].predicate;
  std::vector<Value> constants = CollectPredicateConstants(p);
  constants[0] = Value(constants[0].AsInt64() + delta);
  p = RebindPredicateConstants(p, constants);
  return moved;
}

void ExpectSameAnswer(const QueryMetrics& base, const QueryMetrics& m,
                      const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created) << what;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted) << what;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what;
  }
}

/// Every scan of `m` (labelled "scan <alias>") read its relation's exact
/// filtered cardinality under `spec`'s literals.
void ExpectScansReadFilteredRows(const QuerySpec& spec, const QueryMetrics& m,
                                 const std::string& what) {
  const JoinGraph graph = BuildJoinGraph(*Tpcds().catalog, spec).value();
  int scans = 0;
  for (const OperatorStats& op : m.operators) {
    if (op.type != OperatorType::kScan) continue;
    ++scans;
    const int rel = graph.FindRelation(op.label.substr(5));
    ASSERT_GE(rel, 0) << what << " " << op.label;
    EXPECT_EQ(static_cast<double>(op.rows_prefilter),
              graph.relation(rel).filtered_rows)
        << what << " " << op.label;
  }
  EXPECT_EQ(scans, graph.num_relations()) << what;
}

/// A fresh service's single-threaded answer for `spec`.
QueryMetrics FreshSingleThreaded(const QuerySpec& spec) {
  QueryServiceOptions options;
  options.execution.exec.threads = 1;
  QueryService service(Tpcds().catalog.get(), options);
  const QueryResult r = service.Execute(spec);
  BQO_CHECK(r.status.ok());
  return r.metrics;
}

TEST(OnceOnlySelection, MissExactHitAndRebindMatchFreshRuns) {
  GlobalPoolGuard guard;
  const QuerySpec& warm = FactPredicatedTemplate();
  const QuerySpec moved = MoveFactConstant(warm, 1);
  const QueryMetrics warm_ref = FreshSingleThreaded(warm);
  const QueryMetrics moved_ref = FreshSingleThreaded(moved);

  for (int pool : {1, 4}) {
    WorkerPool::ResetGlobal(pool);
    for (int threads : {1, 4}) {
      const std::string what = warm.name + " pool=" + std::to_string(pool) +
                               " threads=" + std::to_string(threads);
      QueryServiceOptions options;
      options.execution.exec.threads = threads;
      options.execution.exec.morsel_rows = 1024;  // several morsels
      options.max_workers_per_query = threads;
      QueryService service(Tpcds().catalog.get(), options);

      const QueryResult miss = service.Execute(warm);
      ASSERT_TRUE(miss.status.ok()) << what;
      EXPECT_FALSE(miss.plan_cache_hit) << what;
      ExpectSameAnswer(warm_ref, miss.metrics, what + " miss");
      ExpectScansReadFilteredRows(warm, miss.metrics, what + " miss");

      const QueryResult exact = service.Execute(warm);
      ASSERT_TRUE(exact.status.ok()) << what;
      EXPECT_TRUE(exact.plan_cache_hit && !exact.plan_rebound) << what;
      ExpectSameAnswer(warm_ref, exact.metrics, what + " exact hit");
      ExpectScansReadFilteredRows(warm, exact.metrics, what + " exact hit");

      const QueryResult rebound = service.Execute(moved);
      ASSERT_TRUE(rebound.status.ok()) << what;
      EXPECT_TRUE(rebound.plan_cache_hit && rebound.plan_rebound) << what;
      ExpectSameAnswer(moved_ref, rebound.metrics, what + " rebind");
      ExpectScansReadFilteredRows(moved, rebound.metrics, what + " rebind");
    }
  }
}

TEST(OnceOnlySelection, PredicatedScanWithoutSelectionIsRejected) {
  // The child process re-runs this test from the top, so the worker pool
  // other tests started is not forked mid-flight.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const QuerySpec& spec = FactPredicatedTemplate();
  const JoinGraph with_stats =
      BuildJoinGraph(*Tpcds().catalog, spec).value();
  JoinGraph bare =
      BuildJoinGraph(*Tpcds().catalog, spec, /*attach_statistics=*/false)
          .value();
  for (int r = 0; r < bare.num_relations(); ++r) {
    ASSERT_EQ(bare.relation(r).selection, nullptr);
  }
  StatsCatalog stats(Tpcds().catalog.get());
  const OptimizedQuery optimized = OptimizeQuery(with_stats, &stats);
  Plan plan = optimized.plan.Clone();
  plan.graph = &bare;  // same relations and edges, no selections
  EXPECT_DEATH(ExecutePlan(plan), "without its relation's selection");
}

}  // namespace
}  // namespace bqo
