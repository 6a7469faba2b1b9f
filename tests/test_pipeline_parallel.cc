// Pipeline-parallel execution correctness: at every thread count the engine
// must produce the same result multiset and the same merged FilterStats as
// threads=1 — parallel hash-join builds, parallel filter creation, and wide
// probe pipelines are pure performance. Pins:
//
//  * One plan at every thread count: the compiled operator tree has the
//    same shape at threads 1 and 4, the executed operator list is equal
//    field by field at threads {1,2,4}, and with threads = N the aggregate
//    and every hash-join build run on N workers.
//  * For both filter kinds over star and snowflake shapes, a {1,2,4}
//    thread sweep leaves result rows/checksums, per-type tuple counts, and
//    merged probed/passed/inserted byte-equal.
//  * FillFilterParallel reproduces the sequential filter (membership and
//    NumInserted) from per-worker partials merged via MergeFrom.
//  * The aggregate parity invariant: with threads > 1 the final aggregate
//    runs as per-worker partial folds on the top pipeline's workers, and
//    the merged ResultChecksum()/NumGroups()/TotalValue() equal the
//    threads == 1 values exactly — for grouped (kSum + GROUP BY) and
//    ungrouped aggregates, over star, snowflake, and bushy plans,
//    including empty-result and single-group edge cases.
//
// Run under -DBQO_SANITIZE=thread in CI to pin race-freedom, and under
// -DBQO_SANITIZE=address,undefined for memory/UB.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/exec/executor.h"
#include "src/exec/pipeline.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

/// Compare every thread-count-invariant field of two runs.
void ExpectRunsEqual(const QueryMetrics& base, const QueryMetrics& m,
                     const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created)
        << what << " filter " << i;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed)
        << what << " filter " << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed)
        << what << " filter " << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " filter " << i;
  }
}

/// Full multi-join star workload: grouped SUM (a multiset-sensitive
/// aggregate) over a 3-dimension PKFK star, swept over {1,2,4} workers and
/// both filter kinds.
TEST(PipelineParallel, StarSweepAllKindsMatchesSingleThread) {
  auto db = MakeStarDb(3, 30000, 400, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    ExecutionOptions options;
    options.filter_config.kind = kind;
    options.agg.kind = AggKind::kSum;
    options.agg.sum_column = BoundColumn{0, "measure"};
    options.agg.has_group_by = true;
    options.agg.group_column = BoundColumn{1, "d0_id"};
    const QueryMetrics base = ExecutePlan(plan, options);
    ASSERT_GT(base.result_rows, 1) << "grouped result expected";

    for (int threads : {2, 4}) {
      ExecutionOptions parallel = options;
      parallel.exec.threads = threads;
      parallel.exec.morsel_rows = 2048;  // several morsels per worker
      const QueryMetrics m = ExecutePlan(plan, parallel);
      ExpectRunsEqual(base, m,
                      std::string(FilterKindName(kind)) + " threads=" +
                          std::to_string(threads));
    }
  }
}

/// Snowflake: branch predicates sit on the outermost relations, so filters
/// traverse multi-join branches before reaching the fact scan.
TEST(PipelineParallel, SnowflakeSweepMatchesSingleThread) {
  auto db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 1234,
                            /*zipf=*/0.4);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3, 4});
  PushDownBitvectors(&plan);

  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    ExecutionOptions options;
    options.filter_config.kind = kind;
    const QueryMetrics base = ExecutePlan(plan, options);
    ASSERT_GT(base.leaf_tuples, 0);

    for (int threads : {2, 4}) {
      ExecutionOptions parallel = options;
      parallel.exec.threads = threads;
      parallel.exec.morsel_rows = 1024;
      const QueryMetrics m = ExecutePlan(plan, parallel);
      ExpectRunsEqual(base, m,
                      std::string("snowflake ") + FilterKindName(kind) +
                          " threads=" + std::to_string(threads));
    }
  }
}

/// Bushy snowflake plan: the root join's build side is itself a join — its
/// parallel build drain runs a real scan->probe pipeline (with canonical
/// reassembly), and one probe chain carries two joins. Relation order in
/// MakeSnowflakeDb({2,2}): 0=f, 1=b0_1, 2=b0_2, 3=b1_1, 4=b1_2.
TEST(PipelineParallel, BushyBuildPipelinesMatchSingleThread) {
  auto db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 4321,
                            /*zipf=*/0.4);
  auto graph_or = db->Graph();
  ASSERT_TRUE(graph_or.ok());
  const JoinGraph& g = graph_or.value();

  Plan plan;
  plan.graph = &g;
  // build = (b0_2 HJ b0_1): a scan->probe build pipeline for the root.
  auto branch0 = MakeJoin(g, MakeLeaf(g, 2), MakeLeaf(g, 1));
  ASSERT_NE(branch0, nullptr);
  // probe chain: ((b1_2 HJ b1_1) HJ f) — inner join's build is also a
  // pipeline (scan b1_1 probing b1_2's filter).
  auto branch1 = MakeJoin(g, MakeLeaf(g, 4), MakeLeaf(g, 3));
  ASSERT_NE(branch1, nullptr);
  auto inner = MakeJoin(g, std::move(branch1), MakeLeaf(g, 0));
  ASSERT_NE(inner, nullptr);
  plan.root = MakeJoin(g, std::move(branch0), std::move(inner));
  ASSERT_NE(plan.root, nullptr);
  plan.Renumber();
  ASSERT_TRUE(plan.Validate());
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kBlockedBloom;
  const QueryMetrics base = ExecutePlan(plan, options);
  ASSERT_GT(base.join_tuples, 0);

  for (int threads : {2, 4}) {
    ExecutionOptions parallel = options;
    parallel.exec.threads = threads;
    parallel.exec.morsel_rows = 1024;
    const QueryMetrics m = ExecutePlan(plan, parallel);
    ExpectRunsEqual(base, m, "bushy threads=" + std::to_string(threads));
  }
}

/// The operator types of `op`'s subtree, preorder.
void CollectTypes(PhysicalOperator* op, std::vector<OperatorType>* out) {
  out->push_back(op->stats().type);
  for (PhysicalOperator* child : op->children()) CollectTypes(child, out);
}

/// Plan shape: one operator tree at every thread count — the aggregate at
/// the root over the plan's joins and bare scans, with nothing inserted
/// for parallelism.
TEST(PipelineParallel, CompiledPlanShape) {
  auto db = MakeStarDb(2, 5000, 100, {0.5, 0.5}, 11);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  PushDownBitvectors(&plan);

  std::vector<std::vector<OperatorType>> shapes;
  for (int threads : {1, 4}) {
    ExecutionOptions options;
    options.exec.threads = threads;
    FilterRuntime runtime;
    auto agg = CompilePlan(plan, options, &runtime);
    std::vector<OperatorType> types;
    CollectTypes(agg.get(), &types);
    shapes.push_back(std::move(types));
  }
  const std::vector<OperatorType> expected = {
      OperatorType::kAggregate, OperatorType::kHashJoin, OperatorType::kScan,
      OperatorType::kHashJoin,  OperatorType::kScan,     OperatorType::kScan};
  EXPECT_EQ(shapes[0], expected);
  EXPECT_EQ(shapes[1], expected);
}

/// Worker pinning: with threads=N the aggregate's top pipeline and every
/// hash-join build must report N parallel workers in their merged
/// OperatorStats, and their pool tasks' CPU in worker_cpu_ns.
TEST(PipelineParallel, BuildsAndTopPipelineRunOnNWorkers) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  constexpr int kThreads = 4;
  ExecutionOptions options;
  options.exec.threads = kThreads;
  options.exec.morsel_rows = 2048;
  const QueryMetrics m = ExecutePlan(plan, options);

  int aggregates = 0, joins = 0;
  for (const OperatorStats& op : m.operators) {
    if (op.type == OperatorType::kAggregate) {
      ++aggregates;
      EXPECT_EQ(op.parallel_workers, kThreads) << op.label;
      EXPECT_GT(op.worker_cpu_ns, 0) << op.label;
    }
    if (op.type == OperatorType::kHashJoin) {
      ++joins;
      EXPECT_EQ(op.parallel_workers, kThreads) << op.label;
    }
    if (op.type == OperatorType::kScan) {
      EXPECT_EQ(op.worker_cpu_ns, 0) << op.label;
    }
  }
  EXPECT_EQ(aggregates, 1);
  EXPECT_EQ(joins, 3);

  // And threads=1 reports everything on one worker, with no pool CPU.
  ExecutionOptions single;
  const QueryMetrics s = ExecutePlan(plan, single);
  for (const OperatorStats& op : s.operators) {
    EXPECT_EQ(op.parallel_workers, 0) << op.label;
    EXPECT_EQ(op.worker_cpu_ns, 0) << op.label;
  }
}

/// Star, snowflake and bushy plans over two filter kinds: the executed
/// operator list — every operator's type, label, plan node, row and probe
/// counters and folded rows — is equal field by field at threads {1,2,4}.
TEST(PipelineParallel, OperatorListEqualAcrossThreadCounts) {
  auto star_db = MakeStarDb(3, 30000, 400, {0.3, 0.6, 0.15}, 377,
                            /*zipf=*/0.6);
  auto star_graph = star_db->Graph();
  ASSERT_TRUE(star_graph.ok());
  auto snow_db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 1234,
                                 /*zipf=*/0.4);
  auto snow_graph = snow_db->Graph();
  ASSERT_TRUE(snow_graph.ok());
  const JoinGraph& g = snow_graph.value();

  struct Case {
    const char* name;
    Plan plan;
  };
  std::vector<Case> cases;
  cases.push_back({"star", BuildRightDeepPlan(star_graph.value(),
                                              {0, 1, 2, 3})});
  cases.push_back({"snowflake", BuildRightDeepPlan(g, {0, 1, 2, 3, 4})});
  Plan bushy;
  bushy.graph = &g;
  auto branch0 = MakeJoin(g, MakeLeaf(g, 2), MakeLeaf(g, 1));
  auto branch1 = MakeJoin(g, MakeLeaf(g, 4), MakeLeaf(g, 3));
  auto inner = MakeJoin(g, std::move(branch1), MakeLeaf(g, 0));
  bushy.root = MakeJoin(g, std::move(branch0), std::move(inner));
  ASSERT_NE(bushy.root, nullptr);
  bushy.Renumber();
  ASSERT_TRUE(bushy.Validate());
  cases.push_back({"bushy", std::move(bushy)});

  for (Case& c : cases) {
    PushDownBitvectors(&c.plan);
    for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
      ExecutionOptions options;
      options.filter_config.kind = kind;
      options.agg.kind = AggKind::kSum;
      options.agg.sum_column = BoundColumn{0, "measure"};
      const QueryMetrics base = ExecutePlan(c.plan, options);
      ASSERT_GT(base.join_tuples, 0) << c.name;
      for (int threads : {2, 4}) {
        ExecutionOptions parallel = options;
        parallel.exec.threads = threads;
        parallel.exec.morsel_rows = 1024;
        const QueryMetrics m = ExecutePlan(c.plan, parallel);
        const std::string what = std::string(c.name) + " " +
                                 FilterKindName(kind) +
                                 " threads=" + std::to_string(threads);
        ExpectRunsEqual(base, m, what);
        ASSERT_EQ(m.operators.size(), base.operators.size()) << what;
        for (size_t i = 0; i < m.operators.size(); ++i) {
          const OperatorStats& a = base.operators[i];
          const OperatorStats& b = m.operators[i];
          const std::string at = what + " operator " + std::to_string(i);
          EXPECT_EQ(b.type, a.type) << at;
          EXPECT_EQ(b.label, a.label) << at;
          EXPECT_EQ(b.plan_node_id, a.plan_node_id) << at;
          EXPECT_EQ(b.rows_out, a.rows_out) << at;
          EXPECT_EQ(b.rows_prefilter, a.rows_prefilter) << at;
          EXPECT_EQ(b.probe_rows_in, a.probe_rows_in) << at;
          EXPECT_EQ(b.probe_rows_matched, a.probe_rows_matched) << at;
          EXPECT_EQ(b.agg_rows_folded, a.agg_rows_folded) << at;
        }
      }
    }
  }
}

/// FillFilterParallel parity: per-worker partials + MergeFrom must
/// reproduce the sequential fill — membership set and NumInserted — for
/// every kind, on a key stream large enough to take the parallel path and
/// salted with duplicates spanning partition boundaries.
TEST(PipelineParallel, FillFilterParallelMatchesSequential) {
  Rng rng(4242);
  constexpr int64_t kKeys = 60000;
  std::vector<uint64_t> hashes;
  hashes.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    // ~25% duplicates, many landing in other workers' partitions.
    if (i % 4 == 3) {
      hashes.push_back(hashes[static_cast<size_t>(rng.Next() %
                                                  static_cast<uint64_t>(i))]);
    } else {
      hashes.push_back(rng.Next());
    }
  }

  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    FilterConfig config;
    config.kind = kind;
    auto sequential = CreateFilter(config, kKeys);
    for (uint64_t h : hashes) sequential->Insert(h);

    auto parallel = CreateFilter(config, kKeys);
    ExecConfig exec;
    exec.threads = 4;
    FillFilterParallel(parallel.get(), config, hashes.data(), kKeys, exec);

    EXPECT_EQ(parallel->NumInserted(), sequential->NumInserted())
        << FilterKindName(kind);
    for (uint64_t h : hashes) {
      ASSERT_TRUE(parallel->MayContain(h)) << FilterKindName(kind);
    }
    // Bit-identical rejection behavior, sampled.
    for (int i = 0; i < 50000; ++i) {
      const uint64_t h = rng.Next();
      ASSERT_EQ(parallel->MayContain(h), sequential->MayContain(h))
          << FilterKindName(kind);
    }
  }
}

// ---- Aggregate parity: per-worker partial folds ----

/// The aggregate's own accessors after a full run of the compiled plan.
struct AggRun {
  uint64_t checksum = 0;
  int64_t num_groups = 0;
  int64_t total = 0;
  int64_t rows_out = 0;     ///< result rows (the aggregate's rows_out)
  int64_t rows_folded = 0;  ///< aggregate input rows (agg_rows_folded)
};

AggRun RunAggregate(const Plan& plan, const ExecutionOptions& options) {
  FilterRuntime runtime;
  auto agg = CompilePlan(plan, options, &runtime);
  agg->Open();
  agg->Close();
  AggRun r;
  r.rows_out = agg->stats().rows_out;
  r.checksum = agg->ResultChecksum();
  r.num_groups = agg->NumGroups();
  r.total = agg->TotalValue();
  r.rows_folded = agg->stats().agg_rows_folded;
  return r;
}

/// Sweep `options.agg` over {1,2,4} workers and pin every aggregate
/// accessor — checksum, group count, total, result rows, and the merged
/// per-worker input-row counter — to the threads == 1 values.
void ExpectAggParity(const Plan& plan, ExecutionOptions options,
                     const std::string& what) {
  options.exec.threads = 1;
  const AggRun base = RunAggregate(plan, options);
  for (int threads : {2, 4}) {
    options.exec.threads = threads;
    options.exec.morsel_rows = 1024;
    const AggRun r = RunAggregate(plan, options);
    const std::string label = what + " threads=" + std::to_string(threads);
    EXPECT_EQ(r.checksum, base.checksum) << label;
    EXPECT_EQ(r.num_groups, base.num_groups) << label;
    EXPECT_EQ(r.total, base.total) << label;
    EXPECT_EQ(r.rows_out, base.rows_out) << label;
    EXPECT_EQ(r.rows_folded, base.rows_folded) << label;
  }
}

ExecutionOptions GroupedSumOptions(FilterKind kind) {
  ExecutionOptions options;
  options.filter_config.kind = kind;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "d0_id"};
  return options;
}

/// Grouped SUM and both ungrouped kinds over a star plan: the merged
/// partial aggregates must reproduce the single-threaded fold exactly.
TEST(PipelineParallelAgg, StarGroupedAndUngroupedParity) {
  auto db = MakeStarDb(3, 30000, 400, {0.3, 0.6, 0.15}, 177, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    ExecutionOptions grouped = GroupedSumOptions(kind);
    {
      ExecutionOptions check = grouped;
      check.exec.threads = 1;
      const AggRun base = RunAggregate(plan, check);
      ASSERT_GT(base.num_groups, 1) << "grouped result expected";
      ASSERT_GT(base.total, 0);
    }
    ExpectAggParity(plan, grouped,
                    std::string("star grouped ") + FilterKindName(kind));

    ExecutionOptions count;
    count.filter_config.kind = kind;
    ExpectAggParity(plan, count,
                    std::string("star count ") + FilterKindName(kind));

    ExecutionOptions sum;
    sum.filter_config.kind = kind;
    sum.agg.kind = AggKind::kSum;
    sum.agg.sum_column = BoundColumn{0, "measure"};
    ExpectAggParity(plan, sum,
                    std::string("star sum ") + FilterKindName(kind));
  }
}

/// Snowflake plan, grouped on a branch relation's key.
TEST(PipelineParallelAgg, SnowflakeGroupedParity) {
  auto db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 2334,
                            /*zipf=*/0.4);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3, 4});
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "b0_1_id"};
  ExpectAggParity(plan, options, "snowflake grouped");
}

/// Bushy plan: the top probe chain carries two joins and the root build is
/// itself a join; the per-worker folds must still match.
TEST(PipelineParallelAgg, BushyGroupedParity) {
  auto db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 5321,
                            /*zipf=*/0.4);
  auto graph_or = db->Graph();
  ASSERT_TRUE(graph_or.ok());
  const JoinGraph& g = graph_or.value();

  Plan plan;
  plan.graph = &g;
  auto branch0 = MakeJoin(g, MakeLeaf(g, 2), MakeLeaf(g, 1));
  ASSERT_NE(branch0, nullptr);
  auto branch1 = MakeJoin(g, MakeLeaf(g, 4), MakeLeaf(g, 3));
  ASSERT_NE(branch1, nullptr);
  auto inner = MakeJoin(g, std::move(branch1), MakeLeaf(g, 0));
  ASSERT_NE(inner, nullptr);
  plan.root = MakeJoin(g, std::move(branch0), std::move(inner));
  ASSERT_NE(plan.root, nullptr);
  plan.Renumber();
  ASSERT_TRUE(plan.Validate());
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "b0_1_id"};
  ExpectAggParity(plan, options, "bushy grouped");
}

/// Empty result: a predicate nothing passes. Zero groups, zero total, zero
/// result rows — at every thread count.
TEST(PipelineParallelAgg, EmptyResultGroupedParity) {
  auto db = MakeStarDb(1, 1000, 50, {0.0}, 907);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions options = GroupedSumOptions(FilterKind::kExact);
  {
    ExecutionOptions check = options;
    const AggRun base = RunAggregate(plan, check);
    ASSERT_EQ(base.num_groups, 0);
    ASSERT_EQ(base.total, 0);
    ASSERT_EQ(base.rows_out, 0);
  }
  ExpectAggParity(plan, options, "empty grouped");
}

/// Single group: the dimension is pinned to one row by an equality
/// predicate and the query groups by its key, so every worker's partial
/// lands in the same group and the sink merge collapses them to one.
TEST(PipelineParallelAgg, SingleGroupParity) {
  auto db = MakeStarDb(1, 20000, 50, {-1.0}, 412);
  db->spec.relations[1].predicate = Eq("d0_id", 7);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions options = GroupedSumOptions(FilterKind::kExact);
  {
    const AggRun base = RunAggregate(plan, options);
    ASSERT_EQ(base.num_groups, 1);
    ASSERT_GT(base.total, 0);
  }
  ExpectAggParity(plan, options, "single group");
}

/// Compiled shape and merged counters of the per-worker folds: with
/// threads > 1 the aggregate's child is still the plan's root join, the
/// merged agg_rows_folded equals the one-worker aggregate input, and the
/// partial group count is at least the final one (and equals it on one
/// worker).
TEST(PipelineParallelAgg, PreAggShapeAndCounters) {
  auto db = MakeStarDb(2, 20000, 300, {0.4, 0.5}, 88, /*zipf=*/0.5);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  PushDownBitvectors(&plan);

  ExecutionOptions options = GroupedSumOptions(FilterKind::kBlockedBloom);
  {
    FilterRuntime runtime;
    options.exec.threads = 4;
    auto agg = CompilePlan(plan, options, &runtime);
    ASSERT_EQ(agg->children().size(), 1u);
    EXPECT_EQ(agg->children()[0]->stats().type, OperatorType::kHashJoin);
  }

  options.exec.threads = 1;
  const QueryMetrics base = ExecutePlan(plan, options);
  int64_t base_folded = 0;
  for (const OperatorStats& op : base.operators) {
    if (op.type == OperatorType::kAggregate) {
      base_folded = op.agg_rows_folded;
      EXPECT_EQ(op.agg_partial_groups, base.result_rows);
    }
  }
  ASSERT_GT(base_folded, 0);

  options.exec.threads = 4;
  options.exec.morsel_rows = 1024;
  const QueryMetrics m = ExecutePlan(plan, options);
  const int64_t final_groups = m.result_rows;
  for (const OperatorStats& op : m.operators) {
    if (op.type == OperatorType::kAggregate) {
      EXPECT_EQ(op.agg_rows_folded, base_folded);
      EXPECT_GE(op.agg_partial_groups, final_groups);
    }
  }
  EXPECT_EQ(m.result_checksum, base.result_checksum);
}

/// Degenerate shapes must not hang or skew: more workers than morsels, one
/// morsel spanning everything, and an empty probe side.
TEST(PipelineParallel, DegenerateShapes) {
  auto db = MakeStarDb(1, 300, 50, {0.5}, 99);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions single;
  const QueryMetrics base = ExecutePlan(plan, single);

  ExecutionOptions parallel;
  parallel.exec.threads = 8;           // far more workers than morsels
  parallel.exec.morsel_rows = 100000;  // one morsel takes everything
  const QueryMetrics m = ExecutePlan(plan, parallel);
  ExpectRunsEqual(base, m, "degenerate");

  // Empty probe side: a predicate nothing passes.
  auto empty_db = MakeStarDb(1, 1000, 50, {0.0}, 7);
  auto empty_graph = empty_db->Graph();
  ASSERT_TRUE(empty_graph.ok());
  Plan empty_plan = BuildRightDeepPlan(empty_graph.value(), {0, 1});
  PushDownBitvectors(&empty_plan);
  ExecutionOptions par;
  par.exec.threads = 4;
  const QueryMetrics e = ExecutePlan(empty_plan, par);
  const QueryMetrics e1 = ExecutePlan(empty_plan, single);
  EXPECT_EQ(e.result_checksum, e1.result_checksum);
  EXPECT_EQ(e.join_tuples, e1.join_tuples);
}

}  // namespace
}  // namespace bqo
