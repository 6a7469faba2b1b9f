#include "src/exec/executor.h"

#include <algorithm>
#include <chrono>

#include "src/common/bit_util.h"
#include "src/common/string_util.h"
#include "src/common/thread_clock.h"
#include "src/exec/hash_join.h"
#include "src/exec/scan.h"
#include "src/server/worker_pool.h"

namespace bqo {

namespace {

/// Key columns of a filter or join edge, in the canonical (sorted-edge,
/// declared-column) order also used by MakeFilterFor in pushdown.cc. The
/// build and probe sequences are pairwise aligned so composite hashes match.
struct KeyColumns {
  std::vector<ColumnRef> build;
  std::vector<ColumnRef> probe;
};

/// `graph`'s join column `cid`, resolved at bind (JoinGraph::AddEdge).
ColumnRef JoinColumn(const JoinGraph& graph, int cid) {
  const ColumnRef ref = graph.column(cid).ref();
  BQO_CHECK_MSG(ref.col >= 0, "join column missing from its table");
  return ref;
}

KeyColumns JoinKeyColumns(const Plan& plan, const PlanNode& join) {
  const JoinGraph& graph = *plan.graph;
  KeyColumns keys;
  std::vector<int> edge_ids = join.edge_ids;
  std::sort(edge_ids.begin(), edge_ids.end());
  for (int eid : edge_ids) {
    const JoinEdge& e = graph.edge(eid);
    const bool left_in_build = RelSetContains(join.build->rel_set, e.left);
    for (size_t i = 0; i < e.left_col_ids.size(); ++i) {
      const ColumnRef l = JoinColumn(graph, e.left_col_ids[i]);
      const ColumnRef r = JoinColumn(graph, e.right_col_ids[i]);
      keys.build.push_back(left_in_build ? l : r);
      keys.probe.push_back(left_in_build ? r : l);
    }
  }
  return keys;
}

bool FilterActive(const Plan& plan, int filter_id,
                  const ExecutionOptions& options) {
  return options.use_bitvectors &&
         !plan.filters[static_cast<size_t>(filter_id)].pruned;
}

/// Compile `node`'s subtree producing `required`. `top_spine`: the node
/// lies on the aggregate's top probe pipeline (the root and, below it,
/// probe children only), where joins may count their matches.
std::unique_ptr<PhysicalOperator> CompileNode(
    const Plan& plan, const PlanNode& node,
    const std::vector<ColumnRef>& required, FilterRuntime* runtime,
    const ExecutionOptions& options, bool top_spine) {
  const JoinGraph& graph = *plan.graph;

  if (node.kind == PlanNode::Kind::kLeaf) {
    const RelationRef& rel = graph.relation(node.relation);
    BQO_CHECK_MSG(rel.table != nullptr, "execution requires bound tables");
    std::vector<ResolvedFilter> filters;
    for (int fid : node.applied_filters) {
      if (!FilterActive(plan, fid, options)) continue;
      const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
      ResolvedFilter rf;
      rf.filter_id = fid;
      BQO_CHECK_LE(f.probe_col_ids.size(), size_t{8});
      for (int cid : f.probe_col_ids) {
        const ColumnRef c = JoinColumn(graph, cid);
        BQO_CHECK_EQ(c.rel, node.relation);
        rf.key_positions.push_back(c.col);
      }
      filters.push_back(std::move(rf));
    }
    auto op = std::make_unique<ScanOperator>(
        rel.table, rel.predicate, rel.selection, OutputSchema(required),
        std::move(filters), runtime, "scan " + rel.alias);
    op->stats().plan_node_id = node.id;
    // Leaves compile bare: parallelism is applied per *pipeline*, not per
    // leaf — a build-side scan is drained by the hash join above it, and
    // the topmost probe chain by the aggregate.
    return op;
  }

  // ---- Join node ----
  const KeyColumns keys = JoinKeyColumns(plan, node);

  // Residual filter probe columns must appear in this join's output.
  std::vector<ColumnRef> self_required = required;
  std::vector<int> active_residuals;
  for (int fid : node.applied_filters) {
    if (!FilterActive(plan, fid, options)) continue;
    active_residuals.push_back(fid);
    const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
    for (int cid : f.probe_col_ids) {
      self_required.push_back(JoinColumn(graph, cid));
    }
  }
  OutputSchema out_schema(std::move(self_required));

  // Children must additionally produce the join key columns.
  std::vector<ColumnRef> build_req = keys.build;
  std::vector<ColumnRef> probe_req = keys.probe;
  for (const ColumnRef& c : out_schema.cols()) {
    if (RelSetContains(node.build->rel_set, c.rel)) {
      build_req.push_back(c);
    } else {
      probe_req.push_back(c);
    }
  }

  auto build_op = CompileNode(plan, *node.build, build_req, runtime, options,
                              /*top_spine=*/false);
  auto probe_op =
      CompileNode(plan, *node.probe, probe_req, runtime, options, top_spine);
  const OutputSchema& build_schema = build_op->output_schema();
  const OutputSchema& probe_schema = probe_op->output_schema();

  HashJoinOperator::Config config;
  config.filter_config = options.filter_config;
  config.exec = options.exec;
  for (size_t i = 0; i < keys.build.size(); ++i) {
    const int bpos = build_schema.PositionOf(keys.build[i]);
    const int ppos = probe_schema.PositionOf(keys.probe[i]);
    BQO_CHECK(bpos >= 0 && ppos >= 0);
    config.build_key_positions.push_back(bpos);
    config.probe_key_positions.push_back(ppos);
  }
  for (const ColumnRef& c : out_schema.cols()) {
    const int bpos = build_schema.PositionOf(c);
    if (bpos >= 0) {
      config.output_sources.emplace_back(true, bpos);
    } else {
      const int ppos = probe_schema.PositionOf(c);
      BQO_CHECK(ppos >= 0);
      config.output_sources.emplace_back(false, ppos);
    }
  }
  // A top-pipeline join whose output takes nothing from its build side
  // would only repeat each probe row once per match for the aggregate to
  // add up: it emits the row once with its match count instead.
  config.counts_matches =
      top_spine && std::none_of(config.output_sources.begin(),
                                config.output_sources.end(),
                                [](const auto& src) { return src.first; });
  if (node.created_filter >= 0 &&
      FilterActive(plan, node.created_filter, options)) {
    config.creates_filter_id = node.created_filter;
  }
  for (int fid : active_residuals) {
    const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
    ResolvedFilter rf;
    rf.filter_id = fid;
    BQO_CHECK_LE(f.probe_col_ids.size(), size_t{8});
    for (int cid : f.probe_col_ids) {
      const int pos = out_schema.PositionOf(JoinColumn(graph, cid));
      BQO_CHECK(pos >= 0);
      rf.key_positions.push_back(pos);
    }
    config.residual_filters.push_back(std::move(rf));
  }

  std::string label = "HJ#";
  AppendInt(node.id, &label);
  auto op = std::make_unique<HashJoinOperator>(
      std::move(build_op), std::move(probe_op), std::move(out_schema),
      std::move(config), runtime, std::move(label));
  op->stats().plan_node_id = node.id;
  return op;
}

/// `column` of an aggregate spec with its table index resolved against the
/// relation it names.
BoundColumn ResolveAggColumn(const JoinGraph& graph, BoundColumn column,
                             const char* what) {
  BQO_CHECK_MSG(column.rel >= 0 && column.rel < graph.num_relations(), what);
  const Table* table = graph.relation(column.rel).table;
  BQO_CHECK_MSG(table != nullptr, "execution requires bound tables");
  column.index = table->ColumnIndex(column.column);
  BQO_CHECK_MSG(column.index >= 0, what);
  return column;
}

void CollectStats(PhysicalOperator* op, QueryMetrics* metrics) {
  int64_t child_ns = 0;
  for (PhysicalOperator* child : op->children()) {
    CollectStats(child, metrics);
    child_ns += child->stats().ns_inclusive;
  }
  OperatorStats stats = op->stats();
  stats.ns_self = stats.ns_inclusive - child_ns;
  switch (stats.type) {
    case OperatorType::kScan:
      metrics->leaf_tuples += stats.rows_out;
      break;
    case OperatorType::kHashJoin:
      // Logical tuples, which counting joins can multiply past INT64_MAX:
      // they add modulo 2^64 (metrics.h).
      AddWrapping(&metrics->join_tuples,
                  static_cast<uint64_t>(stats.rows_out));
      break;
    case OperatorType::kAggregate:
      metrics->other_tuples += stats.rows_out;
      break;
  }
  metrics->operators.push_back(std::move(stats));
}

/// Synthesize the per-operator aggregate spans (trace.h) from the merged
/// operator counters, mirroring the operator tree under `parent`. Post-hoc
/// by design: the counters follow the accumulate/merge-once discipline, so
/// the resulting subtree is identical at every pool size and thread count's
/// worth of live spans would not be.
void AddOperatorSpans(PhysicalOperator* op, int parent, QueryTrace* trace) {
  const OperatorStats& s = op->stats();
  const int id = trace->AddCompletedSpan(
      SpanKind::kOperator, s.label.empty() ? "aggregate" : s.label, parent,
      s.ns_inclusive, /*cpu_ns=*/0, s.worker_cpu_ns);
  for (PhysicalOperator* child : op->children()) {
    AddOperatorSpans(child, id, trace);
  }
}

}  // namespace

std::unique_ptr<AggregateOperator> CompilePlan(
    const Plan& plan, const ExecutionOptions& options,
    FilterRuntime* runtime) {
  BQO_CHECK(plan.Validate());
  BQO_CHECK(!plan.nodes.empty());
  runtime->slots.resize(plan.filters.size());
  runtime->stats.assign(plan.filters.size(), FilterStats{});
  for (size_t i = 0; i < plan.filters.size(); ++i) {
    runtime->stats[i].filter_id = static_cast<int>(i);
  }

  // The aggregate's columns are the only names left to resolve: join and
  // filter columns carry their table indices from bind.
  AggSpec agg = options.agg;
  std::vector<ColumnRef> required;
  if (agg.kind == AggKind::kSum) {
    agg.sum_column = ResolveAggColumn(*plan.graph, agg.sum_column,
                                      "SUM column missing from its table");
    required.push_back(agg.sum_column.ref());
  }
  if (agg.has_group_by) {
    agg.group_column = ResolveAggColumn(
        *plan.graph, agg.group_column, "GROUP BY column missing from its table");
    required.push_back(agg.group_column.ref());
  }
  auto root = CompileNode(plan, *plan.root, required, runtime, options,
                          /*top_spine=*/true);
  // One plan at every thread count: the aggregate drives the topmost probe
  // pipeline (scan -> probe -> ... -> probe) and every hash join its build
  // pipeline, each on options.exec's workers (pipeline.h).
  return std::make_unique<AggregateOperator>(std::move(root), agg,
                                             options.exec);
}

QueryMetrics ExecutePlan(const Plan& plan, const ExecutionOptions& options) {
  FilterRuntime runtime;
  // Every execution runs under a context: the caller's (cancellable,
  // deadline-able) or a private one, so injected faults and internal
  // first-error propagation behave identically either way.
  QueryContext local_context;
  runtime.context =
      options.context != nullptr ? options.context : &local_context;
  runtime.build_cache = options.build_cache;
  runtime.catalog_version = options.catalog_version;
  auto agg = CompilePlan(plan, options, &runtime);

  // Execute span: Open..Close as the driver saw it. Build spans opened by
  // hash joins during Open() nest under it via the trace's span stack.
  QueryTrace* trace = CtxTrace(runtime.context);
  ScopedSpan exec_span(trace, SpanKind::kExecute, "execute");
  const auto start = std::chrono::steady_clock::now();
  const int64_t cpu_start = ThreadCpuNanos();
  const int64_t inline_start = WorkerPool::InlineTaskCpuNanos();
  agg->Open();
  agg->Close();
  const auto end = std::chrono::steady_clock::now();
  exec_span.End();
  // Driver CPU, minus task time the driver ran inline while helping the
  // pool (those tasks report their own CPU into worker_cpu_ns — counting
  // them here too would double-bill the query).
  const int64_t driver_cpu_ns =
      (ThreadCpuNanos() - cpu_start) -
      (WorkerPool::InlineTaskCpuNanos() - inline_start);

  QueryMetrics metrics;
  metrics.total_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  metrics.result_rows = agg->stats().rows_out;
  metrics.result_checksum = agg->ResultChecksum();
  CollectStats(agg.get(), &metrics);
  metrics.filters = runtime.stats;
  // The query's own task time: driver CPU plus every pool task's CPU
  // (merged into the breakers' worker_cpu_ns). Parallel filter fills
  // (FillFilterParallel partials) carry no per-worker stats and are not
  // included; their work is bounded by the build-side inserts.
  metrics.cpu_ns = driver_cpu_ns;
  for (const OperatorStats& op : metrics.operators) {
    metrics.cpu_ns += op.worker_cpu_ns;
  }
  if (trace != nullptr) {
    // Fold the pool-worker CPU into the execute span (merge-once, after the
    // workers joined) and mirror the operator tree as completed spans.
    trace->AddWorkerCpu(exec_span.id(),
                        metrics.cpu_ns - driver_cpu_ns);
    AddOperatorSpans(agg.get(), exec_span.id(), trace);
  }
  return metrics;
}

}  // namespace bqo
