#include "src/obs/explain.h"

#include <algorithm>
#include <utility>

#include "src/common/string_util.h"
#include "src/optimizer/cost_model.h"

namespace bqo {

namespace {

/// Executed stats for plan node `id`, matched by id + operator type. Null
/// when the node never executed (e.g. the query unwound first).
const OperatorStats* FindNodeStats(const QueryMetrics& metrics, int id,
                                   bool is_leaf) {
  const OperatorType want =
      is_leaf ? OperatorType::kScan : OperatorType::kHashJoin;
  for (const OperatorStats& op : metrics.operators) {
    if (op.plan_node_id == id && op.type == want) return &op;
  }
  return nullptr;
}

double EstimateAt(const std::vector<double>& v, int id) {
  return id >= 0 && static_cast<size_t>(id) < v.size()
             ? v[static_cast<size_t>(id)]
             : 0.0;
}

void WalkNode(const Plan& plan, const PlanNode& node, int depth,
              const QueryMetrics& metrics, const CoutBreakdown& estimates,
              ExplainReport* report) {
  OperatorExplainRow row;
  row.node_id = node.id;
  row.depth = depth;
  row.is_leaf = node.IsLeaf();
  row.est_rows = EstimateAt(estimates.node_output, node.id);
  row.est_prefilter = EstimateAt(estimates.node_prefilter, node.id);
  if (const OperatorStats* op =
          FindNodeStats(metrics, node.id, node.IsLeaf())) {
    row.label = op->label;
    row.actual_rows = op->rows_out;
    row.actual_prefilter = op->rows_prefilter;
    row.actual_emitted = op->rows_emitted;
    row.ns_inclusive = op->ns_inclusive;
    row.ns_self = op->ns_self;
    row.worker_cpu_ns = op->worker_cpu_ns;
    row.parallel_workers = op->parallel_workers;
    if (metrics.total_ns > 0) {
      row.time_share = std::max<double>(0, static_cast<double>(op->ns_self)) /
                       static_cast<double>(metrics.total_ns);
    }
  } else {
    row.label = node.IsLeaf()
                    ? "scan " + plan.graph->relation(node.relation).alias
                    : StringFormat("join#%d", node.id);
  }
  report->operators.push_back(std::move(row));
  if (!node.IsLeaf()) {
    WalkNode(plan, *node.build, depth + 1, metrics, estimates, report);
    WalkNode(plan, *node.probe, depth + 1, metrics, estimates, report);
  }
}

}  // namespace

ExplainReport BuildExplainReport(const Plan& plan,
                                 const QueryMetrics& metrics,
                                 const CoutBreakdown& estimates,
                                 const FilterConfig& filter_config,
                                 const QueryTrace* trace) {
  ExplainReport report;
  report.total_ns = metrics.total_ns;
  report.cpu_ns = metrics.cpu_ns;
  report.result_rows = metrics.result_rows;
  report.estimated_cost = estimates.total;
  if (plan.root != nullptr) {
    WalkNode(plan, *plan.root, 0, metrics, estimates, &report);
  }

  for (const PlanFilter& f : plan.filters) {
    FilterExplainRow row;
    row.filter_id = f.id;
    row.source_join = f.source_join;
    row.applied_at = f.applied_at;
    row.pruned = f.pruned;
    row.est_lambda = f.estimated_lambda;
    const FilterStats* fs = nullptr;
    for (const FilterStats& s : metrics.filters) {
      if (s.filter_id == f.id) {
        fs = &s;
        break;
      }
    }
    if (f.pruned || fs == nullptr || !fs->created) {
      row.kind = "pruned";
      report.filters.push_back(std::move(row));
      continue;
    }
    row.created = true;
    row.kind = FilterKindName(filter_config.kind);
    row.observed_lambda = fs->ObservedLambda();
    row.modeled_fpr = EstimatedFilterFpr(filter_config.kind,
                                         filter_config.bloom_bits_per_key);
    row.inserted = fs->inserted;
    row.probed = fs->probed;
    row.passed = fs->passed;
    row.size_bytes = fs->size_bytes;
    // Measured FPR from the creating join's match accounting (see the
    // header comment): leaked = non-matching probe rows that reached it,
    // rejected = what the filter eliminated below.
    if (const OperatorStats* join =
            FindNodeStats(metrics, f.source_join, /*is_leaf=*/false)) {
      const int64_t leaked = join->probe_rows_in - join->probe_rows_matched;
      const int64_t rejected = fs->probed - fs->passed;
      if (join->probe_rows_in > 0 && leaked + rejected > 0) {
        row.measured_fpr = static_cast<double>(leaked) /
                           static_cast<double>(leaked + rejected);
        row.has_measured_fpr = true;
      }
    }
    report.filters.push_back(std::move(row));
  }

  if (trace != nullptr) report.spans = trace->spans();
  return report;
}

std::string RenderExplainAnalyze(const ExplainReport& report) {
  std::string out = StringFormat(
      "EXPLAIN ANALYZE %s  (status %s, wall %.3f ms, cpu %.3f ms, "
      "rows %lld, estimated Cout %.1f)\n",
      report.query_name.c_str(), report.status.c_str(),
      static_cast<double>(report.total_ns) / 1e6,
      static_cast<double>(report.cpu_ns) / 1e6,
      static_cast<long long>(report.result_rows), report.estimated_cost);

  out += StringFormat("%-34s %12s %12s %12s %12s %9s %7s\n", "operator",
                      "est rows", "actual rows", "est pre", "actual pre",
                      "self ms", "share");
  for (const OperatorExplainRow& op : report.operators) {
    std::string label(static_cast<size_t>(op.depth) * 2, ' ');
    label += op.label;
    out += StringFormat(
        "%-34s %12.1f %12lld %12.1f %12lld %9.3f %6.1f%%",
        label.c_str(), op.est_rows, static_cast<long long>(op.actual_rows),
        op.est_prefilter, static_cast<long long>(op.actual_prefilter),
        static_cast<double>(std::max<int64_t>(0, op.ns_self)) / 1e6,
        op.time_share * 100.0);
    if (!op.is_leaf && op.actual_emitted != op.actual_rows) {
      out += StringFormat(" [emitted %lld rows]",
                          static_cast<long long>(op.actual_emitted));
    }
    if (op.parallel_workers > 0) {
      out += StringFormat(" [%d workers, worker cpu %.3f ms]",
                          op.parallel_workers,
                          static_cast<double>(op.worker_cpu_ns) / 1e6);
    }
    out += "\n";
  }

  for (const FilterExplainRow& f : report.filters) {
    if (!f.created) {
      out += StringFormat("filter f%d: %s\n", f.filter_id, f.kind.c_str());
      continue;
    }
    out += StringFormat(
        "filter f%d (%s, from join#%d @node#%d): est lambda %.4f observed "
        "lambda %.4f | modeled FPR %.5f measured FPR %s | inserted %lld "
        "probed %lld passed %lld (%lld bytes)\n",
        f.filter_id, f.kind.c_str(), f.source_join, f.applied_at,
        f.est_lambda, f.observed_lambda, f.modeled_fpr,
        f.has_measured_fpr ? StringFormat("%.5f", f.measured_fpr).c_str()
                           : "n/a",
        static_cast<long long>(f.inserted),
        static_cast<long long>(f.probed), static_cast<long long>(f.passed),
        static_cast<long long>(f.size_bytes));
  }

  if (!report.spans.empty()) {
    out += "trace:\n";
    out += RenderSpans(report.spans);
  }
  return out;
}

}  // namespace bqo
