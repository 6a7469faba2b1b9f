#include "src/exec/exact_cost.h"

#include "src/exec/executor.h"

namespace bqo {

CoutBreakdown ExactCoutModel::Compute(const Plan& plan) {
  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kExact;
  options.use_bitvectors = true;

  const QueryMetrics metrics = ExecutePlan(plan, options);

  CoutBreakdown out;
  out.node_output.assign(plan.nodes.size(), 0.0);
  out.node_prefilter.assign(plan.nodes.size(), 0.0);
  out.filter_lambda.assign(plan.filters.size(), 0.0);
  for (const OperatorStats& op : metrics.operators) {
    if (op.type == OperatorType::kAggregate) continue;
    BQO_CHECK(op.plan_node_id >= 0 &&
              static_cast<size_t>(op.plan_node_id) < plan.nodes.size());
    out.node_output[static_cast<size_t>(op.plan_node_id)] =
        static_cast<double>(op.rows_out);
    out.node_prefilter[static_cast<size_t>(op.plan_node_id)] =
        static_cast<double>(op.rows_prefilter);
    out.total += static_cast<double>(op.rows_out);
  }
  for (const FilterStats& fs : metrics.filters) {
    if (fs.filter_id >= 0 &&
        static_cast<size_t>(fs.filter_id) < out.filter_lambda.size()) {
      out.filter_lambda[static_cast<size_t>(fs.filter_id)] =
          fs.ObservedLambda();
    }
  }
  return out;
}

}  // namespace bqo
