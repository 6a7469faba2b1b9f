// EXPLAIN ANALYZE: post-execution plan annotation — the paper's
// estimate-vs-actual questions answered per operator and per filter.
//
// BuildExplainReport joins three things the engine already produces:
//  * the annotated Plan (join tree, filter placement, optimizer's
//    estimated lambda and chosen filter kind),
//  * a CoutBreakdown from the estimated cost model (per-node estimated
//    output cardinalities — the numbers the optimizer planned with),
//  * the executed QueryMetrics (merged OperatorStats/FilterStats — exact,
//    pool-size-invariant counters).
//
// The report is machine-readable (tests pin estimate-vs-actual columns
// across pool sizes and BuildCache hit/miss); RenderExplainAnalyze turns
// it into the human text, including the query's trace span tree when one
// was collected.
//
// == Measured FPR ==
//
// A bitvector filter cannot observe its own false positives (a probe that
// passes looks identical either way). The join that *created* the filter
// can: a probe row reaching the creating join without matching any build
// row is exactly a tuple the filter admitted but should have rejected.
// With leaked = probe_rows_in - probe_rows_matched at the source join and
// rejected = probed - passed at the filter,
//
//   measured_fpr = leaked / (leaked + rejected)
//
// — the false-positive fraction of the true negatives the filter saw.
// Exact when the filter's application site feeds the source join directly
// (the common Algorithm 1 placement); a lower bound when intermediate
// joins eliminated some leaked rows first. Exact filters measure 0 by
// construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/metrics.h"
#include "src/filter/bitvector_filter.h"
#include "src/obs/trace.h"
#include "src/plan/cout.h"
#include "src/plan/plan.h"

namespace bqo {

/// \brief One plan node's estimate-vs-actual row (preorder; `depth`
/// reproduces the tree shape in the rendering).
struct OperatorExplainRow {
  int node_id = -1;
  int depth = 0;
  bool is_leaf = false;
  std::string label;          ///< executed operator label (scan X / HJ#n)
  double est_rows = 0;        ///< optimizer's output cardinality
  double est_prefilter = 0;   ///< before filters applied at this node
  int64_t actual_rows = 0;
  int64_t actual_prefilter = 0;
  /// Physical rows a join wrote (OperatorStats::rows_emitted); below
  /// actual_rows when the join counted its matches instead of repeating
  /// probe rows. 0 for scans.
  int64_t actual_emitted = 0;
  int64_t ns_inclusive = 0;
  int64_t ns_self = 0;
  int64_t worker_cpu_ns = 0;
  int parallel_workers = 0;
  double time_share = 0;  ///< ns_self / query total_ns (clamped to >= 0)
};

/// \brief One plan filter's estimate-vs-actual row.
struct FilterExplainRow {
  int filter_id = -1;
  int source_join = -1;  ///< plan-node id of the creating join
  int applied_at = -1;   ///< plan-node id whose output it filters
  bool created = false;  ///< false: pruned by cost, or bitvectors off
  bool pruned = false;
  std::string kind;      ///< executed filter kind name, or "pruned"
  double est_lambda = 0;       ///< optimizer estimate (plan annotation)
  double observed_lambda = 0;  ///< FilterStats::ObservedLambda
  double modeled_fpr = 0;      ///< EstimatedFilterFpr at the space budget
  double measured_fpr = 0;     ///< see header comment; valid iff
  bool has_measured_fpr = false;  ///< the source join saw probe traffic
  int64_t inserted = 0;
  int64_t probed = 0;
  int64_t passed = 0;
  int64_t size_bytes = 0;
};

/// \brief The full estimate-vs-actual report for one executed query.
struct ExplainReport {
  std::string query_name;
  std::string status = "OK";
  int64_t total_ns = 0;
  int64_t cpu_ns = 0;
  int64_t result_rows = 0;
  double estimated_cost = 0;  ///< estimates.total (the planned Cout)
  std::vector<OperatorExplainRow> operators;  ///< plan preorder
  std::vector<FilterExplainRow> filters;      ///< by filter id
  /// Span snapshot of the query's trace (empty when tracing was off) —
  /// per-pipeline and per-phase wall/CPU time.
  std::vector<TraceSpan> spans;
};

/// \brief Join plan annotations, cost-model estimates, and executed
/// metrics into one report. `estimates` must come from a CoutModel walk of
/// the same (Renumber()ed) plan; `filter_config` is the execution's filter
/// configuration (kind + space budget — the modeled-FPR inputs).
ExplainReport BuildExplainReport(const Plan& plan,
                                 const QueryMetrics& metrics,
                                 const CoutBreakdown& estimates,
                                 const FilterConfig& filter_config,
                                 const QueryTrace* trace = nullptr);

/// \brief Human-readable EXPLAIN ANALYZE text.
std::string RenderExplainAnalyze(const ExplainReport& report);

}  // namespace bqo
