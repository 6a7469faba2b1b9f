// Optimizer facade: the end-to-end optimize pipeline under each of the
// paper's integration options (Section 6.4) plus the baselines the
// evaluation compares against.
#pragma once

#include <string>

#include "src/optimizer/bqo.h"
#include "src/optimizer/cost_model.h"
#include "src/plan/cout.h"
#include "src/stats/estimated_cost.h"
#include "src/stats/table_stats.h"

namespace bqo {

enum class OptimizerMode {
  /// DP join ordering blind to bitvector filters, then Algorithm 1 as a
  /// post-processing step — the "original Microsoft SQL Server" baseline.
  kBaselinePostProcess = 0,
  /// Same join order as the baseline but bitvector filters disabled
  /// entirely (Table 4's "plan without bitvector filters").
  kNoBitvectors,
  /// Shallow integration (the paper's implementation): Algorithm 3 orders
  /// the snowflake, further join reordering on it is disabled.
  kBqoShallow,
  /// Alternative-plan integration: cost the baseline plan and the BQO plan
  /// with the bitvector-aware model, keep the cheaper one.
  kAlternativePlan,
  /// Full integration via exhaustive right-deep enumeration with
  /// bitvector-aware costing (ablation; exponential — small queries only,
  /// falls back to kBqoShallow past `exhaustive_limit` plans).
  kExhaustive,
};

const char* OptimizerModeName(OptimizerMode mode);

struct OptimizerOptions {
  OptimizerMode mode = OptimizerMode::kBqoShallow;
  /// Cost-based bitvector filters (Section 6.3): filters with estimated
  /// elimination below lambda_thresh are pruned. Negative disables pruning.
  double lambda_thresh = 0.05;
  /// Assumed filter false-positive rate inside the cost model.
  double filter_fp_rate = 0.0;
  /// Plan-count cap for kExhaustive.
  size_t exhaustive_limit = 50000;
};

struct OptimizedQuery {
  Plan plan;
  /// Bitvector-aware estimated Cout of the final (pruned) plan.
  double estimated_cost = 0;
  /// Filters removed by cost-based pruning.
  int pruned_filters = 0;
  /// Wall time spent optimizing, for the optimization-overhead ablation.
  int64_t optimize_ns = 0;
};

/// \brief Optimize `graph` under `options`. The result plan is fully
/// annotated (Algorithm 1 push-down done, ineffective filters pruned) and
/// ready for ExecutePlan: OrderJoins, PruneFilters, then the final
/// estimated cost, all costed with one bitvector-aware model.
OptimizedQuery OptimizeQuery(const JoinGraph& graph, StatsCatalog* stats,
                             const OptimizerOptions& options = {});

/// \brief The join order options.mode picks, with Algorithm 1's filters
/// pushed down (cleared under kNoBitvectors) and none pruned yet. `model`
/// is the bitvector-aware model; the baseline modes' filter-blind orderer
/// reads its leaf distinct counts too (dp_optimizer.h).
Plan OrderJoins(const JoinGraph& graph, const OptimizerOptions& options,
                EstimatedCoutModel* model);

/// \brief Cost-based pruning of OrderJoins' filters (a no-op when
/// lambda_thresh < 0 or under kNoBitvectors); returns the number pruned.
int PruneFilters(Plan* plan, const OptimizerOptions& options,
                 EstimatedCoutModel* model);

}  // namespace bqo
