#include "src/optimizer/optimizer.h"

#include <chrono>
#include <limits>

#include "src/optimizer/bqo.h"
#include "src/optimizer/cost_model.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/plan/enumerate.h"
#include "src/plan/pushdown.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

const char* OptimizerModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kBaselinePostProcess:
      return "baseline-postprocess";
    case OptimizerMode::kNoBitvectors:
      return "no-bitvectors";
    case OptimizerMode::kBqoShallow:
      return "bqo-shallow";
    case OptimizerMode::kAlternativePlan:
      return "bqo-alternative-plan";
    case OptimizerMode::kExhaustive:
      return "exhaustive-bitvector-aware";
  }
  return "unknown";
}

namespace {

Plan ExhaustiveBitvectorAware(const JoinGraph& graph, CoutModel* model,
                              size_t limit) {
  if (CountRightDeepOrders(graph, limit + 1) > limit) {
    return OptimizeBqo(graph, model);
  }
  Plan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& order : EnumerateRightDeepOrders(graph)) {
    Plan plan = BuildRightDeepPlan(graph, order);
    PushDownBitvectors(&plan);
    const double cost = model->Cout(plan);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(plan);
    }
  }
  return best;
}

}  // namespace

Plan OrderJoins(const JoinGraph& graph, const OptimizerOptions& options,
                EstimatedCoutModel* model) {
  Plan plan;
  switch (options.mode) {
    case OptimizerMode::kBaselinePostProcess:
    case OptimizerMode::kNoBitvectors: {
      // Join order chosen blind to filters; Algorithm 1 as post-processing.
      plan = OptimizeDpBaseline(graph, model);
      break;
    }
    case OptimizerMode::kBqoShallow: {
      plan = OptimizeBqo(graph, model);
      break;
    }
    case OptimizerMode::kAlternativePlan: {
      Plan blind_plan = OptimizeDpBaseline(graph, model);
      PushDownBitvectors(&blind_plan);
      const double baseline_cost = model->Cout(blind_plan);
      Plan bqo = OptimizeBqo(graph, model);
      PushDownBitvectors(&bqo);
      const double bqo_cost = model->Cout(bqo);
      plan = bqo_cost <= baseline_cost ? std::move(bqo) : std::move(blind_plan);
      break;
    }
    case OptimizerMode::kExhaustive: {
      plan = ExhaustiveBitvectorAware(graph, model, options.exhaustive_limit);
      break;
    }
  }

  if (options.mode == OptimizerMode::kNoBitvectors) {
    ClearBitvectors(&plan);
  } else {
    PushDownBitvectors(&plan);
  }
  return plan;
}

int PruneFilters(Plan* plan, const OptimizerOptions& options,
                 EstimatedCoutModel* model) {
  if (options.mode == OptimizerMode::kNoBitvectors ||
      options.lambda_thresh < 0) {
    return 0;
  }
  return PruneIneffectiveFilters(plan, model, options.lambda_thresh);
}

OptimizedQuery OptimizeQuery(const JoinGraph& graph, StatsCatalog* stats,
                             const OptimizerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  EstimatedCoutModel model(stats, options.filter_fp_rate);
  OptimizedQuery result;
  result.plan = OrderJoins(graph, options, &model);
  result.pruned_filters = PruneFilters(&result.plan, options, &model);
  result.estimated_cost = model.Cout(result.plan);
  result.optimize_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace bqo
