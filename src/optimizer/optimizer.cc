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
                              CandidateMemo* memo, size_t limit) {
  if (CountRightDeepOrders(graph, limit + 1) > limit) {
    return OptimizeBqo(graph, model, memo);
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

Plan OrderJoins(const JoinGraph& graph, OptimizerSession* session) {
  const OptimizerOptions& options = session->options;
  EstimatedCoutModel* aware_model = &session->aware_model;
  DpOptions dp;
  dp.max_dp_relations = options.max_dp_relations;

  Plan plan;
  switch (options.mode) {
    case OptimizerMode::kBaselinePostProcess:
    case OptimizerMode::kNoBitvectors: {
      // Join order chosen blind to filters; Algorithm 1 as post-processing.
      plan = OptimizeDpBaseline(graph, &session->blind_model, dp);
      break;
    }
    case OptimizerMode::kBqoShallow: {
      plan = OptimizeBqo(graph, aware_model, &session->memo);
      break;
    }
    case OptimizerMode::kAlternativePlan: {
      Plan baseline = OptimizeDpBaseline(graph, &session->blind_model, dp);
      PushDownBitvectors(&baseline);
      const double baseline_cost = aware_model->Cout(baseline);
      Plan bqo = OptimizeBqo(graph, aware_model, &session->memo);
      PushDownBitvectors(&bqo);
      const double bqo_cost = aware_model->Cout(bqo);
      plan = bqo_cost <= baseline_cost ? std::move(bqo) : std::move(baseline);
      break;
    }
    case OptimizerMode::kExhaustive: {
      plan = ExhaustiveBitvectorAware(graph, aware_model, &session->memo,
                                      options.exhaustive_limit);
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

int PruneFilters(Plan* plan, OptimizerSession* session) {
  const OptimizerOptions& options = session->options;
  if (options.mode == OptimizerMode::kNoBitvectors ||
      options.lambda_thresh < 0) {
    return 0;
  }
  return PruneIneffectiveFilters(plan, &session->aware_model,
                                 options.lambda_thresh);
}

OptimizedQuery OptimizeQuery(const JoinGraph& graph,
                             OptimizerSession* session) {
  const auto start = std::chrono::steady_clock::now();
  OptimizedQuery result;
  result.plan = OrderJoins(graph, session);
  result.pruned_filters = PruneFilters(&result.plan, session);
  if (session->options.mode != OptimizerMode::kNoBitvectors) {
    // With the menu of survivors settled, pick each filter's
    // implementation (annotation only; see FilterMenuOptions).
    SelectFilterImplementations(&result.plan, &session->aware_model,
                                session->options.filter_menu);
  }
  result.estimated_cost = session->aware_model.Cout(result.plan);
  result.optimize_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

OptimizedQuery OptimizeQuery(const JoinGraph& graph, StatsCatalog* stats,
                             const OptimizerOptions& options) {
  OptimizerSession session(stats, options);
  return OptimizeQuery(graph, &session);
}

}  // namespace bqo
