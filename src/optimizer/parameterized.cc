#include "src/optimizer/parameterized.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/common/string_util.h"

namespace bqo {

namespace {

/// Structural identity of an optimization outcome: the join-order
/// signature plus the unpruned filter menu (source join and application
/// site, comparable across plans with equal signatures). Two probe runs
/// with equal keys made the same choice, so the probed selectivity is
/// inside the validity band.
std::string PlanChoiceKey(const Plan& plan) {
  std::string key = plan.Signature();
  for (const PlanFilter& f : plan.filters) {
    if (!f.pruned) {
      key += StringFormat(";%d@%d", f.source_join, f.applied_at);
    }
  }
  return key;
}

}  // namespace

ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  OptimizerSession session(stats, options);
  ParameterizedPlan out;
  out.optimized = OptimizeQuery(graph, &session);
  out.constants = graph.ConstantTable();

  // Estimated lambda per filter from the bitvector-aware model, not from
  // PlanFilter::estimated_lambda — the latter is only filled when pruning
  // runs, and the drift reference must exist either way.
  out.estimated_lambda =
      session.aware_model.Compute(out.optimized.plan).filter_lambda;

  out.optimize_sel.resize(static_cast<size_t>(graph.num_relations()), 1.0);
  out.bands.resize(static_cast<size_t>(graph.num_relations()));
  const double band = options.reopt_sel_band;
  const std::string chosen_order = out.optimized.plan.Signature();
  const std::string chosen = PlanChoiceKey(out.optimized.plan);

  // True if re-optimizing with relation `r` at `rows` filtered rows keeps
  // the choice `chosen`. A probe computes only what PlanChoiceKey reads:
  // the join order first (most flips already differ there), the pruned
  // menu only when it matches.
  JoinGraph probe = graph;
  auto stable_at = [&](int r, double rows) {
    ++out.probes;
    RelationRef& rel = probe.relation(r);
    const double saved = rel.filtered_rows;
    rel.filtered_rows = rows;
    session.memo.BeginProbe();
    Plan plan = OrderJoins(probe, &session);
    bool stable = plan.Signature() == chosen_order;
    if (stable) {
      PruneFilters(&plan, &session);
      stable = PlanChoiceKey(plan) == chosen;
    }
    rel.filtered_rows = saved;
    return stable;
  };

  for (int r = 0; r < graph.num_relations(); ++r) {
    const RelationRef& rel = graph.relation(r);
    const double base = std::max(rel.base_rows, 1.0);
    const double sel = std::clamp(rel.filtered_rows / base, 0.0, 1.0);
    out.optimize_sel[static_cast<size_t>(r)] = sel;
    SelectivityBand& b = out.bands[static_cast<size_t>(r)];
    if (out.constants[static_cast<size_t>(r)].empty()) {
      continue;  // slotless: shape-equal queries cannot move this relation
    }
    if (band <= 1.0) {
      // Banded reuse disabled: any moved constant re-optimizes.
      b.lo = b.hi = sel;
      continue;
    }
    b.lo = sel / band;
    b.hi = std::min(1.0, sel * band);
    if (options.band_probe_steps <= 0) continue;

    // Tighten each edge to the last geometric step of `band` at which a
    // probe re-optimization kept the chosen plan; when even the first
    // step flips the plan, one refinement probe at its geometric midpoint
    // decides between a narrow band and no slack at all.
    const int steps = options.band_probe_steps;
    for (int dir = -1; dir <= 1; dir += 2) {
      // A probe whose clamped cardinality equals the previous one's in
      // this direction (both past the upper clamp) repeats its verdict.
      double prev_rows = -1.0;
      bool prev_stable = false;
      auto stable_at_sel = [&](double probe_sel) {
        const double rows = std::clamp(probe_sel * rel.base_rows, 0.0,
                                       std::max(rel.base_rows, 0.0));
        if (rows != prev_rows) {
          prev_rows = rows;
          prev_stable = stable_at(r, rows);
        }
        return prev_stable;
      };
      double last_stable = 1.0;
      bool flipped = false;
      for (int s = 1; s <= steps; ++s) {
        const double factor =
            std::pow(band, static_cast<double>(dir) * s / steps);
        if (!stable_at_sel(sel * factor)) {
          flipped = true;
          if (s == 1) {
            const double mid = std::sqrt(factor);
            if (stable_at_sel(sel * mid)) last_stable = mid;
          }
          break;
        }
        last_stable = factor;
      }
      if (!flipped) continue;  // stable through the whole band: keep edge
      if (dir < 0) {
        b.lo = sel * last_stable;
      } else {
        b.hi = std::min(1.0, sel * last_stable);
      }
    }
  }
  out.reused_candidates = session.memo.hits();
  out.built_candidates = session.memo.misses();
  out.optimize_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return out;
}

}  // namespace bqo
