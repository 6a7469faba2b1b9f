// Plan-shape cache correctness: the predicate structure/constant split,
// the JoinGraph shape signature, the parameterized optimizer's validity
// bands, and the PlanCache's match + re-bind + escalate protocol. Pins:
//
//  * Shape split is lossless: PredicateShape ignores literals but nothing
//    else; RebindPredicateConstants(structure, constants) reproduces a
//    predicate with the same shape and exactly those constants.
//  * ShapeSignature equality across literal changes, inequality across
//    structural changes (predicate family, relation/join count).
//  * OptimizeParameterized: every predicated relation's validity band
//    contains its optimize-time selectivity; slotless relations keep the
//    full [0,1] band (their selectivity cannot move without a shape
//    change).
//  * PlanCache protocol: exact-constant lookups serve the shared entry
//    (the zero-slot degenerate case IS the old exact-match cache); moved
//    constants inside the band serve a private rebound instance; out of
//    band or stale escalates to kReoptimize and Insert replaces the entry.
//    Counters land each lookup in exactly one of hits / misses /
//    reoptimizations.
//  * Drift feedback: observed lambda far from the estimate marks the
//    entry stale exactly once and pins exactly one re-optimization.
//  * End-to-end parity: a shape hit that re-binds constants produces
//    checksums and merged filter stats identical to a cold optimize of
//    the same literals — swept over pool sizes {1,2,4} and star /
//    snowflake / sort-merge plans.
//  * A templated workload (same shape, jittered literals) achieves a
//    shape-hit rate >= 0.9 with zero in-band re-optimizations.
//  * Probe-session parity: OptimizeParameterized's shared models, probe
//    graph and candidate memo change nothing it returns. Bands,
//    selectivities, lambdas, the plan with its filters, cost and pruned
//    count are bit-identical to the verbatim pre-session implementation
//    (a fresh OptimizeQuery on a graph copy per probe) over every lite
//    workload query and the multi-fact galaxy under every mode, and the
//    memo does hit on CUSTOMER.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/exec/executor.h"
#include "src/optimizer/parameterized.h"
#include "src/plan/predicate_shape.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/stats/estimated_cost.h"
#include "src/workload/datagen.h"
#include "src/workload/workload.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

// ---- Predicate shape: structure/constant split ----

TEST(PredicateShape, LiteralsBecomeSlotsStructureStays) {
  // Null predicate: the zero-slot degenerate case.
  EXPECT_EQ(PredicateShape(nullptr), "TRUE");
  EXPECT_TRUE(CollectPredicateConstants(nullptr).empty());

  // Same structure, different literal: one shape, different constants.
  const ExprPtr a = Lt("attr0", 100);
  const ExprPtr b = Lt("attr0", 900);
  EXPECT_EQ(PredicateShape(a), PredicateShape(b));
  EXPECT_NE(CollectPredicateConstants(a), CollectPredicateConstants(b));

  // Different column or comparison: different shape.
  EXPECT_NE(PredicateShape(a), PredicateShape(Lt("attr1", 100)));
  EXPECT_NE(PredicateShape(a),
            PredicateShape(
                Compare("attr0", CompareOp::kLe, Value(int64_t{100}))));

  // IN list length is structure; its elements are slots.
  EXPECT_EQ(PredicateShape(In("attr0", {1, 2, 3})),
            PredicateShape(In("attr0", {7, 8, 9})));
  EXPECT_NE(PredicateShape(In("attr0", {1, 2, 3})),
            PredicateShape(In("attr0", {1, 2})));

  // The modulo divisor is structure (it names the predicate family); the
  // bound is a slot.
  EXPECT_EQ(PredicateShape(ModLess("attr0", 10, 3)),
            PredicateShape(ModLess("attr0", 10, 7)));
  EXPECT_NE(PredicateShape(ModLess("attr0", 10, 3)),
            PredicateShape(ModLess("attr0", 20, 3)));

  // Boolean structure distinguishes shapes.
  const ExprPtr conj = And({Lt("attr0", 5), Between("attr1", 1, 9)});
  EXPECT_NE(PredicateShape(conj), PredicateShape(Lt("attr0", 5)));
  EXPECT_EQ(CollectPredicateConstants(conj).size(), 3u);
}

TEST(PredicateShape, RebindIsLossless) {
  const ExprPtr original =
      And({Between("attr0", 100, 400), Not(In("attr1", {3, 5, 8})),
           Or({LikeContains("label", "foo"), ModLess("attr0", 16, 4)})});
  const std::vector<Value> constants = CollectPredicateConstants(original);
  ASSERT_EQ(constants.size(), 7u);  // 2 + 3 + 1 + 1

  // Round trip with its own constants.
  const ExprPtr same = RebindPredicateConstants(original, constants);
  EXPECT_EQ(PredicateShape(same), PredicateShape(original));
  EXPECT_EQ(CollectPredicateConstants(same), constants);

  // Re-bind moved constants: shape invariant, new slot table installed.
  std::vector<Value> moved = constants;
  moved[0] = Value(int64_t{200});
  moved[6] = Value(int64_t{11});
  const ExprPtr rebound = RebindPredicateConstants(original, moved);
  EXPECT_EQ(PredicateShape(rebound), PredicateShape(original));
  EXPECT_EQ(CollectPredicateConstants(rebound), moved);
}

// ---- JoinGraph shape signature ----

TEST(JoinGraphShape, SignatureIgnoresLiteralsNotStructure) {
  auto db = MakeStarDb(2, 5000, 100, {0.4, 0.5}, 21);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());

  // Changed literal: same shape, different constant table.
  QuerySpec shifted = db->spec;
  shifted.relations[1].predicate = Lt("attr0", 123);
  auto graph2 = BuildJoinGraph(db->catalog, shifted);
  ASSERT_TRUE(graph2.ok());
  EXPECT_EQ(graph.value().ShapeSignature(), graph2.value().ShapeSignature());
  EXPECT_NE(graph.value().ConstantTable(), graph2.value().ConstantTable());

  // Changed predicate family on the same relation: different shape.
  QuerySpec reshaped = db->spec;
  reshaped.relations[1].predicate = Between("attr0", 100, 400);
  auto graph3 = BuildJoinGraph(db->catalog, reshaped);
  ASSERT_TRUE(graph3.ok());
  EXPECT_NE(graph.value().ShapeSignature(), graph3.value().ShapeSignature());

  // Fewer relations/joins: different shape.
  QuerySpec narrower = db->spec;
  narrower.relations.pop_back();
  narrower.joins.pop_back();
  auto graph4 = BuildJoinGraph(db->catalog, narrower);
  ASSERT_TRUE(graph4.ok());
  EXPECT_NE(graph.value().ShapeSignature(), graph4.value().ShapeSignature());

  // Optimizer knobs are part of the cache key (they change the plan), but
  // the band/drift knobs are not (they bound reuse, not the plan).
  OptimizerOptions opt;
  OptimizerOptions pruned = opt;
  pruned.lambda_thresh = 0.5;
  EXPECT_NE(PlanCache::ShapeSignature(graph.value(), opt),
            PlanCache::ShapeSignature(graph.value(), pruned));
  OptimizerOptions banded = opt;
  banded.reopt_sel_band = 2.0;
  EXPECT_EQ(PlanCache::ShapeSignature(graph.value(), opt),
            PlanCache::ShapeSignature(graph.value(), banded));
}

// ---- Parameterized optimization: validity bands ----

TEST(OptimizeParameterized, BandsCoverOptimizePointAndSlotlessStaysFull) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  StatsCatalog stats(&db->catalog);
  OptimizerOptions opt;

  const ParameterizedPlan p =
      OptimizeParameterized(graph.value(), &stats, opt);
  const int n = graph.value().num_relations();
  ASSERT_EQ(static_cast<int>(p.bands.size()), n);
  ASSERT_EQ(static_cast<int>(p.optimize_sel.size()), n);
  ASSERT_EQ(static_cast<int>(p.constants.size()), n);
  ASSERT_FALSE(p.estimated_lambda.empty());

  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(p.bands[static_cast<size_t>(r)].Contains(
        p.optimize_sel[static_cast<size_t>(r)]))
        << "relation " << r;
    if (p.constants[static_cast<size_t>(r)].empty()) {
      // Slotless: selectivity cannot move without a shape change.
      EXPECT_EQ(p.bands[static_cast<size_t>(r)].lo, 0.0) << r;
      EXPECT_EQ(p.bands[static_cast<size_t>(r)].hi, 1.0) << r;
    } else {
      // Probing never widens past the configured factor.
      const double sel = p.optimize_sel[static_cast<size_t>(r)];
      EXPECT_GE(p.bands[static_cast<size_t>(r)].lo,
                sel / opt.reopt_sel_band - 1e-12)
          << r;
      EXPECT_LE(p.bands[static_cast<size_t>(r)].hi,
                sel * opt.reopt_sel_band + 1e-12)
          << r;
    }
  }
}

// ---- PlanCache protocol ----

struct CacheHarness {
  std::unique_ptr<TestDb> db;
  StatsCatalog stats;
  OptimizerOptions opt;
  PlanCache cache;

  explicit CacheHarness(std::unique_ptr<TestDb> d,
                        PlanCacheOptions options = {})
      : db(std::move(d)), stats(&db->catalog), cache(options) {}

  std::string Sig(const JoinGraph& graph) const {
    return PlanCache::ShapeSignature(graph, opt);
  }

  /// Optimize `spec` cold and insert it; returns the cache entry.
  std::shared_ptr<const CachedPlan> OptimizeAndInsert(const QuerySpec& spec) {
    auto graph = BuildJoinGraph(db->catalog, spec);
    BQO_CHECK(graph.ok());
    ParameterizedPlan p = OptimizeParameterized(graph.value(), &stats, opt);
    return cache.Insert(Sig(graph.value()), db->catalog.version(),
                        graph.value(), std::move(p));
  }

  /// Serving-path lookup: statistics deferred, literals bound.
  PlanCache::LookupOutcome Lookup(const QuerySpec& spec) {
    auto graph =
        BuildJoinGraph(db->catalog, spec, /*attach_statistics=*/false);
    BQO_CHECK(graph.ok());
    return cache.Lookup(Sig(graph.value()), db->catalog.version(),
                        graph.value());
  }
};

QuerySpec WithBound(const TestDb& db, size_t relation, int64_t bound) {
  QuerySpec spec = db.spec;
  spec.relations[relation].predicate = Lt("attr0", bound);
  return spec;
}

TEST(PlanCacheShape, ExactConstantsServeTheSharedEntry) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto entry = h.OptimizeAndInsert(h.db->spec);

  const auto outcome = h.Lookup(h.db->spec);
  ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_FALSE(outcome.rebound);
  EXPECT_EQ(outcome.instance.get(), entry.get());  // zero-copy
  EXPECT_EQ(outcome.entry.get(), entry.get());

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.shape_hits, 1);
  EXPECT_EQ(s.rebinds, 0);
  EXPECT_EQ(s.reoptimizations, 0);
}

TEST(PlanCacheShape, MovedConstantsInBandRebindPrivately) {
  // Well-separated dimension selectivities {0.3, 0.6, 0.15}: a small nudge
  // of one literal cannot flip the join order, so the probe-derived band
  // stays comfortably wide around the optimize point.
  CacheHarness h(MakeStarDb(3, 12000, 300, {0.3, 0.6, 0.15}, 991));
  const auto entry = h.OptimizeAndInsert(h.db->spec);

  // Nudge relation 2's bound 600 -> 640 (selectivity 0.60 -> 0.64).
  const QuerySpec moved = WithBound(*h.db, 2, 640);
  const auto outcome = h.Lookup(moved);
  ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_TRUE(outcome.rebound);
  ASSERT_NE(outcome.instance, nullptr);
  EXPECT_NE(outcome.instance.get(), entry.get());  // private instance
  EXPECT_EQ(outcome.entry.get(), entry.get());     // feedback target

  // The instance owns its graph, carries the query's literal, and its
  // plan points at the owned copy; the join order is the cached one.
  const CachedPlan& inst = *outcome.instance;
  EXPECT_EQ(inst.plan.graph, &inst.graph);
  EXPECT_EQ(CollectPredicateConstants(inst.graph.relation(2).predicate),
            CollectPredicateConstants(moved.relations[2].predicate));
  EXPECT_EQ(inst.plan.Signature(), entry->plan.Signature());

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.rebinds, 1);
  EXPECT_EQ(s.reoptimizations, 0);
}

TEST(PlanCacheShape, OutOfBandEscalatesAndInsertReplaces) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  h.OptimizeAndInsert(h.db->spec);

  // Bound 400 -> 1: selectivity collapses to ~0.001, far below any band
  // around 0.4 (the widest possible band floor is 0.4 / reopt_sel_band).
  const QuerySpec collapsed = WithBound(*h.db, 1, 1);
  const auto refused = h.Lookup(collapsed);
  EXPECT_EQ(refused.kind, PlanCache::LookupOutcome::Kind::kReoptimize);
  EXPECT_EQ(refused.instance, nullptr);

  // The escalation path re-optimizes and Insert replaces the entry — the
  // shape's slot now belongs to the new literals.
  h.OptimizeAndInsert(collapsed);
  EXPECT_EQ(h.cache.stats().entries, 1);
  const auto now_exact = h.Lookup(collapsed);
  EXPECT_EQ(now_exact.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_FALSE(now_exact.rebound);

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.reoptimizations, 1);
  EXPECT_EQ(s.shape_hits, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
}

/// Forcing observed lambda outside the drift margin marks the entry stale
/// exactly once and pins exactly one re-optimization on the next hit.
TEST(PlanCacheShape, LambdaDriftPinsExactlyOneReoptimization) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto entry = h.OptimizeAndInsert(h.db->spec);
  ASSERT_FALSE(entry->estimated_lambda.empty());

  // Synthesize feedback as far from the estimate as possible: a filter
  // that eliminated everything if the estimate was low, nothing if high —
  // guaranteed past the default 0.25 margin.
  std::vector<FilterStats> observed(entry->estimated_lambda.size());
  for (size_t id = 0; id < observed.size(); ++id) {
    observed[id].filter_id = static_cast<int>(id);
    observed[id].created = true;
    observed[id].probed = 1000;
    observed[id].passed = entry->estimated_lambda[id] > 0.5 ? 1000 : 0;
  }
  h.cache.RecordObservedLambdas(entry, observed);
  h.cache.RecordObservedLambdas(entry, observed);  // already stale: no-op
  EXPECT_EQ(h.cache.stats().drift_invalidations, 1);

  // Same constants, but the entry is stale: the hit must escalate...
  EXPECT_EQ(h.Lookup(h.db->spec).kind,
            PlanCache::LookupOutcome::Kind::kReoptimize);
  // ...exactly once: the replacing insert clears the staleness.
  h.OptimizeAndInsert(h.db->spec);
  EXPECT_EQ(h.Lookup(h.db->spec).kind,
            PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_EQ(h.cache.stats().reoptimizations, 1);
  EXPECT_EQ(h.cache.stats().drift_invalidations, 1);
}

// ---- End-to-end: shape hits execute identically to cold optimizes ----

void ExpectMetricsEqual(const QueryMetrics& base, const QueryMetrics& m,
                        const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created)
        << what << " f" << i;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

struct TemplateUnderTest {
  std::unique_ptr<TestDb> db;
  size_t jitter_relation;    ///< relation whose literal the template moves
  int64_t warm_bound;        ///< literal the cache is warmed with
  int64_t hit_bound;         ///< in-band moved literal served as a rebind
  QueryServiceOptions options;
};

std::vector<TemplateUnderTest> MakeTemplates() {
  std::vector<TemplateUnderTest> out;

  TemplateUnderTest star;
  star.db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.0);
  star.jitter_relation = 2;  // d1, selectivity 0.6
  star.warm_bound = 600;
  star.hit_bound = 640;
  star.db->spec.agg.kind = AggKind::kSum;
  star.db->spec.agg.sum_column = BoundColumn{0, "measure"};
  star.db->spec.agg.has_group_by = true;
  star.db->spec.agg.group_column = BoundColumn{1, "d0_id"};
  out.push_back(std::move(star));

  TemplateUnderTest snowflake;
  snowflake.db = MakeSnowflakeDb({2, 2}, 15000, 400, 0.5, {0.4, 0.5}, 2088,
                                 /*zipf=*/0.0);
  snowflake.jitter_relation = 2;  // b0_2 (outermost of branch 0), sel 0.4
  snowflake.warm_bound = 400;
  snowflake.hit_bound = 430;
  out.push_back(std::move(snowflake));

  TemplateUnderTest merge;
  merge.db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 337, /*zipf=*/0.0);
  merge.jitter_relation = 1;  // d0, selectivity 0.4
  merge.warm_bound = 400;
  merge.hit_bound = 430;
  merge.options.execution.use_sort_merge_join = true;
  out.push_back(std::move(merge));
  return out;
}

/// A rebound shape hit must produce checksums and merged filter stats
/// identical to a cold optimize of the same literals, at every pool size
/// and over star / snowflake / sort-merge plans.
TEST(PlanShapeCacheE2E, RebindMatchesColdOptimizeAcrossPoolSizes) {
  GlobalPoolGuard guard;
  std::vector<TemplateUnderTest> templates = MakeTemplates();

  for (TemplateUnderTest& t : templates) {
    const QuerySpec warm = WithBound(*t.db, t.jitter_relation, t.warm_bound);
    const QuerySpec moved = WithBound(*t.db, t.jitter_relation, t.hit_bound);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      QueryServiceOptions options = t.options;
      options.execution.exec.threads = 2;
      const std::string what = t.db->spec.name + " pool=" +
                               std::to_string(pool);

      // Cold: a fresh service optimizes `moved` from scratch.
      QueryService cold(&t.db->catalog, options);
      const QueryResult baseline = cold.Execute(moved);
      ASSERT_TRUE(baseline.status.ok()) << what;
      EXPECT_FALSE(baseline.plan_cache_hit) << what;

      // Warm with the template's original literals, then serve the moved
      // literals as a shape hit: the answer must be the cold one's.
      QueryService service(&t.db->catalog, options);
      ASSERT_TRUE(service.Execute(warm).status.ok()) << what;
      const QueryResult hit = service.Execute(moved);
      ASSERT_TRUE(hit.status.ok()) << what;
      EXPECT_TRUE(hit.plan_cache_hit) << what;
      EXPECT_TRUE(hit.plan_rebound) << what;
      EXPECT_EQ(hit.optimize_ns, 0) << what;
      ExpectMetricsEqual(baseline.metrics, hit.metrics, what);

      const PlanCacheStats s = service.cache_stats();
      EXPECT_EQ(s.misses, 1) << what;
      EXPECT_EQ(s.rebinds, 1) << what;
      EXPECT_EQ(s.reoptimizations, 0) << what;
    }
  }
}

/// Templated traffic — one shape, literals jittering inside the band —
/// must be served almost entirely from the cache: shape-hit rate >= 0.9
/// and zero re-optimizations, with every answer equal to a cold optimize
/// of the same literals.
TEST(PlanShapeCacheE2E, TemplatedWorkloadShapeHitRate) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.0);
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);

  const std::vector<int64_t> bounds = {600, 620, 580, 640, 600,
                                       610, 590, 630, 600, 620};
  int64_t rounds = 0;
  for (int lap = 0; lap < 2; ++lap) {
    for (int64_t bound : bounds) {
      const QuerySpec spec = WithBound(*db, 2, bound);
      const QueryResult served = service.Execute(spec);
      ASSERT_TRUE(served.status.ok());
      ++rounds;

      QueryService cold(&db->catalog, options);
      const QueryResult baseline = cold.Execute(spec);
      ASSERT_TRUE(baseline.status.ok());
      ExpectMetricsEqual(baseline.metrics, served.metrics,
                         "bound=" + std::to_string(bound));
    }
  }

  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.hits + s.misses + s.reoptimizations, rounds);
  EXPECT_EQ(s.misses, 1);              // only the very first template
  EXPECT_EQ(s.reoptimizations, 0);     // every jitter stayed in band
  EXPECT_GT(s.rebinds, 0);
  EXPECT_GE(s.ShapeHitRate(), 0.9);
  EXPECT_GE(s.HitRate(), 0.9);
}

/// Queries without constant slots degenerate to the exact-match cache:
/// every repeat is a zero-copy exact hit, never a rebind.
TEST(PlanShapeCacheE2E, ZeroSlotQueriesAreExactHits) {
  auto db = MakeStarDb(2, 8000, 200, {-1.0, -1.0}, 55);  // no predicates
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);

  const QueryResult miss = service.Execute(db->spec);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.plan_cache_hit);
  const QueryResult hit = service.Execute(db->spec);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.plan_cache_hit);
  EXPECT_FALSE(hit.plan_rebound);
  ExpectMetricsEqual(miss.metrics, hit.metrics, "zero-slot");

  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.rebinds, 0);
  EXPECT_EQ(s.reoptimizations, 0);
}

// ---- Probe-session parity ----

namespace oracle {

// OptimizeParameterized as it was before probe sessions, kept verbatim:
// every probe is a fresh OptimizeQuery on its own copy of the graph.

std::string PlanChoiceKey(const Plan& plan) {
  std::string key = plan.Signature();
  for (const PlanFilter& f : plan.filters) {
    if (!f.pruned) {
      key += StringFormat(";%d@%d", f.source_join, f.applied_at);
    }
  }
  return key;
}

bool StableAt(const JoinGraph& graph, int rel, double sel,
              StatsCatalog* stats, const OptimizerOptions& options,
              const std::string& chosen) {
  JoinGraph probe = graph;
  RelationRef& r = probe.relation(rel);
  r.filtered_rows =
      std::clamp(sel * r.base_rows, 0.0, std::max(r.base_rows, 0.0));
  return PlanChoiceKey(OptimizeQuery(probe, stats, options).plan) == chosen;
}

ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options) {
  ParameterizedPlan out;
  out.optimized = OptimizeQuery(graph, stats, options);
  out.constants = graph.ConstantTable();

  EstimatedCoutModel aware_model(stats, options.filter_fp_rate);
  const CoutBreakdown breakdown = aware_model.Compute(out.optimized.plan);
  out.estimated_lambda = breakdown.filter_lambda;

  out.optimize_sel.resize(static_cast<size_t>(graph.num_relations()), 1.0);
  out.bands.resize(static_cast<size_t>(graph.num_relations()));
  const double band = options.reopt_sel_band;
  const std::string chosen = PlanChoiceKey(out.optimized.plan);
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

    const int steps = options.band_probe_steps;
    for (int dir = -1; dir <= 1; dir += 2) {
      double last_stable = 1.0;
      bool flipped = false;
      for (int s = 1; s <= steps; ++s) {
        const double factor =
            std::pow(band, static_cast<double>(dir) * s / steps);
        if (!StableAt(graph, r, sel * factor, stats, options, chosen)) {
          flipped = true;
          if (s == 1) {
            const double mid = std::sqrt(factor);
            if (StableAt(graph, r, sel * mid, stats, options, chosen)) {
              last_stable = mid;
            }
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
  return out;
}

}  // namespace oracle

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(Bits(v));
  return bits;
}

void ExpectSameParameterized(const ParameterizedPlan& want,
                             const ParameterizedPlan& got,
                             const std::string& label) {
  ASSERT_EQ(want.bands.size(), got.bands.size()) << label;
  for (size_t r = 0; r < want.bands.size(); ++r) {
    EXPECT_EQ(Bits(want.bands[r].lo), Bits(got.bands[r].lo))
        << label << " relation " << r;
    EXPECT_EQ(Bits(want.bands[r].hi), Bits(got.bands[r].hi))
        << label << " relation " << r;
  }
  EXPECT_EQ(Bits(want.optimize_sel), Bits(got.optimize_sel)) << label;
  EXPECT_EQ(Bits(want.estimated_lambda), Bits(got.estimated_lambda))
      << label;
  EXPECT_EQ(want.constants, got.constants) << label;

  const Plan& wp = want.optimized.plan;
  const Plan& gp = got.optimized.plan;
  EXPECT_EQ(wp.graph, gp.graph) << label;
  EXPECT_EQ(wp.ToString(), gp.ToString()) << label;
  ASSERT_EQ(wp.filters.size(), gp.filters.size()) << label;
  for (size_t i = 0; i < wp.filters.size(); ++i) {
    const PlanFilter& a = wp.filters[i];
    const PlanFilter& b = gp.filters[i];
    EXPECT_EQ(a.id, b.id) << label << " filter " << i;
    EXPECT_EQ(a.source_join, b.source_join) << label << " filter " << i;
    EXPECT_EQ(a.applied_at, b.applied_at) << label << " filter " << i;
    EXPECT_EQ(a.build_col_ids, b.build_col_ids) << label << " filter " << i;
    EXPECT_EQ(a.probe_col_ids, b.probe_col_ids) << label << " filter " << i;
    EXPECT_EQ(Bits(a.estimated_lambda), Bits(b.estimated_lambda))
        << label << " filter " << i;
    EXPECT_EQ(a.pruned, b.pruned) << label << " filter " << i;
    EXPECT_EQ(a.chosen_kind, b.chosen_kind) << label << " filter " << i;
  }
  EXPECT_EQ(Bits(want.optimized.estimated_cost),
            Bits(got.optimized.estimated_cost))
      << label;
  EXPECT_EQ(want.optimized.pruned_filters, got.optimized.pruned_filters)
      << label;
}

struct SessionCounts {
  int64_t probes = 0;
  int64_t reused = 0;
  int64_t built = 0;
};

/// Parity of every query of `w` under `options`; returns the summed
/// session counts.
SessionCounts CheckWorkloadParity(const Workload& w,
                                  const OptimizerOptions& options) {
  StatsCatalog stats(w.catalog.get());
  SessionCounts counts;
  for (const QuerySpec& spec : w.queries) {
    auto graph = BuildJoinGraph(*w.catalog, spec);
    BQO_CHECK(graph.ok());
    const ParameterizedPlan want =
        oracle::OptimizeParameterized(graph.value(), &stats, options);
    const ParameterizedPlan got =
        OptimizeParameterized(graph.value(), &stats, options);
    ExpectSameParameterized(want, got, w.name + " " + spec.name);
    counts.probes += got.probes;
    counts.reused += got.reused_candidates;
    counts.built += got.built_candidates;
  }
  return counts;
}

TEST(ProbeSessionParity, JobLite) {
  const SessionCounts c = CheckWorkloadParity(MakeJobLite(0.04), {});
  EXPECT_GT(c.probes, 0);
}

TEST(ProbeSessionParity, TpcdsLite) {
  const SessionCounts c = CheckWorkloadParity(MakeTpcdsLite(0.04), {});
  EXPECT_GT(c.probes, 0);
}

/// CUSTOMER's 25-relation snowflakes are where the probes are: the memo
/// must actually serve candidates there, and the counts must not depend
/// on anything but the graph.
TEST(ProbeSessionParity, CustomerLiteAndMemoHits) {
  const Workload w = MakeCustomerLite(0.04);
  const SessionCounts c = CheckWorkloadParity(w, {});
  EXPECT_GT(c.probes, 0);
  EXPECT_GT(c.reused, 0);
  EXPECT_GT(c.built, 0);

  StatsCatalog stats(w.catalog.get());
  auto graph = BuildJoinGraph(*w.catalog, w.queries.front());
  ASSERT_TRUE(graph.ok());
  const ParameterizedPlan first =
      OptimizeParameterized(graph.value(), &stats, {});
  const ParameterizedPlan again =
      OptimizeParameterized(graph.value(), &stats, {});
  EXPECT_GT(first.reused_candidates, 0);
  EXPECT_EQ(first.probes, again.probes);
  EXPECT_EQ(first.reused_candidates, again.reused_candidates);
  EXPECT_EQ(first.built_candidates, again.built_candidates);
}

/// Two facts sharing a dimension (examples/multi_fact_galaxy.cpp, smaller):
/// Algorithm 3 collapses the shipments snowflake into a composite before
/// the final round, so candidate keys nest a composite's key — which can
/// differ from probe to probe. Swept over every optimizer mode, with and
/// without pruning, and over probe step counts.
TEST(ProbeSessionParity, MultiFactGalaxyAcrossModes) {
  Catalog catalog;
  Rng rng(99);
  for (const char* d : {"customer", "product", "carrier", "region"}) {
    TableGenSpec spec;
    spec.name = d;
    spec.rows = d == std::string("customer") ? 1000 : 160;
    GenerateTable(&catalog, spec, &rng);
  }
  TableGenSpec orders;
  orders.name = "orders";
  orders.rows = 30000;
  orders.with_pk = false;
  orders.with_label = false;
  orders.fks = {FkSpec{"customer_fk", "customer", "customer_id", 0.5, 0.0},
                FkSpec{"product_fk", "product", "product_id", 0.8, 0.0}};
  GenerateTable(&catalog, orders, &rng);
  TableGenSpec shipments;
  shipments.name = "shipments";
  shipments.rows = 24000;
  shipments.with_pk = false;
  shipments.with_label = false;
  shipments.fks = {FkSpec{"customer_fk", "customer", "customer_id", 0.5, 0.0},
                   FkSpec{"carrier_fk", "carrier", "carrier_id", 0.0, 0.0},
                   FkSpec{"region_fk", "region", "region_id", 0.3, 0.0}};
  GenerateTable(&catalog, shipments, &rng);

  QuerySpec query;
  query.name = "galaxy";
  query.relations = {{"orders", "orders", nullptr},
                     {"shipments", "shipments", nullptr},
                     {"customer", "customer", Lt("attr0", 80)},
                     {"product", "product", LikeContains("label", "pro")},
                     {"carrier", "carrier", nullptr},
                     {"region", "region", Lt("attr0", 200)}};
  query.joins = {{"orders", "customer_fk", "customer", "customer_id"},
                 {"shipments", "customer_fk", "customer", "customer_id"},
                 {"orders", "product_fk", "product", "product_id"},
                 {"shipments", "carrier_fk", "carrier", "carrier_id"},
                 {"shipments", "region_fk", "region", "region_id"}};
  auto graph = BuildJoinGraph(catalog, query);
  ASSERT_TRUE(graph.ok());
  StatsCatalog stats(&catalog);

  int64_t reused = 0;
  for (OptimizerMode mode :
       {OptimizerMode::kBaselinePostProcess, OptimizerMode::kNoBitvectors,
        OptimizerMode::kBqoShallow, OptimizerMode::kAlternativePlan,
        OptimizerMode::kExhaustive}) {
    for (double lambda_thresh : {0.05, -1.0}) {
      for (int steps : {1, 2, 3}) {
        OptimizerOptions options;
        options.mode = mode;
        options.lambda_thresh = lambda_thresh;
        options.band_probe_steps = steps;
        const ParameterizedPlan want =
            oracle::OptimizeParameterized(graph.value(), &stats, options);
        const ParameterizedPlan got =
            OptimizeParameterized(graph.value(), &stats, options);
        ExpectSameParameterized(
            want, got,
            StringFormat("%s lambda=%g steps=%d", OptimizerModeName(mode),
                         lambda_thresh, steps));
        if (mode == OptimizerMode::kBqoShallow) {
          reused += got.reused_candidates;
        }
      }
    }
  }
  EXPECT_GT(reused, 0);
}

}  // namespace
}  // namespace bqo
