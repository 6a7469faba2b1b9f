// Plan-shape cache correctness: the predicate structure/constant split,
// the JoinGraph shape signature, the parameterized optimizer's output, and
// the PlanCache's match + re-bind + verify protocol. Pins:
//
//  * Shape split is lossless: PredicateShape ignores literals but nothing
//    else; RebindPredicateConstants(structure, constants) reproduces a
//    predicate with the same shape and exactly those constants.
//  * ShapeSignature equality across literal changes, inequality across
//    structural changes (predicate family, relation/join count).
//  * OptimizeParameterized is exactly OptimizeQuery's plan plus the slot
//    table — nothing probed up front.
//  * PlanCache protocol: exact-constant lookups serve the shared entry
//    (the zero-slot degenerate case IS the old exact-match cache); every
//    lookup with moved constants runs one verification, which serves a
//    private rebound instance on a match and escalates to kReoptimize on
//    a mismatch, after which Insert replaces the entry. Counters land
//    each lookup in exactly one of hits / misses / reoptimizations. Four
//    threads rebinding one entry at once all get the cached choice (run
//    under TSan in CI).
//  * Entries are immutable: on data whose observed lambdas stray from the
//    estimates, every exact repeat of an entry's constants is still an
//    exact hit, and only refused verifications re-optimize.
//  * End-to-end parity: a shape hit that re-binds constants produces
//    checksums and merged filter stats identical to a cold optimize of
//    the same literals — swept over pool sizes {1,2,4} and star /
//    snowflake plans.
//  * A verification that picks another plan escalates, and the
//    replacement entry answers like a cold optimize.
//  * A templated workload (same shape, jittered literals) achieves a
//    shape-hit rate >= 0.9 with zero re-optimizations.
//  * Lazy-band parity: over every lite workload query and the multi-fact
//    galaxy (under every mode), jittered constant sequences moving one
//    relation or several together never get a served rebind whose
//    PlanChoiceKey differs from a fresh OptimizeQuery at that point, and
//    every inserted or replacement entry equals a cold OptimizeQuery bit
//    for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/exec/executor.h"
#include "src/optimizer/parameterized.h"
#include "src/plan/predicate_shape.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
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

  // Optimizer knobs are part of the cache key (they change the plan).
  OptimizerOptions opt;
  OptimizerOptions pruned = opt;
  pruned.lambda_thresh = 0.5;
  EXPECT_NE(PlanCache::ShapeSignature(graph.value(), opt),
            PlanCache::ShapeSignature(graph.value(), pruned));
}

// ---- Parameterized optimization: one optimization plus annotations ----

TEST(OptimizeParameterized, IsOneOptimizationPlusAnnotations) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  StatsCatalog stats(&db->catalog);
  OptimizerOptions opt;

  const ParameterizedPlan p =
      OptimizeParameterized(graph.value(), &stats, opt);
  const int n = graph.value().num_relations();
  ASSERT_EQ(static_cast<int>(p.constants.size()), n);
  EXPECT_EQ(p.constants, graph.value().ConstantTable());
  int predicated = 0;
  for (const std::vector<Value>& slots : p.constants) {
    predicated += !slots.empty();
  }
  EXPECT_EQ(predicated, 3);  // the fact is slotless

  // Nothing is probed up front: the plan is exactly OptimizeQuery's.
  const OptimizedQuery cold = OptimizeQuery(graph.value(), &stats, opt);
  EXPECT_EQ(p.optimized.plan.ToString(), cold.plan.ToString());
  EXPECT_EQ(std::bit_cast<uint64_t>(p.optimized.estimated_cost),
            std::bit_cast<uint64_t>(cold.estimated_cost));
  EXPECT_EQ(p.optimized.pruned_filters, cold.pruned_filters);
  EXPECT_GT(p.optimized.optimize_ns, 0);
}

// ---- PlanCache protocol ----

struct CacheHarness {
  std::unique_ptr<TestDb> db;
  StatsCatalog stats;
  OptimizerOptions opt;
  PlanCache cache;

  explicit CacheHarness(std::unique_ptr<TestDb> d)
      : db(std::move(d)), stats(&db->catalog), cache(64) {}

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
                        graph.value(), &stats, opt);
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

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.shape_hits, 1);
  EXPECT_EQ(s.rebinds, 0);
  EXPECT_EQ(s.reoptimizations, 0);
}

TEST(PlanCacheShape, MovedConstantsInBandRebindPrivately) {
  // Well-separated dimension selectivities {0.3, 0.6, 0.15}: a small nudge
  // of one literal cannot flip the join order, so the verification the
  // move triggers confirms the cached choice.
  CacheHarness h(MakeStarDb(3, 12000, 300, {0.3, 0.6, 0.15}, 991));
  const auto entry = h.OptimizeAndInsert(h.db->spec);

  // Nudge relation 2's bound 600 -> 640 (selectivity 0.60 -> 0.64).
  const QuerySpec moved = WithBound(*h.db, 2, 640);
  const auto outcome = h.Lookup(moved);
  ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_TRUE(outcome.rebound);
  ASSERT_NE(outcome.instance, nullptr);
  EXPECT_NE(outcome.instance.get(), entry.get());  // private instance

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
  EXPECT_EQ(s.verifications, 1);
  EXPECT_EQ(s.reoptimizations, 0);
}

/// No verified point is remembered: a second lookup at the same moved
/// point verifies again, and an exact-constant lookup verifies nothing.
TEST(PlanCacheShape, EveryMovedRebindVerifies) {
  CacheHarness h(MakeStarDb(3, 12000, 300, {0.3, 0.6, 0.15}, 991));
  h.OptimizeAndInsert(h.db->spec);
  QuerySpec both = WithBound(*h.db, 2, 640);
  both.relations[1].predicate = Lt("attr0", 280);

  int64_t verifications = 0;
  for (const QuerySpec& spec : {WithBound(*h.db, 2, 640), both}) {
    for (int i = 0; i < 2; ++i) {
      const auto outcome = h.Lookup(spec);
      ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
      EXPECT_TRUE(outcome.rebound);
      EXPECT_EQ(h.cache.stats().verifications, ++verifications);
    }
  }
  EXPECT_FALSE(h.Lookup(h.db->spec).rebound);
  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.verifications, 4);
  EXPECT_EQ(s.rebinds, 4);
  EXPECT_EQ(s.hits, 5);
  EXPECT_EQ(s.reoptimizations, 0);
}

/// Four threads rebind one entry at distinct points at once: every lookup
/// is served from a private instance with the entry's choice, and the
/// entry itself stays the cache's exact hit afterwards. CI runs this under
/// TSan.
TEST(PlanCacheShape, ConcurrentRebindsShareOneEntry) {
  CacheHarness h(MakeStarDb(3, 12000, 300, {0.3, 0.6, 0.15}, 991));
  const auto entry = h.OptimizeAndInsert(h.db->spec);
  const std::vector<int64_t> bounds = {580, 610, 630, 650};
  constexpr int kRounds = 8;

  std::vector<int> served(bounds.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < bounds.size(); ++t) {
    threads.emplace_back([&, t] {
      const QuerySpec spec = WithBound(*h.db, 2, bounds[t]);
      for (int i = 0; i < kRounds; ++i) {
        const auto outcome = h.Lookup(spec);
        if (outcome.kind == PlanCache::LookupOutcome::Kind::kServed &&
            outcome.rebound &&
            PlanChoiceKey(outcome.instance->plan) == entry->choice_key) {
          ++served[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t t = 0; t < bounds.size(); ++t) {
    EXPECT_EQ(served[t], kRounds) << "bound " << bounds[t];
  }
  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, static_cast<int64_t>(bounds.size()) * kRounds);
  EXPECT_EQ(s.rebinds, s.hits);
  EXPECT_EQ(s.verifications, s.hits);
  EXPECT_EQ(s.reoptimizations, 0);
  EXPECT_EQ(h.Lookup(h.db->spec).instance.get(), entry.get());
}

TEST(PlanCacheShape, OutOfBandEscalatesAndInsertReplaces) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto first = h.OptimizeAndInsert(h.db->spec);

  // Bound 400 -> 1: selectivity collapses to ~0.001, and the verification
  // at that point picks another plan.
  const QuerySpec collapsed = WithBound(*h.db, 1, 1);
  const auto refused = h.Lookup(collapsed);
  EXPECT_EQ(refused.kind, PlanCache::LookupOutcome::Kind::kReoptimize);
  EXPECT_EQ(refused.instance, nullptr);

  // The escalation path re-optimizes and Insert replaces the entry — the
  // shape's slot now belongs to the new literals.
  const auto replaced = h.OptimizeAndInsert(collapsed);
  EXPECT_NE(replaced->choice_key, first->choice_key);
  EXPECT_EQ(h.cache.stats().entries, 1);
  const auto now_exact = h.Lookup(collapsed);
  EXPECT_EQ(now_exact.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_FALSE(now_exact.rebound);

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.reoptimizations, 1);
  EXPECT_EQ(s.verifications, 1);
  EXPECT_EQ(s.shape_hits, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
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
  int64_t hit_bound;         ///< moved literal served as a rebind
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
  return out;
}

/// A rebound shape hit must produce checksums and merged filter stats
/// identical to a cold optimize of the same literals, at every pool size
/// and over star / snowflake plans.
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

/// Templated traffic — one shape, literals jittering where the cached plan
/// stays the optimizer's choice — must be served almost entirely from the
/// cache: shape-hit rate >= 0.9 and zero re-optimizations, every rebind
/// verified, and every answer equal to a cold optimize of the same
/// literals.
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
  EXPECT_EQ(s.reoptimizations, 0);     // every verification matched
  EXPECT_GT(s.rebinds, 0);
  EXPECT_EQ(s.verifications, s.rebinds);  // one check per moved rebind
  EXPECT_GE(s.ShapeHitRate(), 0.9);
  EXPECT_GE(s.HitRate(), 0.9);
}

/// Entries take no runtime feedback. On zipf data the observed filter
/// lambdas stray from the estimates, yet under the shipped options every
/// query whose constants equal the resident entry's is an exact hit, and
/// the only re-optimizations are refused verifications.
TEST(PlanShapeCacheE2E, ExactRepeatsStayExactHitsOnStrayingLambdas) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77, /*zipf=*/0.5);
  QueryService service(&db->catalog, QueryServiceOptions{});

  const std::vector<int64_t> bounds = {400, 400, 420, 400, 380, 400,
                                       1,   1,   400, 440, 400, 400};
  int64_t resident = -1;  ///< bound of the entry the cache holds
  int exact_repeats = 0;
  for (int lap = 0; lap < 2; ++lap) {
    for (int64_t bound : bounds) {
      const QueryResult r = service.Execute(WithBound(*db, 1, bound));
      ASSERT_TRUE(r.status.ok());
      const std::string what = "lap " + std::to_string(lap) + " bound " +
                               std::to_string(bound);
      if (bound == resident) {
        ++exact_repeats;
        EXPECT_TRUE(r.plan_cache_hit) << what;
        EXPECT_FALSE(r.plan_rebound) << what;
      }
      if (!r.plan_cache_hit) resident = bound;  // miss or re-optimization
    }
  }
  EXPECT_GE(exact_repeats, 8);

  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.reoptimizations, s.verifications - s.rebinds);
  EXPECT_EQ(s.hits + s.misses + s.reoptimizations,
            2 * static_cast<int64_t>(bounds.size()));
}

/// A verification that picks another plan escalates, and the service
/// re-optimizes into the replacement entry: the answer equals a cold
/// optimize's, and the trace shows the verification as its own span inside
/// the rebind span, apart from the optimize span.
TEST(PlanShapeCacheE2E, RefusedVerificationServesColdEquivalent) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77, /*zipf=*/0.0);
  QueryServiceOptions options;
  const QuerySpec collapsed = WithBound(*db, 1, 1);

  QueryService cold(&db->catalog, options);
  const QueryResult baseline = cold.Execute(collapsed);
  ASSERT_TRUE(baseline.status.ok());

  QueryService service(&db->catalog, options);
  ASSERT_TRUE(service.Execute(db->spec).status.ok());
  const QueryResult escalated = service.Execute(collapsed);
  ASSERT_TRUE(escalated.status.ok());
  EXPECT_FALSE(escalated.plan_cache_hit);
  EXPECT_GT(escalated.optimize_ns, 0);
  EXPECT_EQ(escalated.estimated_cost, baseline.estimated_cost);
  EXPECT_EQ(escalated.pruned_filters, baseline.pruned_filters);
  ExpectMetricsEqual(baseline.metrics, escalated.metrics, "escalated");

  ASSERT_NE(escalated.trace, nullptr);
  const std::vector<TraceSpan> spans = escalated.trace->spans();
  int verify = -1, optimize = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == SpanKind::kVerify) verify = static_cast<int>(i);
    if (spans[i].kind == SpanKind::kOptimize) optimize = static_cast<int>(i);
  }
  ASSERT_GE(verify, 0);
  ASSERT_GE(optimize, 0);
  EXPECT_EQ(spans[static_cast<size_t>(spans[static_cast<size_t>(verify)]
                                          .parent)]
                .kind,
            SpanKind::kRebind);

  // The replacement entry serves the new literals as an exact hit.
  const QueryResult again = service.Execute(collapsed);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_FALSE(again.plan_rebound);
  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.verifications, 1);
  EXPECT_EQ(s.reoptimizations, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
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

// ---- Lazy-band parity ----

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// `want` (a cold OptimizeQuery) and `got` (a cache entry) must agree bit
/// for bit.
void ExpectSamePlan(const OptimizedQuery& want, const CachedPlan& got,
                    const std::string& label) {
  EXPECT_EQ(want.plan.ToString(), got.plan.ToString()) << label;
  ASSERT_EQ(want.plan.filters.size(), got.plan.filters.size()) << label;
  for (size_t i = 0; i < want.plan.filters.size(); ++i) {
    const PlanFilter& a = want.plan.filters[i];
    const PlanFilter& b = got.plan.filters[i];
    EXPECT_EQ(a.id, b.id) << label << " filter " << i;
    EXPECT_EQ(a.source_join, b.source_join) << label << " filter " << i;
    EXPECT_EQ(a.applied_at, b.applied_at) << label << " filter " << i;
    EXPECT_EQ(a.build_col_ids, b.build_col_ids) << label << " filter " << i;
    EXPECT_EQ(a.probe_col_ids, b.probe_col_ids) << label << " filter " << i;
    EXPECT_EQ(Bits(a.estimated_lambda), Bits(b.estimated_lambda))
        << label << " filter " << i;
    EXPECT_EQ(a.pruned, b.pruned) << label << " filter " << i;
  }
  EXPECT_EQ(Bits(want.estimated_cost), Bits(got.estimated_cost)) << label;
  EXPECT_EQ(want.pruned_filters, got.pruned_filters) << label;
}

/// `base` with every int constant of the predicates of `relations` moved
/// by a seeded factor in [-max_rel, +max_rel] (a constant too small to
/// move stays put). The shape is unchanged.
QuerySpec Jitter(const QuerySpec& base, const std::vector<size_t>& relations,
                 Rng* rng, double max_rel) {
  QuerySpec spec = base;
  for (size_t r : relations) {
    QueryRelation& rel = spec.relations[r];
    std::vector<Value> constants = CollectPredicateConstants(rel.predicate);
    for (Value& c : constants) {
      if (c.type() != DataType::kInt64) continue;
      const double u = 2.0 * rng->NextDouble() - 1.0;
      const int64_t v = c.AsInt64();
      c = Value(static_cast<int64_t>(
          v + std::llround(static_cast<double>(v) * u * max_rel)));
    }
    rel.predicate = RebindPredicateConstants(rel.predicate, constants);
  }
  return spec;
}

/// What one parity run saw, summed over queries.
struct LazyCounts {
  int64_t lookups = 0;
  int64_t rebinds = 0;       ///< served after a matched verification
  int64_t replacements = 0;  ///< entries replaced after a refused one
};

/// Serves `sequence` (variants of one query shape) through a PlanCache the
/// way QueryService does, checking every outcome against a fresh
/// optimization of the same literals.
void ServeSequence(const Catalog& catalog, StatsCatalog* stats,
                   const OptimizerOptions& options,
                   const std::vector<QuerySpec>& sequence,
                   const std::string& label, LazyCounts* counts) {
  PlanCache cache(4);
  const int64_t version = catalog.version();
  for (size_t i = 0; i < sequence.size(); ++i) {
    const std::string what = label + " #" + std::to_string(i);
    auto graph = BuildJoinGraph(catalog, sequence[i]);
    BQO_CHECK(graph.ok());
    const std::string sig = PlanCache::ShapeSignature(graph.value(), options);
    auto deferred =
        BuildJoinGraph(catalog, sequence[i], /*attach_statistics=*/false);
    BQO_CHECK(deferred.ok());
    PlanCache::LookupOutcome looked =
        cache.Lookup(sig, version, deferred.value(), stats, options);
    ++counts->lookups;
    const OptimizedQuery fresh = OptimizeQuery(graph.value(), stats, options);
    if (looked.kind == PlanCache::LookupOutcome::Kind::kServed) {
      EXPECT_EQ(PlanChoiceKey(looked.instance->plan),
                PlanChoiceKey(fresh.plan))
          << what << (looked.rebound ? " (rebound)" : " (exact)");
      counts->rebinds += looked.rebound;
      continue;
    }
    // The service's miss / escalation path: the (replacement) entry must
    // equal a cold optimization of the query.
    const auto entry =
        cache.Insert(sig, version, graph.value(),
                     OptimizeParameterized(graph.value(), stats, options));
    ExpectSamePlan(fresh, *entry, what + " (inserted)");
    counts->replacements +=
        looked.kind == PlanCache::LookupOutcome::Kind::kReoptimize;
  }
}

/// Each predicated query of `w` against two jittered sequences: one
/// moving a single relation at a time, one moving all of them together.
/// Each draws from a small pool of variants, so points repeat and the
/// entry is replaced under some of them.
LazyCounts CheckWorkloadParity(const Workload& w,
                               const OptimizerOptions& options) {
  StatsCatalog stats(w.catalog.get());
  LazyCounts counts;
  Rng rng(4242);
  for (const QuerySpec& spec : w.queries) {
    std::vector<size_t> predicated;
    for (size_t r = 0; r < spec.relations.size(); ++r) {
      if (!CollectPredicateConstants(spec.relations[r].predicate).empty()) {
        predicated.push_back(r);
      }
    }
    if (predicated.empty()) continue;

    std::vector<QuerySpec> pool_one, pool_all;
    for (int v = 0; v < 4; ++v) {
      const size_t r = predicated[rng.Uniform(predicated.size())];
      pool_one.push_back(Jitter(spec, {r}, &rng, 0.3));
      pool_all.push_back(Jitter(spec, predicated, &rng, 0.3));
    }
    for (const auto* pool : {&pool_one, &pool_all}) {
      std::vector<QuerySpec> sequence = {spec};
      for (int i = 0; i < 8; ++i) {
        sequence.push_back((*pool)[rng.Uniform(pool->size())]);
      }
      ServeSequence(*w.catalog, &stats, options, sequence,
                    w.name + " " + spec.name +
                        (pool == &pool_one ? " one" : " all"),
                    &counts);
    }
  }
  return counts;
}

void ExpectExercised(const LazyCounts& c) { EXPECT_GT(c.rebinds, 0); }

TEST(LazyBandParity, JobLite) {
  const LazyCounts c = CheckWorkloadParity(MakeJobLite(0.04), {});
  ExpectExercised(c);
  EXPECT_GT(c.replacements, 0);
}

TEST(LazyBandParity, TpcdsLite) {
  const LazyCounts c = CheckWorkloadParity(MakeTpcdsLite(0.04), {});
  ExpectExercised(c);
  EXPECT_GT(c.replacements, 0);
}

TEST(LazyBandParity, CustomerLite) {
  const LazyCounts c = CheckWorkloadParity(MakeCustomerLite(0.04), {});
  ExpectExercised(c);
}

/// Two facts sharing a dimension (examples/multi_fact_galaxy.cpp, smaller):
/// Algorithm 3 collapses the shipments snowflake into a composite before
/// the final round. Swept over every optimizer mode, with and without
/// pruning, and over the moved dimension's whole selectivity range.
TEST(LazyBandParity, MultiFactGalaxyAcrossModes) {
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
  StatsCatalog stats(&catalog);

  // The customer and region bounds first jitter near the optimize point,
  // then walk their ranges one at a time, then together; everything runs
  // twice, so every point is also revisited.
  std::vector<QuerySpec> sequence = {query};
  auto with = [&](int64_t customer, int64_t region) {
    QuerySpec spec = query;
    spec.relations[2].predicate = Lt("attr0", customer);
    spec.relations[5].predicate = Lt("attr0", region);
    return spec;
  };
  for (int lap = 0; lap < 2; ++lap) {
    for (int64_t c : {76, 84}) {
      for (int64_t r : {190, 200, 210}) sequence.push_back(with(c, r));
    }
    for (int64_t c : {60, 120, 300, 700, 20, 950}) {
      sequence.push_back(with(c, 200));
    }
    for (int64_t r : {100, 400, 800, 10, 990}) sequence.push_back(with(80, r));
    for (int64_t c : {60, 300, 950}) {
      for (int64_t r : {100, 800, 10}) sequence.push_back(with(c, r));
    }
  }

  LazyCounts counts;
  for (OptimizerMode mode :
       {OptimizerMode::kBaselinePostProcess, OptimizerMode::kNoBitvectors,
        OptimizerMode::kBqoShallow, OptimizerMode::kAlternativePlan,
        OptimizerMode::kExhaustive}) {
    for (double lambda_thresh : {0.05, -1.0}) {
      OptimizerOptions options;
      options.mode = mode;
      options.lambda_thresh = lambda_thresh;
      ServeSequence(catalog, &stats, options, sequence,
                    StringFormat("%s lambda=%g", OptimizerModeName(mode),
                                 lambda_thresh),
                    &counts);
    }
  }
  ExpectExercised(counts);
}

}  // namespace
}  // namespace bqo
