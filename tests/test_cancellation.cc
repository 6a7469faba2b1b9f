// Failure-domain correctness: cooperative cancellation, deadlines, fault
// injection, and overload resilience across the serving stack. Pins:
//
//  * QueryContext semantics: first-error-wins Cancel, deadline self-cancel
//    in ShouldStop, cancel listeners (invoke-on-cancel, immediate invoke
//    when already cancelled, remove-blocks-until-quiesced contract).
//  * FaultInjector determinism: every-Nth-check firing, per-site counters,
//    DisarmAll.
//  * Mid-drain cancellation: injected faults at each engine site (worker
//    task entry, filter fill, aggregate fold) cancel star / snowflake /
//    bushy queries mid-execution at pool sizes {1,2,4}
//    without crashing, and the very next clean run on the same pool
//    reproduces the threads==1 baseline exactly — a failed query never
//    poisons the WorkerPool or its neighbors. At threads == 1 the fold
//    site fires too, while the worker-task site never does: one worker
//    runs inline, as no pool task.
//  * The aggregate's top pipeline on a pinned pool: with the pool's only
//    worker busy, Open() runs the queued worker tasks inline and folds
//    every row; a cancel or an expired deadline stops the run before any
//    morsel is claimed.
//  * Serving-layer overload: bounded admission queue sheds with
//    kResourceExhausted, admission waits are bounded by the service
//    timeout and by the query deadline, a cancelled waiter wakes promptly,
//    and every outcome lands in exactly one ServingStats bucket.
//
// Run under -DBQO_SANITIZE=thread in CI: cancellation races (flag vs. CV
// parks vs. worker unwinding) are exactly what TSan is for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/hash.h"
#include "src/exec/aggregate.h"
#include "src/exec/exec_config.h"
#include "src/exec/executor.h"
#include "src/exec/query_context.h"
#include "src/exec/scan.h"
#include "src/obs/metrics_registry.h"
#include "src/plan/pushdown.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

/// Restores the default (env-sized) global pool when a test that resized
/// it ends, so test order does not matter.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

/// Disarms the process-wide injector on scope exit so a failing test can
/// never leave faults armed for its neighbors.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().DisarmAll(); }
};

// ---- QueryContext unit tests ----

TEST(QueryContext, StartsClean) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.IsCancelled());
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().ok());
  EXPECT_FALSE(CtxShouldStop(&ctx));
  EXPECT_FALSE(CtxShouldStop(nullptr));  // null-tolerant helper
}

TEST(QueryContext, CancelIsFirstErrorWins) {
  QueryContext ctx;
  ctx.Cancel(Status::Cancelled("first"));
  ctx.Cancel(Status::Internal("second"));  // must be a no-op
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().IsCancelled());
  EXPECT_EQ(ctx.status().message(), "first");
}

TEST(QueryContext, DeadlineSelfCancelsInShouldStop) {
  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  ASSERT_TRUE(ctx.has_deadline());
  // The flag alone is not raised until someone polls.
  EXPECT_FALSE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
}

TEST(QueryContext, FutureDeadlineDoesNotStop) {
  QueryContext ctx;
  ctx.SetDeadlineAfterMs(60'000);
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().ok());
}

TEST(QueryContext, CancelListenersRunOnCancel) {
  QueryContext ctx;
  std::atomic<int> fired{0};
  const int64_t kept = ctx.AddCancelListener([&fired] { ++fired; });
  const int64_t removed = ctx.AddCancelListener([&fired] { fired += 100; });
  ctx.RemoveCancelListener(removed);
  ctx.Cancel(Status::Cancelled("bye"));
  EXPECT_EQ(fired.load(), 1);  // kept ran once, removed never
  // A listener added after cancellation is invoked immediately (the waiter
  // would otherwise park forever on an already-dead query).
  const int64_t late = ctx.AddCancelListener([&fired] { fired += 10; });
  EXPECT_EQ(fired.load(), 11);
  ctx.RemoveCancelListener(late);
  ctx.RemoveCancelListener(kept);
}

// ---- FaultInjector unit tests ----

TEST(FaultInjector, FiresEveryNthCheckDeterministically) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.DisarmAll();
  fi.Arm(FaultInjector::Site::kWorkerTask, 3);

  int fires = 0;
  for (int i = 0; i < 9; ++i) {
    const Status s = fi.Check(FaultInjector::Site::kWorkerTask);
    if (!s.ok()) {
      ++fires;
      EXPECT_TRUE(s.IsInternal());
      EXPECT_NE(s.message().find("worker_task"), std::string::npos);
    }
  }
  EXPECT_EQ(fires, 3);  // checks 3, 6, 9
  EXPECT_EQ(fi.injected(), 3);
  EXPECT_EQ(fi.checks(FaultInjector::Site::kWorkerTask), 9);

  // Unarmed sites never fire but the armed site's state is untouched.
  EXPECT_TRUE(fi.Check(FaultInjector::Site::kFilterFill).ok());
  EXPECT_EQ(fi.injected(), 3);

  fi.DisarmAll();
  EXPECT_TRUE(fi.Check(FaultInjector::Site::kWorkerTask).ok());
  EXPECT_EQ(fi.injected(), 0);
  // A disarmed site's Check is a single relaxed load: nothing is counted.
  EXPECT_EQ(fi.checks(FaultInjector::Site::kWorkerTask), 0);
}

// ---- Mid-drain cancellation across plan shapes, sites, and pool sizes ----

struct PlanUnderTest {
  std::unique_ptr<TestDb> db;
  JoinGraph graph;
  Plan plan;
  ExecutionOptions options;
};

std::unique_ptr<PlanUnderTest> MakeStarPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeStarDb(3, 25000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.5);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2, 3});
  PushDownBitvectors(&t->plan);
  t->options.agg.kind = AggKind::kSum;
  t->options.agg.sum_column = BoundColumn{0, "measure"};
  t->options.agg.has_group_by = true;
  t->options.agg.group_column = BoundColumn{1, "d0_id"};
  return t;
}

std::unique_ptr<PlanUnderTest> MakeSnowflakePlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeSnowflakeDb({2, 2}, 18000, 400, 0.5, {0.4, 0.5}, 661,
                          /*zipf=*/0.4);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2, 3, 4});
  PushDownBitvectors(&t->plan);
  return t;
}

std::unique_ptr<PlanUnderTest> MakeBushyPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeSnowflakeDb({2, 2}, 18000, 400, 0.5, {0.4, 0.5}, 772,
                          /*zipf=*/0.4);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan.graph = &t->graph;
  auto branch0 =
      MakeJoin(t->graph, MakeLeaf(t->graph, 2), MakeLeaf(t->graph, 1));
  auto branch1 =
      MakeJoin(t->graph, MakeLeaf(t->graph, 4), MakeLeaf(t->graph, 3));
  auto inner = MakeJoin(t->graph, std::move(branch1), MakeLeaf(t->graph, 0));
  t->plan.root = MakeJoin(t->graph, std::move(branch0), std::move(inner));
  BQO_CHECK(t->plan.root != nullptr);
  t->plan.Renumber();
  BQO_CHECK(t->plan.Validate());
  PushDownBitvectors(&t->plan);
  return t;
}

void ExpectMetricsEqual(const QueryMetrics& base, const QueryMetrics& m,
                        const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

/// For every plan shape and every engine fault site, at pool sizes {1,2,4}: an armed fault cancels the query mid-drain (the status
/// is the injected internal error, first-error-wins) without crashing, and
/// the immediately following clean run on the SAME pool matches the
/// threads==1 baseline exactly. This is the "one dead query never poisons
/// the pool" contract.
TEST(MidDrainCancellation, InjectedFaultsUnwindAndPoolStaysServiceable) {
  GlobalPoolGuard pool_guard;
  FaultGuard fault_guard;

  struct Shape {
    const char* name;
    std::unique_ptr<PlanUnderTest> t;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"star", MakeStarPlan()});
  shapes.push_back({"snowflake", MakeSnowflakePlan()});
  shapes.push_back({"bushy", MakeBushyPlan()});

  for (Shape& shape : shapes) {
    ExecutionOptions single = shape.t->options;
    single.exec.threads = 1;
    const QueryMetrics base = ExecutePlan(shape.t->plan, single);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      for (FaultInjector::Site site : {FaultInjector::Site::kWorkerTask,
                                       FaultInjector::Site::kFilterFill,
                                       FaultInjector::Site::kAggregateFold}) {
        const std::string what = std::string(shape.name) + " pool=" +
                                 std::to_string(pool) + " site=" +
                                 FaultInjector::SiteName(site);

        ExecutionOptions parallel = shape.t->options;
        parallel.exec.threads = 4;
        parallel.exec.morsel_rows = 1024;

        QueryContext ctx;
        parallel.context = &ctx;
        FaultInjector::Global().Arm(site, 1);  // first check fires
        (void)ExecutePlan(shape.t->plan, parallel);
        FaultInjector::Global().DisarmAll();

        EXPECT_TRUE(ctx.IsCancelled()) << what;
        EXPECT_TRUE(ctx.status().IsInternal()) << what;
        EXPECT_NE(ctx.status().message().find("injected fault"),
                  std::string::npos)
            << what;

        // The same pool, immediately after the failure: bit-exact parity.
        parallel.context = nullptr;
        const QueryMetrics clean = ExecutePlan(shape.t->plan, parallel);
        ExpectMetricsEqual(base, clean, what + " follow-up");
      }
    }
  }
}

/// An already-expired deadline stops the plan before (or within one stride
/// of) any real work, with kDeadlineExceeded as the first error.
TEST(MidDrainCancellation, ExpiredDeadlineStopsExecution) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto t = MakeStarPlan();

  ExecutionOptions options = t->options;
  options.exec.threads = 4;
  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  options.context = &ctx;
  (void)ExecutePlan(t->plan, options);
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
}

/// One worker runs inline on the caller and spawns no pool task, so an
/// armed worker-task fault never fires at threads == 1: every shape
/// completes OK and bit-exact.
TEST(MidDrainCancellation, SingleWorkerSpawnsNoPoolTask) {
  FaultGuard fault_guard;
  std::vector<std::unique_ptr<PlanUnderTest>> shapes;
  shapes.push_back(MakeStarPlan());
  shapes.push_back(MakeSnowflakePlan());
  shapes.push_back(MakeBushyPlan());
  for (const auto& t : shapes) {
    ExecutionOptions single = t->options;
    single.exec.threads = 1;
    const QueryMetrics base = ExecutePlan(t->plan, single);

    QueryContext ctx;
    single.context = &ctx;
    FaultInjector::Global().Arm(FaultInjector::Site::kWorkerTask, 1);
    const QueryMetrics m = ExecutePlan(t->plan, single);
    EXPECT_EQ(FaultInjector::Global().injected(), 0);
    FaultInjector::Global().DisarmAll();
    EXPECT_TRUE(ctx.status().ok()) << ctx.status().message();
    ExpectMetricsEqual(base, m, "worker_task armed at threads=1");
  }
}

/// The fold site fires at threads == 1 as well: it cancels the query with
/// the injected error, and the next clean run is bit-exact.
TEST(MidDrainCancellation, FoldFaultCancelsASingleWorkerQuery) {
  FaultGuard fault_guard;
  std::vector<std::unique_ptr<PlanUnderTest>> shapes;
  shapes.push_back(MakeStarPlan());
  shapes.push_back(MakeSnowflakePlan());
  shapes.push_back(MakeBushyPlan());
  for (const auto& t : shapes) {
    ExecutionOptions single = t->options;
    single.exec.threads = 1;
    const QueryMetrics base = ExecutePlan(t->plan, single);

    QueryContext ctx;
    single.context = &ctx;
    FaultInjector::Global().Arm(FaultInjector::Site::kAggregateFold, 1);
    (void)ExecutePlan(t->plan, single);
    EXPECT_GT(FaultInjector::Global().injected(), 0);
    FaultInjector::Global().DisarmAll();
    EXPECT_TRUE(ctx.IsCancelled());
    EXPECT_TRUE(ctx.status().IsInternal());
    EXPECT_NE(ctx.status().message().find("aggregate_fold"),
              std::string::npos);

    single.context = nullptr;
    const QueryMetrics clean = ExecutePlan(t->plan, single);
    ExpectMetricsEqual(base, clean, "after a fold fault at threads=1");
  }
}

// ---- The aggregate's top pipeline on a pinned pool ----

/// Harness: an aggregate folding SUM(measure) GROUP BY d0_fk over a bare
/// scan of the fact table at threads 2, on a pool of 1 whose only worker
/// is pinned by a blocker task. The worker tasks Open() queues can then
/// only run inline, on the thread that waits for them (TaskGroup::Wait
/// helps): Open() must finish without the pool. After Open() returns no
/// worker is left queued.
class PinnedPoolAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkerPool::ResetGlobal(1);
    db_ = MakeStarDb(1, 20000, 200, {-1.0}, 515);
    fact_ = db_->catalog.GetTable("f").value();
    runtime_.context = &ctx_;

    const int fk = fact_->ColumnIndex("d0_fk");
    const int measure = fact_->ColumnIndex("measure");
    OutputSchema schema({ColumnRef{0, fk}, ColumnRef{0, measure}});
    auto scan = std::make_unique<ScanOperator>(
        fact_, nullptr, nullptr, schema, std::vector<ResolvedFilter>{},
        &runtime_, "scan f");
    scan_ = scan.get();
    AggSpec agg;
    agg.kind = AggKind::kSum;
    agg.sum_column = BoundColumn{0, "measure", measure};
    agg.has_group_by = true;
    agg.group_column = BoundColumn{0, "d0_fk", fk};
    ExecConfig config;
    config.threads = 2;
    config.morsel_rows = 1024;
    agg_ = std::make_unique<AggregateOperator>(std::move(scan), agg, config);

    // Pin the pool's single worker BEFORE Open queues the worker tasks.
    blocker_ = std::make_unique<WorkerPool::TaskGroup>(&WorkerPool::Global());
    std::promise<void> occupied;
    released_ = std::make_shared<std::promise<void>>();
    std::shared_future<void> release_future(released_->get_future());
    blocker_->Spawn([&occupied, release_future] {
      occupied.set_value();
      release_future.wait();
    });
    occupied.get_future().wait();
  }

  void TearDown() override {
    released_->set_value();
    // Destruction order matters: the TaskGroup must die before ResetGlobal
    // destroys the pool it points into (~TaskGroup Waits on the pool's
    // mutex).
    blocker_.reset();
    agg_->Close();
    agg_.reset();
    WorkerPool::ResetGlobal(0);
  }

  std::unique_ptr<TestDb> db_;
  const Table* fact_ = nullptr;
  QueryContext ctx_;
  FilterRuntime runtime_;
  ScanOperator* scan_ = nullptr;  ///< owned by agg_
  std::unique_ptr<AggregateOperator> agg_;
  std::unique_ptr<WorkerPool::TaskGroup> blocker_;
  std::shared_ptr<std::promise<void>> released_;
};

TEST_F(PinnedPoolAggregateTest, OpenFoldsEveryRowWithoutThePool) {
  agg_->Open();
  EXPECT_EQ(agg_->stats().agg_rows_folded, fact_->num_rows());
  EXPECT_EQ(agg_->stats().parallel_workers, 2);
  EXPECT_EQ(scan_->stats().rows_prefilter, fact_->num_rows());

  // The merged result is the grouped sum over the whole table: group
  // count, total, and the order-independent checksum of (group, sum).
  const Column& key = fact_->column(fact_->ColumnIndex("d0_fk"));
  const Column& measure = fact_->column(fact_->ColumnIndex("measure"));
  std::unordered_map<int64_t, int64_t> expected;
  int64_t total = 0;
  for (int64_t r = 0; r < fact_->num_rows(); ++r) {
    expected[key.GetInt64(r)] += measure.GetInt64(r);
    total += measure.GetInt64(r);
  }
  uint64_t checksum = 0;
  for (const auto& [g, v] : expected) {
    checksum += Mix64(HashCombine(HashValue(static_cast<uint64_t>(g)),
                                  static_cast<uint64_t>(v)));
  }
  EXPECT_EQ(agg_->NumGroups(), static_cast<int64_t>(expected.size()));
  EXPECT_EQ(agg_->TotalValue(), total);
  EXPECT_EQ(agg_->ResultChecksum(), checksum);
  EXPECT_TRUE(ctx_.status().ok());
}

TEST_F(PinnedPoolAggregateTest, CancelBeforeOpenFoldsNothing) {
  ctx_.Cancel(Status::Cancelled("client went away"));
  agg_->Open();
  // Every worker sees the cancel at its first stop point, before claiming
  // a morsel: the run returns without scanning.
  EXPECT_EQ(agg_->NumGroups(), 0);
  EXPECT_EQ(agg_->stats().agg_rows_folded, 0);
  EXPECT_EQ(scan_->stats().rows_prefilter, 0);
  EXPECT_TRUE(ctx_.status().IsCancelled());
}

TEST_F(PinnedPoolAggregateTest, ExpiredDeadlineSelfCancelsTheRun) {
  ctx_.SetDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  // Nobody cancels explicitly: the first worker to poll the context
  // notices the deadline and cancels the query.
  agg_->Open();
  EXPECT_EQ(agg_->stats().agg_rows_folded, 0);
  EXPECT_EQ(scan_->stats().rows_prefilter, 0);
  EXPECT_TRUE(ctx_.IsCancelled());
  EXPECT_TRUE(ctx_.status().IsDeadlineExceeded());
}

// ---- QueryService: deadlines, shedding, bounded waits, fault recovery ----

std::unique_ptr<TestDb> MakeServiceDb() {
  return MakeStarDb(2, 15000, 250, {0.4, 0.5}, 313, /*zipf=*/0.5);
}

TEST(QueryServiceResilience, ExpiredClientDeadlineIsTimedOutNotServed) {
  auto db = MakeServiceDb();
  QueryService service(&db->catalog, QueryServiceOptions{});

  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  const QueryResult r = service.Execute(db->spec, &ctx);
  EXPECT_TRUE(r.status.IsDeadlineExceeded());
  EXPECT_EQ(r.metrics.result_rows, 0);  // never planned, never ran

  // A fresh query right after is served normally.
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(service.queries_served(), 1);
}

TEST(QueryServiceResilience, DefaultDeadlineCoversSlowAdmittedQueries) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.default_deadline_ms = 10;
  // Deterministic "slow query": park after admission until well past the
  // deadline; the pre-planning ShouldStop must then stop it.
  options.post_admit_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  QueryService service(&db->catalog, options);

  const QueryResult r = service.Execute(db->spec);
  EXPECT_TRUE(r.status.IsDeadlineExceeded());
  EXPECT_EQ(service.serving_stats().timed_out, 1);
}

TEST(QueryServiceResilience, FullAdmissionQueueShedsImmediately) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;
  options.admission_queue_limit = 0;  // run-or-shed: nobody waits

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    // Only the first (occupying) query parks; follow-ups run through.
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  // House full, queue bound 0: shed synchronously, no waiting.
  const QueryResult shed = service.Execute(db->spec);
  EXPECT_TRUE(shed.status.IsResourceExhausted());

  release_promise.set_value();
  occupant.join();

  // Capacity was not leaked: the service keeps serving.
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.Total(), 3);
}

/// Admission writes its gauges where active/waiting/peak change, so a
/// plain registry Snapshot() — with no DumpMetrics call first — sees a
/// query parked after admission as active.
TEST(QueryServiceResilience, SnapshotReadsLiveAdmissionGauges) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  options.post_admit_hook = [&] {
    admitted_promise.set_value();
    release.wait();
  };
  QueryService service(&db->catalog, options);
  const auto gauge = [&service](const std::string& name) {
    for (const MetricSnapshot& m : service.metrics_registry().Snapshot()) {
      if (m.name == name) return m.value;
    }
    return int64_t{-1};
  };

  std::thread parked(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();
  EXPECT_EQ(gauge("bqo_admission_active"), 1);
  EXPECT_EQ(gauge("bqo_admission_waiting"), 0);
  EXPECT_EQ(gauge("bqo_admission_peak"), 1);

  release_promise.set_value();
  parked.join();
  EXPECT_EQ(gauge("bqo_admission_active"), 0);
  EXPECT_EQ(gauge("bqo_admission_peak"), 1);
}

TEST(QueryServiceResilience, AdmissionWaitIsBoundedByServiceTimeout) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;
  options.admission_timeout_ms = 30;

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  // Queue is unbounded, so this waits — but only up to the timeout.
  const QueryResult timed_out = service.Execute(db->spec);
  EXPECT_TRUE(timed_out.status.IsDeadlineExceeded());

  release_promise.set_value();
  occupant.join();
  EXPECT_EQ(service.serving_stats().timed_out, 1);
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
}

TEST(QueryServiceResilience, CancelWakesAdmissionWaiter) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;  // no timeout, no queue bound

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  QueryContext waiter_ctx;
  std::promise<QueryResult> waiter_result;
  std::thread waiter([&] {
    waiter_result.set_value(service.Execute(db->spec, &waiter_ctx));
  });

  // The waiter parks on the admission CV (unbounded, no timeout). Cancel
  // must wake it promptly — the occupant is still holding the only slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  waiter_ctx.Cancel(Status::Cancelled("client disconnected"));

  auto fut = waiter_result.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "admission waiter stayed parked after Cancel";
  EXPECT_TRUE(fut.get().status.IsCancelled());
  waiter.join();

  release_promise.set_value();
  occupant.join();
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.served, 1);
}

/// Faults injected through the service — at the planning surface and in
/// the engine mid-drain — surface in QueryResult::status, count as
/// failures, and leave pool + plan cache serving identical results.
TEST(QueryServiceResilience, InjectedFaultsDoNotPoisonTheService) {
  GlobalPoolGuard pool_guard;
  FaultGuard fault_guard;
  WorkerPool::ResetGlobal(4);

  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.execution.exec.threads = 4;
  options.max_workers_per_query = 4;
  // Build privately every run: the kWorkerTask/kFilterFill sites live in
  // the build drain and filter fill, which a build-cache hit skips — this
  // test is about faults on the engine path itself. Faults during *shared*
  // builds are covered by tests/test_shared_builds.cc.
  options.use_build_cache = false;
  QueryService service(&db->catalog, options);

  const QueryResult baseline = service.Execute(db->spec);
  ASSERT_TRUE(baseline.status.ok());

  int64_t expect_failed = 0;
  for (FaultInjector::Site site :
       {FaultInjector::Site::kPlanCacheLookup,
        FaultInjector::Site::kWorkerTask, FaultInjector::Site::kFilterFill,
        FaultInjector::Site::kAggregateFold}) {
    FaultInjector::Global().Arm(site, 1);
    const QueryResult faulted = service.Execute(db->spec);
    FaultInjector::Global().DisarmAll();
    EXPECT_TRUE(faulted.status.IsInternal())
        << FaultInjector::SiteName(site);
    ++expect_failed;

    const QueryResult after = service.Execute(db->spec);
    EXPECT_TRUE(after.status.ok()) << FaultInjector::SiteName(site);
    ExpectMetricsEqual(baseline.metrics, after.metrics,
                       std::string("after fault at ") +
                           FaultInjector::SiteName(site));
  }

  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.failed, expect_failed);
  EXPECT_EQ(stats.served, 1 + expect_failed);  // baseline + one per recovery
  EXPECT_EQ(stats.Total(), 1 + 2 * expect_failed);
  EXPECT_EQ(service.peak_concurrent(), 1);
}

TEST(QueryServiceResilience, ServingEnvOverrides) {
  // No env set: options pass through untouched.
  QueryServiceOptions base;
  base.default_deadline_ms = 7;
  base.admission_queue_limit = 3;
  const QueryServiceOptions same = ApplyServingEnvOverrides(base);
  EXPECT_EQ(same.default_deadline_ms, 7);
  EXPECT_EQ(same.admission_queue_limit, 3);

  ::setenv("BQO_DEADLINE_MS", "250", 1);
  ::setenv("BQO_ADMISSION_QUEUE", "0", 1);
  const QueryServiceOptions overridden = ApplyServingEnvOverrides(base);
  ::unsetenv("BQO_DEADLINE_MS");
  ::unsetenv("BQO_ADMISSION_QUEUE");
  EXPECT_EQ(overridden.default_deadline_ms, 250);
  EXPECT_EQ(overridden.admission_queue_limit, 0);  // "0" is meaningful
}

/// Sets an environment variable for its lifetime, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The README names the defaults "off" and "unbounded"; written into the
/// environment, those words keep the default instead of parsing as 0
/// (which would log every query, or shed whenever the house is full). So
/// does a build-cache bound whose byte count would overflow.
TEST(QueryServiceResilience, EnvWordsKeepDefaults) {
  const QueryServiceOptions defaults;
  {
    ScopedEnv slow("BQO_SLOW_QUERY_MS", "off");
    ScopedEnv deadline("BQO_DEADLINE_MS", "off");
    ScopedEnv queue("BQO_ADMISSION_QUEUE", "unbounded");
    ScopedEnv cap("BQO_PLAN_CACHE_CAP", "lots");
    ScopedEnv mb("BQO_BUILD_CACHE_MB", "9000000000000000");  // > 2^63 B
    const QueryServiceOptions o = ApplyServingEnvOverrides(defaults);
    EXPECT_EQ(o.slow_query_ms, defaults.slow_query_ms);
    EXPECT_EQ(o.default_deadline_ms, defaults.default_deadline_ms);
    EXPECT_EQ(o.admission_queue_limit, defaults.admission_queue_limit);
    EXPECT_EQ(o.plan_cache_capacity, defaults.plan_cache_capacity);
    EXPECT_EQ(o.build_cache_mb, defaults.build_cache_mb);
  }
  {
    ScopedEnv threads("BQO_THREADS", "four");
    ScopedEnv rows("BQO_MORSEL_ROWS", "1e6");
    const ExecConfig config = ExecConfigFromEnv();
    EXPECT_EQ(config.threads, ExecConfig{}.threads);
    EXPECT_EQ(config.morsel_rows, ExecConfig{}.morsel_rows);
  }
  {
    const int hardware =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    ScopedEnv pool("BQO_POOL_THREADS", "8 ");
    EXPECT_EQ(PoolThreadsFromEnv(), hardware);
    ScopedEnv zero("BQO_POOL_THREADS", "0");
    EXPECT_EQ(PoolThreadsFromEnv(), hardware);
  }
}

/// A typo in an env thread count is capped, never handed to the pool as
/// is. Only the resolved numbers are read: no pool is constructed.
TEST(QueryServiceResilience, EnvThreadCountsAreCapped) {
  ScopedEnv threads("BQO_THREADS", "40000");
  ScopedEnv pool("BQO_POOL_THREADS", "40000");
  EXPECT_EQ(ExecConfigFromEnv().ResolvedThreads(), kMaxEnvThreads);
  EXPECT_EQ(PoolThreadsFromEnv(), kMaxEnvThreads);

  ScopedEnv small("BQO_POOL_THREADS", "3");
  EXPECT_EQ(PoolThreadsFromEnv(), 3);
}

/// BQO_FAULT_EVERY parses whole integers only; anything else keeps the
/// default period of 1.
TEST(FaultInjector, EnvPeriodParsesWholeIntegersOnly) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::Global();
  ScopedEnv sites("BQO_FAULT_SITES", "worker_task");
  const auto first_fire = [&fi](const char* every) {
    ScopedEnv period("BQO_FAULT_EVERY", every);
    fi.DisarmAll();
    fi.ConfigureFromEnv();
    int fired_at = -1;
    for (int check = 1; check <= 10 && fired_at < 0; ++check) {
      if (!fi.Check(FaultInjector::Site::kWorkerTask).ok()) fired_at = check;
    }
    fi.DisarmAll();
    return fired_at;
  };
  EXPECT_EQ(first_fire("3"), 3);
  EXPECT_EQ(first_fire("3x"), 1);
  EXPECT_EQ(first_fire("often"), 1);
}

}  // namespace
}  // namespace bqo
