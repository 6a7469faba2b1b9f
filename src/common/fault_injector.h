// FaultInjector: deterministic fault injection for robustness testing of
// the serving stack.
//
// A production serving layer is judged on what happens when things go
// wrong mid-drain: does a failing worker task deadlock the pool, leak an
// admission slot, poison the plan cache, or skew the stats catalog? The
// injector lets tests (and the CI fault-smoke job) force that question at
// the engine's four structurally distinct failure surfaces:
//
//   kWorkerTask       — entry of a pipeline worker's pool task (threads
//                       > 1 only: one worker runs inline, as no task);
//                       the generic "a worker died" case.
//   kAggregateFold    — a pipeline worker about to fold a produced batch
//                       into its partial aggregate, at every thread count;
//                       at threads > 1 it fails with sibling workers live.
//   kFilterFill       — inside FillFilterParallel, mid bitvector build;
//                       fails between a join's table drain and its filter
//                       publication.
//   kPlanCacheLookup  — QueryService consulting the PlanCache; fails a
//                       query before any execution state exists.
//
// A fired fault is reported as Status::Internal("injected fault: <site>");
// the call site cancels the query's QueryContext with it (first-error-wins,
// query_context.h), so the fault unwinds exactly like a real mid-drain
// error and surfaces in QueryResult::status. The contract the tests pin:
// after ANY injected fault, the WorkerPool, PlanCache, and StatsCatalog
// keep serving subsequent queries with unchanged results.
//
// == Configuration ==
//
// Each site is armed with a period N: every Nth Check() at that site fires
// (N=1: every check). Counters are global atomics, so firing is
// deterministic in the total number of checks, not in thread interleaving.
// Tests call Arm()/DisarmAll() directly; binaries opt in via env knobs:
//
//   BQO_FAULT_SITES=worker_task,aggregate_fold,filter_fill,plan_cache
//   BQO_FAULT_EVERY=N        (default 1 when sites are set)
//
// (ConfigureFromEnv is called by bench_concurrent_queries; the library
// itself never reads the environment, so production embedders pay one
// relaxed load per stride-boundary check and nothing else.)
#pragma once

#include <atomic>
#include <cstdint>

#include "src/common/status.h"

namespace bqo {

class FaultInjector {
 public:
  enum class Site : int {
    kWorkerTask = 0,
    kAggregateFold,
    kFilterFill,
    kPlanCacheLookup,
  };
  static constexpr int kNumSites = 4;

  /// \brief The process-wide injector every hook point consults.
  static FaultInjector& Global();

  /// \brief OK unless `site` is armed and this is its Nth check; then a
  /// kInternal "injected fault" Status the caller must propagate (cancel
  /// the query context with it). Thread-safe; one relaxed load when the
  /// site is disarmed.
  Status Check(Site site);

  /// \brief Arm `site`: every `every`-th Check fires. 0 disarms the site.
  void Arm(Site site, int64_t every);
  /// \brief Disarm every site and zero the check/injection counters.
  void DisarmAll();

  /// \brief Total faults fired since the last DisarmAll.
  int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  /// \brief Checks seen at `site` since the last DisarmAll.
  int64_t checks(Site site) const;

  /// \brief Arm sites from BQO_FAULT_SITES / BQO_FAULT_EVERY (see header).
  void ConfigureFromEnv();

  static const char* SiteName(Site site);

 private:
  struct SiteState {
    std::atomic<int64_t> every{0};  ///< 0 = disarmed
    std::atomic<int64_t> count{0};
  };
  SiteState sites_[kNumSites];
  std::atomic<int64_t> injected_{0};
};

}  // namespace bqo
