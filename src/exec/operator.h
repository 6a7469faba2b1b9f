// Physical operator interface and the shared runtime state for bitvector
// filters.
//
// An operator has no batch-pulling Next(): every plan runs through one
// pipeline driver (pipeline.h). Open() is where work happens — a hash join
// drains its build pipeline there and the aggregate drains the plan's top
// pipeline — and the streaming operators (scans, hash-join probe sides)
// expose re-entrant per-worker entry points that the driver chains.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "src/exec/batch.h"
#include "src/exec/metrics.h"
#include "src/exec/query_context.h"
#include "src/filter/bitvector_filter.h"

namespace bqo {

class BuildCache;  // src/server/build_cache.h

/// \brief Shared runtime slots for bitvector filters, indexed by
/// PlanFilter::id. A slot stays null when the filter is pruned (Section 6.3)
/// or when execution is configured to ignore bitvectors (Table 4's
// "same plan, filters off" comparison); consumers skip null slots.
///
/// Slots are shared_ptr because a filter may be owned jointly with the
/// server's BuildCache (a cached build side shares its filter read-only
/// across queries); privately built filters simply have this runtime as
/// their only owner. Filters are immutable once their creating join's
/// Open() completes, so the sharing is data-race-free by construction.
///
/// Also carries the query's cancellation context: the runtime is the one
/// piece of shared per-execution state every compiled operator holds, so
/// it is how QueryContext reaches the drain loops (query_context.h).
struct FilterRuntime {
  std::vector<std::shared_ptr<BitvectorFilter>> slots;
  std::vector<FilterStats> stats;
  /// Borrowed; may be null (operator unit tests). ExecutePlan points this
  /// at ExecutionOptions::context, or at a private context when none given.
  QueryContext* context = nullptr;
  /// Cross-query build-side cache (borrowed; null = every join builds
  /// privately — the default for direct ExecutePlan callers). Set by the
  /// QueryService together with the catalog version its plan was bound
  /// under, so cached builds invalidate with the plans that reference them.
  BuildCache* build_cache = nullptr;
  int64_t catalog_version = 0;
};

/// \brief A filter application site resolved against an operator: which
/// runtime slot to probe and where its key columns live.
struct ResolvedFilter {
  int filter_id = -1;
  /// Positions of the probe-key columns. For scans these are base-table
  /// column indices; for joins, positions in the operator's output schema.
  std::vector<int> key_positions;
};

/// \brief RAII guard accumulating steady-clock wall time into `*ns`: an
/// operator's Open() and each pipeline stage call (pipeline.cc) measure
/// themselves with it.
class TimerGuard {
 public:
  explicit TimerGuard(int64_t* ns)
      : ns_(ns), start_(std::chrono::steady_clock::now()) {}
  ~TimerGuard() {
    *ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  }

 private:
  int64_t* ns_;
  std::chrono::steady_clock::time_point start_;
};

class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// \brief Run this operator's breaker work. Hash joins drain their build
  /// pipeline here before opening their probe child, so Open order
  /// realizes the filter-dependency order of Algorithm 1.
  virtual void Open() = 0;

  virtual void Close() = 0;

  const OutputSchema& output_schema() const { return schema_; }
  OperatorStats& stats() { return stats_; }
  const OperatorStats& stats() const { return stats_; }

  virtual std::vector<PhysicalOperator*> children() { return {}; }

 protected:
  OutputSchema schema_;
  OperatorStats stats_;
};

}  // namespace bqo
