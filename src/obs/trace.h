// QueryTrace: per-query span tree — "where did this query's time go".
//
// A trace is a flat vector of spans with parent indices. Live spans are
// opened/closed on the query's driver thread (admission, planning, build
// drains, execution all run there), so a small mutex plus a current-span
// stack suffices: span creation happens per *phase*, never per batch, and
// the engine's hot paths (probe strides, morsel claims) are untouched.
// Per-operator aggregates are synthesized post-execution from the merged
// OperatorStats (executor.cc), which follow the engine's per-worker
// accumulate / merge-once discipline — so a trace's *structure* is
// pool-size-invariant by construction: pool size changes which OS threads
// drained a pipeline, never how many spans describe it. Worker CPU is
// folded into the owning span's worker_cpu_ns the same way PartialAggState
// partials merge: summed once, after the workers are joined.
//
// A span carries wall time, the opening thread's CPU time
// (src/common/thread_clock.h — immune to co-running queries), and the
// folded worker CPU. Spans still open when the trace is sealed (a
// cancelled, shed, or fault-struck query unwound before closing them) are
// marked truncated; the trace stays well-formed either way and records the
// query's final status.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bqo {

enum class SpanKind : uint8_t {
  kQuery,         ///< root span of a served query
  kAdmissionWait, ///< blocked in QueryService::Admit
  kPlanCacheLookup,
  kRebind,        ///< constant re-bind inside a shape hit
  kOptimize,      ///< full (re-)optimization on a miss/escalation
  kVerify,        ///< plan-cache check of a rebind (inside kRebind)
  kExecute,       ///< ExecutePlan Open..Close
  kBuildAcquire,  ///< BuildCache GetOrBuild (wait-or-build, hash joins)
  kBuild,         ///< build-side construction (drain + filter + bucketize)
  kOperator,      ///< post-hoc per-operator aggregate (open+next+close)
  kOther,
};

const char* SpanKindName(SpanKind kind);

struct TraceSpan {
  int id = -1;
  int parent = -1;  ///< index into the trace's span vector; -1 = root
  SpanKind kind = SpanKind::kOther;
  std::string name;
  int64_t start_ns = 0;  ///< relative to the trace's construction
  int64_t wall_ns = 0;
  /// CPU ns of the thread that opened the span, between open and close
  /// (0 for post-hoc synthesized spans — their CPU lives in the merged
  /// operator counters).
  int64_t cpu_ns = 0;
  /// Summed per-task thread-CPU ns of pool workers folded into this span
  /// (merge-once, like every engine counter).
  int64_t worker_cpu_ns = 0;
  /// Open at Seal(): the query unwound (cancel/deadline/fault) before the
  /// span closed; wall_ns covers open..seal.
  bool truncated = false;
};

class QueryTrace {
 public:
  QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// \brief Open a span as a child of the innermost open span (or as a
  /// root). Returns its id. Call from the query's driver thread; the
  /// matching EndSpan must run on the same thread (its CPU clock is the
  /// span's cpu_ns source).
  int BeginSpan(SpanKind kind, std::string name);

  /// \brief Close `id`, recording wall + thread-CPU deltas. Spans close
  /// LIFO (enforced by ScopedSpan); closing a non-innermost span closes
  /// the spans nested under it as truncated.
  void EndSpan(int id);

  /// \brief Append an already-measured span (post-hoc synthesis: the
  /// per-operator aggregates). `parent` < 0 parents it under the innermost
  /// open span.
  int AddCompletedSpan(SpanKind kind, std::string name, int parent,
                       int64_t wall_ns, int64_t cpu_ns,
                       int64_t worker_cpu_ns);

  /// \brief Fold pool-worker CPU into span `id` (call once per merge site,
  /// after the workers are joined).
  void AddWorkerCpu(int id, int64_t ns);

  /// \brief Close any spans still open (marking them truncated) and record
  /// the query's final status. Idempotent; the first call wins.
  void Seal(bool ok, std::string status_message);

  /// \brief True once Seal ran with ok=true and no span was truncated.
  bool complete() const;
  bool sealed() const;
  std::string status_message() const;

  /// \brief Snapshot of the span vector (copies; safe after Seal or from
  /// the owning thread at any time).
  std::vector<TraceSpan> spans() const;

  /// \brief Indented tree rendering (one span per line).
  std::string ToString() const;

 private:
  struct Open {
    int id;
    int64_t cpu_start;
  };

  int64_t NowNs() const;

  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::vector<Open> stack_;  ///< innermost open span at the back
  int64_t epoch_ns_ = 0;     ///< steady-clock origin
  bool sealed_ = false;
  bool ok_ = false;
  bool any_truncated_ = false;
  std::string status_message_;
};

/// \brief Render a span snapshot as an indented tree (shared by
/// QueryTrace::ToString and the EXPLAIN ANALYZE report).
std::string RenderSpans(const std::vector<TraceSpan>& spans);

/// \brief RAII span; null-tolerant (trace == nullptr is a no-op, so call
/// sites need no branching when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, SpanKind kind, std::string name)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->BeginSpan(kind, std::move(name));
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// \brief Close early (idempotent; the destructor then no-ops).
  void End() {
    if (trace_ != nullptr && id_ >= 0 && !ended_) {
      trace_->EndSpan(id_);
      ended_ = true;
    }
  }

  /// \brief Span id, or -1 when tracing is off. Stays valid after End()
  /// for parenting post-hoc spans.
  int id() const { return id_; }

 private:
  QueryTrace* trace_;
  int id_ = -1;
  bool ended_ = false;
};

}  // namespace bqo
