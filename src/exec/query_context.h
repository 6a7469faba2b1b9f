// QueryContext: per-query cooperative cancellation, deadline, and
// first-error propagation — the execution engine's failure domain.
//
// One QueryContext exists per query execution (QueryService::Execute makes
// one per request; ExecutePlan makes a private one when the caller passed
// none). It is threaded through the compiled operator tree via
// FilterRuntime::context (operator.h), so every drain loop in the engine —
// scan morsel claims and strides, pipeline workers, build drains, filter
// fills — can poll it at stride boundaries:
//
//   if (CtxShouldStop(ctx)) break;   // unwind; results are void
//
// == First-error-wins ==
//
// Cancel(status) records the *first* non-OK Status and raises the
// cancellation flag; later Cancel calls are no-ops. Every cooperative
// check observes the flag (one relaxed atomic load on the hot path), so
// one failing worker cancels its siblings, the drains unwind in bounded
// time — within one stride / morsel per worker, plus any single
// non-preemptible step such as hashing a build side — and the originating Status
// (kCancelled, kDeadlineExceeded, or an injected fault) surfaces to the
// client in QueryResult::status. A cancelled query produces garbage
// partial aggregates; callers must treat its results as void whenever
// status() is non-OK.
//
// == Deadlines ==
//
// SetDeadline installs an absolute steady-clock deadline *before* the
// context is shared with workers (it is not synchronized for concurrent
// writes). ShouldStop() self-cancels with kDeadlineExceeded once the
// deadline passes, so deadline expiry needs no watchdog thread: whichever
// worker (or parked consumer, via a deadline-aware wait) notices first
// cancels everyone else through the flag.
//
// == Cancel listeners ==
//
// Cooperative polling cannot wake a thread parked in a condition-variable
// wait (a client waiting for admission).
// Such waiters register a cancel listener — typically "lock my mutex,
// notify my CV" — which Cancel() invokes under the context mutex, so
// RemoveCancelListener() (same mutex) cannot return while a callback is
// mid-flight and a listener never outlives its owner. Lock ordering:
// Cancel holds the context mutex and then takes the listener's mutex, so
// listeners must be registered/removed *without* holding that mutex, and
// no code may call into the context while holding it except flag-only
// reads (IsCancelled).
// == Tracing ==
//
// The context optionally owns the query's QueryTrace (src/obs/trace.h).
// AttachTrace is called once, by the owner, before the context is shared;
// trace() is then a plain pointer read, null when tracing is off — every
// instrumentation site is null-tolerant, so the off path costs one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/status.h"
#include "src/obs/trace.h"

namespace bqo {

class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// \brief Install an absolute deadline. Call before execution starts
  /// (not synchronized against concurrent readers racing the set itself).
  void SetDeadline(std::chrono::steady_clock::time_point deadline);
  /// \brief Convenience: deadline `ms` milliseconds from now.
  void SetDeadlineAfterMs(int64_t ms);
  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }
  /// \brief Meaningful only when has_deadline().
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// \brief First-error-wins: record `status` (must be non-OK) and raise
  /// the cancellation flag; runs registered listeners. Later calls no-op.
  void Cancel(Status status);

  /// \brief Flag-only check: one acquire load. Safe anywhere, including
  /// under locks that a cancel listener also takes.
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// \brief The cooperative stride-boundary check: true once the query is
  /// cancelled or its deadline has passed (self-cancelling with
  /// kDeadlineExceeded on first notice). May invoke cancel listeners — do
  /// not call while holding a mutex a listener takes.
  bool ShouldStop();

  /// \brief OK until Cancel; afterwards the first error, stable forever.
  Status status() const;

  /// \brief Register `fn` to run on cancellation (invoked immediately if
  /// already cancelled). Returns a token for RemoveCancelListener.
  int64_t AddCancelListener(std::function<void()> fn);
  /// \brief Unregister; blocks until no invocation of `fn` is in flight,
  /// so the listener's captures may be destroyed right after this returns.
  void RemoveCancelListener(int64_t token);

  /// \brief Give the context ownership of the query's trace. Call once,
  /// before the context is shared with workers (plain pointer write, not
  /// synchronized against concurrent trace() readers racing the attach).
  void AttachTrace(std::unique_ptr<QueryTrace> trace) {
    trace_ = std::move(trace);
  }
  /// \brief The query's trace, or null when tracing is off.
  QueryTrace* trace() const { return trace_.get(); }
  /// \brief Take the trace back (the context may be client-owned and
  /// reused; the service detaches the sealed trace into the QueryResult).
  std::unique_ptr<QueryTrace> DetachTrace() { return std::move(trace_); }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};

  mutable std::mutex mu_;
  Status status_;  ///< first error; guarded by mu_
  std::map<int64_t, std::function<void()>> listeners_;  ///< guarded by mu_
  int64_t next_listener_token_ = 0;                     ///< guarded by mu_

  std::unique_ptr<QueryTrace> trace_;  ///< set once before sharing
};

/// \brief Null-tolerant trace accessor (mirrors CtxShouldStop below).
inline QueryTrace* CtxTrace(QueryContext* ctx) {
  return ctx != nullptr ? ctx->trace() : nullptr;
}

/// \brief Null-tolerant stride-boundary check (contexts are optional on
/// direct ExecutePlan paths and in operator unit tests).
inline bool CtxShouldStop(QueryContext* ctx) {
  return ctx != nullptr && ctx->ShouldStop();
}

}  // namespace bqo
