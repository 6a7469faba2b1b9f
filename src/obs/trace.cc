#include "src/obs/trace.h"

#include <chrono>
#include <utility>

#include "src/common/string_util.h"
#include "src/common/thread_clock.h"

namespace bqo {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kAdmissionWait:
      return "admission_wait";
    case SpanKind::kPlanCacheLookup:
      return "plan_cache_lookup";
    case SpanKind::kRebind:
      return "rebind";
    case SpanKind::kOptimize:
      return "optimize";
    case SpanKind::kVerify:
      return "verify";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kBuildAcquire:
      return "build_acquire";
    case SpanKind::kBuild:
      return "build";
    case SpanKind::kOperator:
      return "operator";
    case SpanKind::kOther:
      return "other";
  }
  return "other";
}

QueryTrace::QueryTrace() {
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

int64_t QueryTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

int QueryTrace::BeginSpan(SpanKind kind, std::string name) {
  const int64_t cpu = ThreadCpuNanos();
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back().id;
  span.kind = kind;
  span.name = std::move(name);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  stack_.push_back(Open{spans_.back().id, cpu});
  return spans_.back().id;
}

void QueryTrace::EndSpan(int id) {
  const int64_t cpu = ThreadCpuNanos();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = NowNs();
  // Pop down to (and including) `id`; spans nested under a span being
  // closed out of order are closed as truncated — the owner unwound past
  // them.
  while (!stack_.empty()) {
    const Open open = stack_.back();
    stack_.pop_back();
    TraceSpan& span = spans_[static_cast<size_t>(open.id)];
    span.wall_ns = now - span.start_ns;
    if (open.id == id) {
      span.cpu_ns = cpu - open.cpu_start;
      return;
    }
    span.truncated = true;
    any_truncated_ = true;
  }
}

int QueryTrace::AddCompletedSpan(SpanKind kind, std::string name, int parent,
                                 int64_t wall_ns, int64_t cpu_ns,
                                 int64_t worker_cpu_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.id = static_cast<int>(spans_.size());
  span.parent =
      parent >= 0 ? parent : (stack_.empty() ? -1 : stack_.back().id);
  span.kind = kind;
  span.name = std::move(name);
  span.start_ns = NowNs();
  span.wall_ns = wall_ns;
  span.cpu_ns = cpu_ns;
  span.worker_cpu_ns = worker_cpu_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void QueryTrace::AddWorkerCpu(int id, int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && static_cast<size_t>(id) < spans_.size()) {
    spans_[static_cast<size_t>(id)].worker_cpu_ns += ns;
  }
}

void QueryTrace::Seal(bool ok, std::string status_message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) return;
  sealed_ = true;
  ok_ = ok;
  status_message_ = std::move(status_message);
  const int64_t now = NowNs();
  while (!stack_.empty()) {
    TraceSpan& span = spans_[static_cast<size_t>(stack_.back().id)];
    span.wall_ns = now - span.start_ns;
    span.truncated = true;
    any_truncated_ = true;
    stack_.pop_back();
  }
}

bool QueryTrace::complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_ && ok_ && !any_truncated_;
}

bool QueryTrace::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

std::string QueryTrace::status_message() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_message_;
}

std::vector<TraceSpan> QueryTrace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string RenderSpans(const std::vector<TraceSpan>& spans) {
  // Depth per span via its parent chain (parents always precede children).
  std::vector<int> depth(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    depth[i] = p >= 0 ? depth[static_cast<size_t>(p)] + 1 : 0;
  }
  std::string out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out += std::string(static_cast<size_t>(depth[i]) * 2, ' ');
    out += StringFormat("%s [%s] wall %.3f ms cpu %.3f ms",
                        s.name.c_str(), SpanKindName(s.kind),
                        static_cast<double>(s.wall_ns) / 1e6,
                        static_cast<double>(s.cpu_ns) / 1e6);
    if (s.worker_cpu_ns > 0) {
      out += StringFormat(" worker_cpu %.3f ms",
                          static_cast<double>(s.worker_cpu_ns) / 1e6);
    }
    if (s.truncated) out += " (truncated)";
    out += "\n";
  }
  return out;
}

std::string QueryTrace::ToString() const {
  std::vector<TraceSpan> snapshot = spans();
  std::string out = RenderSpans(snapshot);
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_ && !ok_) {
    out += StringFormat("(trace truncated: %s)\n", status_message_.c_str());
  }
  return out;
}

}  // namespace bqo
