#include "src/common/fault_injector.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/string_util.h"

namespace bqo {

namespace {

std::vector<std::string> SplitCommaList(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (; *s != '\0'; ++s) {
    if (*s == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (*s != ' ') {
      cur.push_back(*s);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

const char* FaultInjector::SiteName(Site site) {
  switch (site) {
    case Site::kWorkerTask:
      return "worker_task";
    case Site::kAggregateFold:
      return "aggregate_fold";
    case Site::kFilterFill:
      return "filter_fill";
    case Site::kPlanCacheLookup:
      return "plan_cache";
  }
  return "unknown";
}

Status FaultInjector::Check(Site site) {
  SiteState& s = sites_[static_cast<int>(site)];
  const int64_t every = s.every.load(std::memory_order_relaxed);
  if (every <= 0) return Status::OK();
  const int64_t n = s.count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % every != 0) return Status::OK();
  injected_.fetch_add(1, std::memory_order_relaxed);
  return Status::Internal(std::string("injected fault: ") + SiteName(site));
}

void FaultInjector::Arm(Site site, int64_t every) {
  SiteState& s = sites_[static_cast<int>(site)];
  s.count.store(0, std::memory_order_relaxed);
  s.every.store(every, std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  for (SiteState& s : sites_) {
    s.every.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
  }
  injected_.store(0, std::memory_order_relaxed);
}

int64_t FaultInjector::checks(Site site) const {
  return sites_[static_cast<int>(site)].count.load(std::memory_order_relaxed);
}

void FaultInjector::ConfigureFromEnv() {
  const char* sites = std::getenv("BQO_FAULT_SITES");
  if (sites == nullptr || *sites == '\0') return;
  int64_t every = 1;
  if (const auto e = EnvInt64("BQO_FAULT_EVERY"); e && *e > 0) every = *e;
  for (const std::string& name : SplitCommaList(sites)) {
    for (int i = 0; i < kNumSites; ++i) {
      const Site site = static_cast<Site>(i);
      if (name == SiteName(site)) Arm(site, every);
    }
  }
}

}  // namespace bqo
