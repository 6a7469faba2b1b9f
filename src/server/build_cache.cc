#include "src/server/build_cache.h"

#include <chrono>
#include <utility>

namespace bqo {

BuildCache::BuildCache(BuildCacheOptions options, MetricsRegistry* registry)
    : options_(options) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry = own_registry_.get();
  }
  lookups_ = registry->GetCounter("bqo_build_cache_lookups");
  hits_ = registry->GetCounter("bqo_build_cache_hits");
  misses_ = registry->GetCounter("bqo_build_cache_misses");
  single_flight_waits_ =
      registry->GetCounter("bqo_build_cache_single_flight_waits");
  evictions_ = registry->GetCounter("bqo_build_cache_evictions");
  invalidations_ = registry->GetCounter("bqo_build_cache_invalidations");
  entries_gauge_ = registry->GetGauge("bqo_build_cache_entries");
  bytes_gauge_ = registry->GetGauge("bqo_build_cache_bytes");
}

std::shared_ptr<const JoinBuildSide> BuildCache::GetOrBuild(
    const std::string& signature, int64_t version, QueryContext* ctx,
    const Builder& builder) {
  // Flights are keyed under the planning version: a query never joins a
  // construction bound to a different catalog snapshot than its plan.
  const std::string flight_key = std::to_string(version) + '|' + signature;
  bool counted_wait = false;

  std::unique_lock<std::mutex> lock(mu_);
  lookups_->Increment();
  if (version > seen_version_) {
    // The catalog moved on: resident builds bind the old snapshot's table
    // contents and must not serve newer plans. Executing queries keep
    // their shared_ptrs — nothing they probe is freed.
    if (seen_version_ >= 0) InvalidateLocked();
    seen_version_ = version;
  } else if (version < seen_version_) {
    // A straggler still executing under an older snapshot: build privately
    // — it may neither share the newer entries nor publish a stale one.
    misses_->Increment();
    lock.unlock();
    return builder();
  }

  for (;;) {
    auto it = entries_.find(signature);
    if (it != entries_.end()) {
      hits_->Increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.side;
    }

    auto fit = flights_.find(flight_key);
    if (fit == flights_.end()) break;  // no construction in flight: lead

    // ---- Waiter: park behind the leader and share its outcome ----
    if (!counted_wait) {
      counted_wait = true;
      single_flight_waits_->Increment();
    }
    std::shared_ptr<Flight> flight = fit->second;
    while (!flight->done && !flight->abandoned) {
      // The cooperative check runs unlocked: ShouldStop self-cancels on
      // deadline expiry and may invoke cancel listeners, which the
      // context's lock-ordering contract forbids under a held mutex.
      lock.unlock();
      const bool stop = CtxShouldStop(ctx);
      lock.lock();
      if (stop) {
        misses_->Increment();  // left without a result
        return nullptr;
      }
      if (flight->done || flight->abandoned) break;
      flight->cv.wait_for(lock, std::chrono::milliseconds(2));
    }
    if (flight->done) {
      if (flight->result != nullptr) {
        hits_->Increment();
        return flight->result;
      }
      // Fail-all: the construction itself failed (not the leader's
      // personal cancellation), so the error applies to every query that
      // needed this build. Cancel outside the cache lock.
      const Status failure = flight->status;
      misses_->Increment();
      lock.unlock();
      if (ctx != nullptr) ctx->Cancel(failure);
      return nullptr;
    }
    // Handoff: the leader was cancelled and abandoned the flight. Loop
    // around — re-check the cache, then race to lead with our own builder.
  }

  // ---- Leader: construct outside the lock ----
  auto flight = std::make_shared<Flight>();
  flights_[flight_key] = flight;
  misses_->Increment();  // this query pays the construction (or its failure)
  lock.unlock();

  std::shared_ptr<const JoinBuildSide> side = builder();
  bool handoff = false;
  Status failure;
  if (side == nullptr) {
    const Status st =
        ctx != nullptr ? ctx->status() : Status::Internal("build failed");
    if (st.IsCancelled() || st.IsDeadlineExceeded()) {
      // Personal failure: this query is over, but the build is still
      // wanted — hand the flight off instead of failing the waiters.
      handoff = true;
    } else {
      failure = st.ok() ? Status::Internal("build failed") : st;
    }
  }

  lock.lock();
  flights_.erase(flight_key);
  if (side != nullptr) {
    flight->result = side;
    flight->done = true;
    // Publish — unless the catalog moved on mid-construction (the waiters,
    // who planned under the same version, still share the result; it just
    // must not outlive its snapshot in the cache).
    if (version == seen_version_ && options_.max_bytes > 0) {
      lru_.push_front(signature);
      entries_[signature] = Slot{side, lru_.begin()};
      bytes_ += side->SizeBytes();
      EvictLocked();
      SetLevelGaugesLocked();
    }
  } else if (handoff) {
    flight->abandoned = true;
  } else {
    flight->done = true;
    flight->status = failure;
  }
  flight->cv.notify_all();
  return side;
}

void BuildCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateLocked();
}

BuildCacheStats BuildCache::stats() const {
  BuildCacheStats out;
  out.lookups = lookups_->Value();
  out.hits = hits_->Value();
  out.misses = misses_->Value();
  out.single_flight_waits = single_flight_waits_->Value();
  out.evictions = evictions_->Value();
  out.invalidations = invalidations_->Value();
  out.entries = entries_gauge_->Value();
  out.bytes = bytes_gauge_->Value();
  return out;
}

void BuildCache::InvalidateLocked() {
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  SetLevelGaugesLocked();
  invalidations_->Increment();
}

void BuildCache::SetLevelGaugesLocked() {
  entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  bytes_gauge_->Set(bytes_);
}

void BuildCache::EvictLocked() {
  // Walk the LRU tail toward the front, dropping entries until the bound
  // holds. Entries another query is executing (an external reference
  // beyond the cache's own) are skipped — the bound may be transiently
  // exceeded, but an in-use build is never dropped from the map.
  auto it = lru_.end();
  while (bytes_ > options_.max_bytes && it != lru_.begin()) {
    --it;
    auto sit = entries_.find(*it);
    if (sit->second.side.use_count() > 1) continue;  // in use: keep
    bytes_ -= sit->second.side->SizeBytes();
    evictions_->Increment();
    entries_.erase(sit);
    it = lru_.erase(it);
  }
}

}  // namespace bqo
