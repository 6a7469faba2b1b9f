// BuildCache: cross-query sharing of hash-join build sides with
// single-flight construction.
//
// Under concurrent serving, admitted queries over the same catalog rebuild
// identical build sides — the same dimension table drained, hashed,
// bucketized, and poured into the same bitvector filter, once per query.
// The paper amortizes filter construction across probes (Section 6.3's
// cost model charges the build once against every probe it saves); this
// cache amortizes it across *queries* as well: completed build results
// (src/exec/build_side.h) are memoized under a canonical build signature
// (src/optimizer/build_signature.h) and shared read-only.
//
// == Single-flight construction ==
//
// N queries that miss on the same signature at once must not build N
// times. The first becomes the **leader**: it registers a flight and runs
// its own builder closure outside the cache lock. Later arrivals become
// **waiters**: they park on the flight's condition variable (polling their
// own QueryContext so cancellation and deadlines stay cooperative) and
// share the leader's result when it lands. Flight resolution:
//
//   * success      — the result is handed to every waiter and published to
//                    the cache (unless the catalog version moved on while
//                    building, in which case the waiters — who planned
//                    under the same version — still get it, but nothing
//                    stale is published);
//   * leader cancelled / deadline — **handoff**: the flight is abandoned
//                    and one of the waiters loops around to lead with its
//                    own builder; the leader's personal failure never
//                    poisons the entry or the waiters;
//   * internal error (e.g. an injected kFilterFill fault) — **fail-all**:
//                    every current waiter's context is cancelled with the
//                    leader's status (the error is a property of the build,
//                    not of one query) and the flight is erased, so the
//                    next lookup starts a clean construction.
//
// == Lifetime, eviction, invalidation ==
//
// Entries are shared_ptr<const JoinBuildSide>: eviction or invalidation
// never frees a build an executing plan still probes — it only drops the
// cache's reference. The LRU eviction loop additionally skips entries with
// live external references (use_count > 1), so a memory-bounded cache
// under churn keeps in-use entries resident rather than thrashing them.
// Every entry and flight is keyed under the catalog version the query
// planned with: a lookup under a newer version flushes resident entries
// (one invalidation), and an older in-flight build neither joins a newer
// flight nor publishes into the newer cache.
//
// == Counters ==
//
// Every outcome is counted where it happens, as a registry counter
// (bqo_build_cache_<field>, src/obs/metrics_registry.h; entries and bytes
// are gauges, set wherever they change), so exports are monotonic and
// rate() works. stats() reads them back as BuildCacheStats
// (src/exec/metrics.h; see the invariants documented there).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/exec/build_side.h"
#include "src/exec/metrics.h"
#include "src/exec/query_context.h"
#include "src/obs/metrics_registry.h"

namespace bqo {

struct BuildCacheOptions {
  /// Memory bound on resident entries; LRU-evicted past it (in-use entries
  /// are skipped, so the bound can be transiently exceeded while every
  /// resident entry is being executed). <= 0 caches nothing — every
  /// lookup builds privately, single-flight still applies.
  int64_t max_bytes = 64ll << 20;
};

class BuildCache {
 public:
  /// Constructs the caller's build side; returns null when the query was
  /// cancelled (or failed) mid-construction — a partial build must never
  /// be published.
  using Builder = std::function<std::shared_ptr<const JoinBuildSide>()>;

  /// \brief Counters register in `registry` (borrowed; must outlive the
  /// cache), or in a registry of the cache's own when null.
  explicit BuildCache(BuildCacheOptions options,
                      MetricsRegistry* registry = nullptr);

  /// \brief Single-flight lookup-or-build (see the header comment).
  /// `version` is the catalog version the query planned under; `ctx` may
  /// be null (the lookup is then uncancellable, like a plain build).
  /// Returns the shared (or freshly built) side, or null when this query
  /// was cancelled — by its own deadline/client, or by a failed leader —
  /// before a result existed. A null return with an OK context does not
  /// happen.
  std::shared_ptr<const JoinBuildSide> GetOrBuild(const std::string& signature,
                                                  int64_t version,
                                                  QueryContext* ctx,
                                                  const Builder& builder);

  /// \brief Drop every resident entry (counted as one invalidation).
  /// In-flight constructions are unaffected: their queries planned under
  /// the version they carry and complete normally, they just no longer
  /// publish.
  void Invalidate();

  BuildCacheStats stats() const;

 private:
  /// One in-flight construction. Waiters hold a shared_ptr so the leader
  /// can erase the map entry while they are still reading the outcome.
  struct Flight {
    std::condition_variable cv;
    bool done = false;       ///< result or failure is final
    bool abandoned = false;  ///< leader cancelled: a waiter should take over
    std::shared_ptr<const JoinBuildSide> result;
    Status status;  ///< fail-all status when done && result == nullptr
  };

  struct Slot {
    std::shared_ptr<const JoinBuildSide> side;
    std::list<std::string>::iterator lru_pos;  ///< into lru_ (MRU front)
  };

  /// Flush resident entries; caller holds mu_.
  void InvalidateLocked();
  /// Mirror entries_/bytes_ into their gauges; caller holds mu_.
  void SetLevelGaugesLocked();
  /// Evict LRU entries past the memory bound, skipping in-use ones;
  /// caller holds mu_.
  void EvictLocked();

  const BuildCacheOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> entries_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  int64_t seen_version_ = -1;
  int64_t bytes_ = 0;  ///< resident entries' SizeBytes, under mu_

  std::unique_ptr<MetricsRegistry> own_registry_;  ///< when none was given
  Counter* lookups_;
  Counter* hits_;
  Counter* misses_;
  Counter* single_flight_waits_;
  Counter* evictions_;
  Counter* invalidations_;
  Gauge* entries_gauge_;
  Gauge* bytes_gauge_;
};

}  // namespace bqo
