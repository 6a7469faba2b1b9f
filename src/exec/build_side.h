// JoinBuildSide: the immutable result of a hash join's build phase — the
// bucket-grouped hash table plus the bitvector filter created from it.
//
// The table is bucket-grouped, not bucket-chained: `entries` is sorted by
// bucket (a counting sort at construction), and bucket b's entries are the
// contiguous range [buckets[b], buckets[b + 1]). A probe row walks its
// bucket's duplicates and collisions as one sequential read, with no link
// to chase. Within a bucket the entries run in descending build order
// (last-built first), which fixes the order each probe row's matches are
// emitted in.
//
// Extracted from HashJoinOperator so the whole build result can be shared
// across queries through the server's BuildCache (src/server/build_cache.h):
// builds drain in canonical morsel order (pipeline.h), so the table — and
// the filter, whose fill replays the same canonical hash sequence — is
// byte-identical at any thread count, which is what makes a build produced
// by one query (at one worker share) safe to hand to another (at a
// different share) without perturbing any pinned parity invariant.
//
// Everything here is written once, by the constructing query, before the
// side is published or shared; afterwards it is read-only. The stats
// snapshot fields exist so a query served from the cache can report
// *as-if-built* metrics (FilterStats::inserted/size_bytes, the build scan's
// rows_out/rows_prefilter) identical to the query that actually built —
// keeping leaf_tuples and filter counters concurrency-invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/filter/bitvector_filter.h"

namespace bqo {

struct JoinBuildSide {
  /// Hash-table entry: the build row's composite key hash plus the
  /// row-major offset of its tuple in `rows`.
  struct Entry {
    uint64_t hash;
    int32_t row_start;  ///< offset into rows (row-major)
  };

  /// Bucket b's entries are entries[buckets[b] .. buckets[b + 1]); the
  /// bucket count (size - 1) is a power of two.
  std::vector<int32_t> buckets;
  std::vector<Entry> entries;    ///< grouped by bucket (see above)
  std::vector<int64_t> rows;     ///< row-major build tuples
  int width = 0;                 ///< columns per tuple in `rows`
  uint64_t bucket_mask = 0;

  /// The bitvector filter created from this build's keys, or null when the
  /// join creates none. Shared into FilterRuntime::slots read-only.
  std::shared_ptr<BitvectorFilter> filter;

  // ---- As-if-built stats snapshot (replayed on cache hits) ----
  int64_t filter_inserted = 0;
  int64_t filter_size_bytes = 0;
  int64_t scan_rows_out = 0;         ///< build scan's post-predicate rows
  int64_t scan_rows_prefilter = 0;   ///< build scan's pre-filter rows

  /// \brief Resident bytes of the table plus the filter — what the
  /// BuildCache's memory bound accounts.
  int64_t SizeBytes() const {
    int64_t bytes =
        static_cast<int64_t>(buckets.capacity() * sizeof(int32_t)) +
        static_cast<int64_t>(entries.capacity() * sizeof(Entry)) +
        static_cast<int64_t>(rows.capacity() * sizeof(int64_t));
    if (filter != nullptr) bytes += filter->SizeBytes();
    return bytes;
  }
};

/// \brief A valid empty build side (16 empty buckets, the minimum the
/// probe path indexes into: 17 zero offsets). Installed when a
/// cached/shared build could not be obtained — a cancelled flight — so
/// Close() and straggling probe calls stay well-defined while the query
/// unwinds; results are void.
inline std::shared_ptr<const JoinBuildSide> EmptyJoinBuildSide(int width) {
  auto side = std::make_shared<JoinBuildSide>();
  side->width = width;
  side->buckets.assign(17, 0);
  side->bucket_mask = 15;
  return side;
}

}  // namespace bqo
