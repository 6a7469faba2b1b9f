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
// Each bucket's first entry also records whether the bucket is *pure*:
// every entry in it has one hash. Duplicate-heavy builds are mostly pure
// buckets, so a single-key join that only counts a probe row's matches
// (hash_join.h) reads the count as the bucket's run length, O(1) per probe
// row, once the first entry's hash matches: with one key, equal hashes
// prove equal keys. A mixed bucket, or a multi-key join, counts by
// comparing entry by entry.
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

#include "src/common/bit_util.h"
#include "src/filter/bitvector_filter.h"

namespace bqo {

struct JoinBuildSide {
  /// Hash-table entry: the build row's composite key hash plus the
  /// row-major offset of its tuple in `rows`.
  struct Entry {
    uint64_t hash;
    int32_t row_start;  ///< offset into rows (row-major)
    /// On a bucket's first entry: 1 when every entry of the bucket has
    /// this entry's hash (a pure bucket), else 0. Unused elsewhere.
    uint32_t pure_bucket;
  };
  static_assert(sizeof(Entry) == 16, "the purity flag fills the padding");

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

  /// \brief Build the table over `rows` from its rows' key hashes, in
  /// build order: counting-sort the rows into buckets, then mark each
  /// bucket's purity in one sequential pass over `entries`.
  void Bucketize(const std::vector<uint64_t>& hashes) {
    // Each bucket's count lands in buckets[b]; the inclusive prefix sum
    // turns it into the bucket's end; placing rows in ascending build
    // order at --buckets[b] then leaves every bucket in descending build
    // order and buckets[b] at its start (buckets[num_buckets] stays the
    // entry count).
    const size_t num_rows = hashes.size();
    const uint64_t num_buckets =
        NextPow2(num_rows < 8 ? 16 : num_rows * 2);
    bucket_mask = num_buckets - 1;
    buckets.assign(num_buckets + 1, 0);
    int32_t* starts = buckets.data();
    for (const uint64_t h : hashes) ++starts[h & bucket_mask];
    int32_t end = 0;
    for (uint64_t b = 0; b <= num_buckets; ++b) {
      end += starts[b];
      starts[b] = end;
    }
    entries.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      entries[static_cast<size_t>(--starts[hashes[r] & bucket_mask])] =
          Entry{hashes[r], static_cast<int32_t>(r * static_cast<size_t>(width)),
                0};
    }
    // Purity: the entries of a bucket are contiguous and share their hash's
    // low bits, so one sequential pass checks each bucket's entries
    // against its first without touching empty buckets.
    for (size_t i = 0; i < num_rows;) {
      const uint64_t first = entries[i].hash;
      bool pure = true;
      size_t j = i + 1;
      for (; j < num_rows && ((entries[j].hash ^ first) & bucket_mask) == 0;
           ++j) {
        pure = pure && entries[j].hash == first;
      }
      entries[i].pure_bucket = pure ? 1 : 0;
      i = j;
    }
  }

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
