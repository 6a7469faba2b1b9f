// Bitvector filters: probabilistic semi-join reduction structures.
//
// A filter is built from the equi-join key column(s) of a hash join's build
// side and probed with the corresponding probe-side column(s) (Algorithm 1
// of the paper). All implementations operate on 64-bit composite-key hashes
// produced by HashComposite(), so multi-column join keys (e.g. the filter
// built from A ⋈ C in the paper's Figure 1) are handled uniformly.
//
// Three kinds, one per FilterConfig::kind (the executor applies the
// configured kind uniformly to every filter it creates):
//  * ExactFilter (kExact) — a hash set; zero false positives. Realizes the
//    paper's "no false positives" assumption used in Theorems 4.1/5.1, and
//    is what the theorem-validation tests run with.
//  * BloomFilter<DoubleHashPattern> (kBloom) — classical cache-line-blocked
//    Bloom filter with serial double-hashed probes; the production default
//    and parity oracle, mirroring [7, 24].
//  * BloomFilter<SectorPattern> (kBlockedBloom) — register-blocked Bloom
//    (one 256-bit sector per key, all k bits tested in one AVX2 mask op).
//    Cheaper per probe, higher FPR at equal bits.
// Both Bloom kinds are one class template (bloom_filter.h); only the bit
// pattern a key sets within its 64-byte block differs.
//
// Every kind's inserts commute (set union / bitwise OR), so per-worker
// partials merged in partition order reproduce the sequential filter's
// membership and NumInserted exactly (MergeFrom; FillFilterParallel in
// src/exec/pipeline.h).
#pragma once

#include <cstdint>
#include <memory>

namespace bqo {

enum class FilterKind : uint8_t {
  kExact = 0,
  kBloom = 1,
  kBlockedBloom = 3,
};

const char* FilterKindName(FilterKind kind);

/// \brief Interface for bitvector filters over 64-bit key hashes.
class BitvectorFilter {
 public:
  explicit BitvectorFilter(FilterKind kind) : kind_(kind) {}
  virtual ~BitvectorFilter() = default;

  /// \brief Add a build-side key hash.
  virtual void Insert(uint64_t hash) = 0;

  /// \brief Probe: false means the key is definitely absent; true means it
  /// may be present (exactly present for ExactFilter).
  virtual bool MayContain(uint64_t hash) const = 0;

  /// \brief Batched probe over a selection vector.
  ///
  /// `hashes` is a position-aligned scratch array (see HashColumn /
  /// HashCompositeBatch); `sel` holds `num_sel` indices into it, sorted
  /// ascending. Survivor indices are compacted to the front of `sel`
  /// in place and the new count is returned. The pass set is required to
  /// be bit-identical to calling MayContain(hashes[sel[j]]) per index —
  /// implementations only add software prefetching, never change bits.
  ///
  /// Default: the scalar loop. Overrides overlap cache misses instead of
  /// serializing them: Bloom and Exact interleave (prefetch the line of key
  /// j+D while testing key j); the blocked Bloom tests a sector per key in
  /// one SIMD mask op.
  virtual int MayContainBatch(const uint64_t* hashes, uint16_t* sel,
                              int num_sel) const {
    int out = 0;
    for (int j = 0; j < num_sel; ++j) {
      const uint16_t s = sel[j];
      if (MayContain(hashes[s])) sel[out++] = s;
    }
    return out;
  }

  /// \brief Fold `other` — a filter of the same kind built over a partition
  /// of the same logical key set — into this filter, so that MayContain
  /// afterwards admits every key either operand admitted.
  ///
  /// Parallel hash-join builds create one filter per worker over a
  /// contiguous partition of the build keys and combine the partials through
  /// this (see FillFilterParallel in pipeline.h). NumInserted stays a
  /// logical-key count after the merge: duplicate keys across partitions
  /// must not be double counted — ExactFilter unions exactly, and the Bloom
  /// kinds reproduce the sequential new-bit count from the partial's insert
  /// journal, so a Bloom `other` must have been built with
  /// EnableInsertTracking().
  virtual void MergeFrom(const BitvectorFilter& other) = 0;

  /// \brief Make this filter a valid MergeFrom source: record what
  /// MergeFrom needs to reproduce the sequential NumInserted. Call before
  /// the first Insert. A no-op for kinds whose merge needs nothing extra
  /// (ExactFilter's set union).
  virtual void EnableInsertTracking() {}

  /// \brief True iff this implementation can never return a false positive.
  virtual bool exact() const = 0;

  /// \brief Non-virtual: the executor's hot path branches on this to
  /// devirtualize the Bloom probe (the Cf of Section 6.3).
  FilterKind kind() const { return kind_; }

  virtual int64_t SizeBytes() const = 0;

  /// \brief Number of keys logically added: Insert calls that changed what
  /// the filter can reject. Uniform across implementations — duplicate
  /// inserts never count (ExactFilter detects them exactly; Bloom counts an
  /// insert iff it set a new bit).
  /// This is the n that FP-rate formulas and the cost model divide by.
  virtual int64_t NumInserted() const = 0;

 private:
  FilterKind kind_;
};

struct FilterConfig {
  FilterKind kind = FilterKind::kBloom;
  /// Bloom (classical and blocked): bits per inserted key
  /// (8 => ~2% FP, 10 => ~1% FP for the classical kind; the blocked kind
  /// runs higher at equal bits — see SectorPattern::Fpr).
  double bloom_bits_per_key = 10.0;
};

/// \brief Create a filter sized for ~`expected_keys` insertions.
std::unique_ptr<BitvectorFilter> CreateFilter(const FilterConfig& config,
                                              int64_t expected_keys);

}  // namespace bqo
