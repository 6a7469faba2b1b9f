// Register-blocked Bloom filter: each key maps to one 64-byte block (chosen
// by the hash's high bits), one 32-byte sector within it, and exactly one
// bit in each of the sector's 8 words — so a probe touches one cache line
// and, on the AVX2 tier, tests all k = 8 bits with a single 256-bit mask op
// (the boost.bloom fast_multiblock32 / Impala design).
//
// Versus the classical BloomFilter (bloom_filter.h: 512-bit block, serial
// double-hashed probes), this kind buys a cheaper per-probe cost at a
// measurably higher false-positive rate for the same space: all k bits live
// in a 256-bit sector, so sector-level load variance compounds the blocking
// penalty. EstimatedFilterFpr (cost_model.h) models both curves for
// EXPLAIN ANALYZE; the classical kind stays the default, the parity oracle
// and the better-FPR choice.
#pragma once

#include <cstdint>
#include <vector>

#include "src/filter/bitvector_filter.h"
#include "src/filter/filter_kernels.h"

namespace bqo {

class BlockedBloomFilter final : public BitvectorFilter {
 public:
  /// \param expected_keys sizing hint (filter does not grow)
  /// \param bits_per_key  space budget; k is fixed at 8 (one bit per sector
  ///                      word — the shape the single AVX2 mask op needs),
  ///                      so the budget only sets the block count.
  BlockedBloomFilter(int64_t expected_keys, double bits_per_key);

  void Insert(uint64_t hash) override;
  bool MayContain(uint64_t hash) const override;
  int MayContainBatch(const uint64_t* hashes, uint16_t* sel,
                      int num_sel) const override;
  /// Bitwise-OR of the 64-byte blocks; same geometry/merge-order contract as
  /// BloomFilter::MergeFrom, and the same journal-replay rule for
  /// NumInserted (a tracked insert counts iff one of the bits it newly set
  /// within its partition is still unset in the merged prefix).
  void MergeFrom(const BitvectorFilter& other) override;

  /// \brief Journal counting inserts so MergeFrom reproduces the sequential
  /// NumInserted. Call before the first Insert.
  void EnableInsertTracking() { tracking_ = true; }

  bool exact() const override { return false; }
  int64_t SizeBytes() const override {
    return static_cast<int64_t>(blocks_.size() *
                                sizeof(blocked_bloom::BloomBlock));
  }
  int64_t NumInserted() const override { return num_inserted_; }

  int num_probes() const { return blocked_bloom::kProbesPerKey; }
  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }

  /// \brief Model FP rate at the current load: a Poisson mixture over the
  /// key's sector occupancy — keys land in one of 2*blocks sectors, j
  /// resident keys leave a given word-bit set with prob 1-(31/32)^j, and a
  /// false positive needs all 8 word-bits set. This is the curve the cost
  /// model encodes for the blocked kind (EstimatedFilterFpr in
  /// cost_model.cc), deliberately above the classical filter's
  /// (1-e^{-kn/m})^k at equal bits.
  double TheoreticalFpRate() const;

 private:
  /// One journaled counting insert (see BloomFilter::TrackedInsert): the
  /// hash plus which of the 8 word-bits it newly set.
  struct TrackedInsert {
    uint64_t hash;
    uint8_t new_probes;
  };

  /// True iff every word-bit of `hash` flagged in `probe_mask` is set.
  bool ProbeBitsSet(uint64_t hash, uint8_t probe_mask) const;

  std::vector<blocked_bloom::BloomBlock> blocks_;
  uint64_t block_mask_ = 0;
  int64_t num_inserted_ = 0;
  bool tracking_ = false;
  std::vector<TrackedInsert> journal_;
};

}  // namespace bqo
