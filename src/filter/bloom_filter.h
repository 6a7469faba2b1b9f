// The Bloom filter: a register-blocked ("sector") Bloom filter over an
// array of 64-byte (cache-line) blocks. Every key maps to exactly one block,
// so a probe costs one cache miss — the design point of "Performance-Optimal
// Filtering" [24] and what commercial engines ship for bitvector filtering.
//
// Within its block a key picks one of two 256-bit sectors and sets one bit
// in each of the sector's 8 words (k = 8, the boost.bloom
// fast_multiblock32 / Impala design), so a probe is one AVX2 mask test (the
// tier-dispatched kernels in filter_kernels.h, whose scalar and AVX2 tiers
// are bit-identical and each other's parity oracle). The space budget only
// sets the block count.
//
// The class also owns the rule that an insert counts only when it sets a
// new bit, the insert journal and MergeFrom's replay-then-OR, and the FPR
// model that both TheoreticalFpRate (at the filter's load) and the cost
// model's EstimatedFilterFpr (at design load) evaluate.
#pragma once

#include <cstdint>
#include <vector>

#include "src/filter/bitvector_filter.h"
#include "src/filter/filter_kernels.h"

namespace bqo {

class BloomFilter final : public BitvectorFilter {
 public:
  using Block = blocked_bloom::BloomBlock;
  static_assert(sizeof(Block) == 64, "one cache line per block");

  /// \param expected_keys sizing hint (filter does not grow)
  /// \param bits_per_key  space budget, >= 1
  BloomFilter(int64_t expected_keys, double bits_per_key);

  void Insert(uint64_t hash) override;
  bool MayContain(uint64_t hash) const override {
    return blocked_bloom::ScalarProbeBlock(
        blocks_[blocked_bloom::BlockIndex(hash, block_mask_)], hash);
  }
  int MayContainBatch(const uint64_t* hashes, uint16_t* sel,
                      int num_sel) const override {
    return BlockedBloomProbeBatch(blocks_.data(), block_mask_, hashes, sel,
                                  num_sel);
  }
  /// Bitwise-OR of the blocks (both filters must share the geometry; the
  /// parallel build sizes every partial for the full build side). Because
  /// Insert only ever ORs bits, the merged contents are bit-identical to one
  /// sequential build over the concatenated key streams in any merge order.
  ///
  /// `other` must have been built with EnableInsertTracking(): its journal
  /// is replayed against this filter's pre-merge bits, which — when
  /// partials are merged in partition order — reproduces the sequential
  /// new-bit count exactly (a journaled insert counts iff one of the bits it
  /// newly set within its partition is still unset in the merged prefix).
  void MergeFrom(const BitvectorFilter& other) override;

  /// Journal every counting insert (its hash plus which of its probes it
  /// newly set) so MergeFrom can reproduce the sequential NumInserted.
  void EnableInsertTracking() override { tracking_ = true; }

  bool exact() const override { return false; }
  int64_t SizeBytes() const override {
    return static_cast<int64_t>(blocks_.size() * sizeof(Block));
  }
  /// Keys logically added (see BitvectorFilter::NumInserted): an insert
  /// whose bits were all already set — a duplicate, or a key the filter
  /// already couldn't reject — doesn't count, so this approximates the
  /// distinct-key n that TheoreticalFpRate() divides by.
  int64_t NumInserted() const override { return num_inserted_; }

  /// \brief ModelFpr at the current load.
  double TheoreticalFpRate() const;

  /// \brief FPR model for `keys` keys in `bits` bits: a Poisson mixture over
  /// sector occupancy. Keys land in one of bits/256 sectors, j resident keys
  /// leave a given word-bit set with probability 1 - (31/32)^j, and a false
  /// positive needs all 8 word-bits set.
  static double ModelFpr(double keys, double bits);

 private:
  /// One journaled counting insert: the key's hash plus a bitmask over its
  /// probes marking which ones it newly set.
  struct TrackedInsert {
    uint64_t hash;
    uint8_t new_probes;
  };

  std::vector<Block> blocks_;
  uint64_t block_mask_ = 0;
  int64_t num_inserted_ = 0;
  bool tracking_ = false;
  std::vector<TrackedInsert> journal_;  ///< counting inserts, when tracking_
};

/// \brief Devirtualized batch probe: the Bloom filter is the production
/// default and the per-tuple filter-check cost (Cf in Section 6.3) is the
/// quantity Figure 7 profiles, so the hot paths (scan strides and join
/// residual strides) avoid the virtual dispatch for it (BloomFilter is
/// `final`, so the static_cast call is direct and lands in the
/// tier-dispatched SIMD kernel, filter_kernels.h).
inline int FilterMayContainBatch(const BitvectorFilter* filter,
                                 const uint64_t* hashes, uint16_t* sel,
                                 int num_sel) {
  if (filter->kind() == FilterKind::kBlockedBloom) {
    return static_cast<const BloomFilter*>(filter)->MayContainBatch(
        hashes, sel, num_sel);
  }
  return filter->MayContainBatch(hashes, sel, num_sel);
}

}  // namespace bqo
