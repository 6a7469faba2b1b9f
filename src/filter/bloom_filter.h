// Bloom filters: one class template, BloomFilter<Pattern>, over an array of
// 64-byte (cache-line) blocks. Every key maps to exactly one block, so a
// probe costs one cache miss — the design point of "Performance-Optimal
// Filtering" [24] and what commercial engines ship for bitvector filtering.
//
// The template owns what both Bloom kinds share: the power-of-two block
// array and its sizing rule, the rule that an insert counts only when it
// sets a new bit, the insert journal and MergeFrom's replay-then-OR. A
// bit-pattern policy decides which bits of the block a key sets (the
// Boost.Bloom filter<T, K, Subfilter> split):
//  * DoubleHashPattern (FilterKind::kBloom, the default and parity oracle):
//    k in [1, 4] serially double-hashed bits anywhere in the 512-bit block.
//  * SectorPattern (FilterKind::kBlockedBloom): one bit in each of the 8
//    words of one 256-bit sector, tested in a single AVX2 mask op (the
//    kernels in filter_kernels.h). Cheaper per probe, a higher FPR at
//    tight-to-moderate budgets.
// Each pattern also owns its FPR model, which both TheoreticalFpRate (at the
// filter's load) and the cost model's EstimatedFilterFpr (at design load)
// evaluate.
#pragma once

#include <cstdint>
#include <vector>

#include "src/filter/bitvector_filter.h"
#include "src/filter/filter_kernels.h"

namespace bqo {

/// The BitsSet mask that tests every probe of a key: the membership test.
inline constexpr uint8_t kAllProbes = 0xff;

/// Classical blocked Bloom: a key picks its block from the hash's low bits
/// and sets k bits h1 + i*h2 (mod 512) within it.
class DoubleHashPattern {
 public:
  static constexpr FilterKind kKind = FilterKind::kBloom;
  struct alignas(64) Block {
    uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };

  /// k = round(0.693 * bits_per_key) clamped to [1, 4] (see bloom_filter.cc
  /// for why).
  explicit DoubleHashPattern(double bits_per_key);

  static uint64_t BlockIndex(uint64_t hash, uint64_t block_mask) {
    return hash & block_mask;
  }
  int num_probes() const { return k_; }

  /// Sets the key's k bits; returns the new-probes mask (bit i set ⇔ probe
  /// i's bit was 0 before this insert).
  uint8_t Insert(Block& block, uint64_t hash) const;
  /// True iff every probe of `hash` flagged in `probe_mask` is set.
  bool BitsSet(const Block& block, uint64_t hash, uint8_t probe_mask) const;
  int ProbeBatch(const Block* blocks, uint64_t block_mask,
                 const uint64_t* hashes, uint16_t* sel, int num_sel) const;
  /// (1 - e^{-k n/m})^k for `keys` = n keys in `bits` = m bits, ignoring
  /// blocking effects.
  double Fpr(double keys, double bits) const;

 private:
  int k_;
};

/// Register-blocked Bloom (the boost.bloom fast_multiblock32 / Impala
/// design): a key picks its block from the hash's high bits, one of the
/// block's two 256-bit sectors, and one bit in each of the sector's 8 words,
/// so k is fixed at 8 and the space budget only sets the block count.
class SectorPattern {
 public:
  static constexpr FilterKind kKind = FilterKind::kBlockedBloom;
  using Block = blocked_bloom::BloomBlock;

  explicit SectorPattern(double /*bits_per_key*/) {}

  static uint64_t BlockIndex(uint64_t hash, uint64_t block_mask) {
    return blocked_bloom::BlockIndex(hash, block_mask);
  }
  int num_probes() const { return blocked_bloom::kProbesPerKey; }

  /// Tier-dispatched; returns the new-probes mask over the 8 sector words.
  uint8_t Insert(Block& block, uint64_t hash) const {
    return BlockedBloomInsert(block, hash);
  }
  bool BitsSet(const Block& block, uint64_t hash, uint8_t probe_mask) const {
    return blocked_bloom::ScalarProbeBlock(block, hash, probe_mask);
  }
  int ProbeBatch(const Block* blocks, uint64_t block_mask,
                 const uint64_t* hashes, uint16_t* sel, int num_sel) const {
    return BlockedBloomProbeBatch(blocks, block_mask, hashes, sel, num_sel);
  }
  /// Poisson mixture over sector occupancy: keys land in one of bits/256
  /// sectors, j resident keys leave a given word-bit set with probability
  /// 1 - (31/32)^j, and a false positive needs all 8 word-bits set.
  double Fpr(double keys, double bits) const;
};

template <typename Pattern>
class BloomFilter final : public BitvectorFilter {
 public:
  using Block = typename Pattern::Block;
  static_assert(sizeof(Block) == 64, "one cache line per block");

  /// \param expected_keys sizing hint (filter does not grow)
  /// \param bits_per_key  space budget, >= 1
  BloomFilter(int64_t expected_keys, double bits_per_key);

  void Insert(uint64_t hash) override;
  bool MayContain(uint64_t hash) const override {
    return pattern_.BitsSet(blocks_[Pattern::BlockIndex(hash, block_mask_)],
                            hash, kAllProbes);
  }
  int MayContainBatch(const uint64_t* hashes, uint16_t* sel,
                      int num_sel) const override {
    return pattern_.ProbeBatch(blocks_.data(), block_mask_, hashes, sel,
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

  int num_probes() const { return pattern_.num_probes(); }

  /// \brief The pattern's FPR model at the current load.
  double TheoreticalFpRate() const;

 private:
  /// One journaled counting insert: the key's hash plus a bitmask over its
  /// probes marking which ones it newly set.
  struct TrackedInsert {
    uint64_t hash;
    uint8_t new_probes;
  };

  Pattern pattern_;
  std::vector<Block> blocks_;
  uint64_t block_mask_ = 0;
  int64_t num_inserted_ = 0;
  bool tracking_ = false;
  std::vector<TrackedInsert> journal_;  ///< counting inserts, when tracking_
};

extern template class BloomFilter<DoubleHashPattern>;
extern template class BloomFilter<SectorPattern>;

/// \brief Devirtualized batch probe: the Bloom kinds are the production
/// defaults and the per-tuple filter-check cost (Cf in Section 6.3) is the
/// quantity Figure 7 profiles, so the hot paths (scan strides and join
/// residual strides) avoid the virtual dispatch for them (BloomFilter is
/// `final`, so the static_cast calls are direct; the sector pattern further
/// lands in the tier-dispatched SIMD kernel, filter_kernels.h).
inline int FilterMayContainBatch(const BitvectorFilter* filter,
                                 const uint64_t* hashes, uint16_t* sel,
                                 int num_sel) {
  switch (filter->kind()) {
    case FilterKind::kBloom:
      return static_cast<const BloomFilter<DoubleHashPattern>*>(filter)
          ->MayContainBatch(hashes, sel, num_sel);
    case FilterKind::kBlockedBloom:
      return static_cast<const BloomFilter<SectorPattern>*>(filter)
          ->MayContainBatch(hashes, sel, num_sel);
    default:
      return filter->MayContainBatch(hashes, sel, num_sel);
  }
}

}  // namespace bqo
