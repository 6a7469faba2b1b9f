#include "src/filter/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/common/bit_util.h"
#include "src/common/hash.h"
#include "src/common/macros.h"
#include "src/filter/probe_batch.h"

namespace bqo {

// ---- DoubleHashPattern

DoubleHashPattern::DoubleHashPattern(double bits_per_key) {
  // The information-theoretic optimum is k = 0.693 * bits/key, but probes
  // within a block are sequentially dependent, so past ~4 the extra probes
  // cost more CPU (Cf) than their FP reduction saves. Cap at 4 — the same
  // trade commercial blocked-Bloom implementations make. The lower clamp
  // matters too: round() alone hits k = 0 below ~0.72 bits/key, a filter
  // that sets no bits and admits everything, so if the bits_per_key >= 1.0
  // check in BloomFilter is ever relaxed this keeps the filter sound.
  k_ = std::clamp(static_cast<int>(std::lround(bits_per_key * 0.6931)), 1, 4);
}

uint8_t DoubleHashPattern::Insert(Block& block, uint64_t hash) const {
  // Double hashing within the block: bit_i = h1 + i*h2 (mod 512).
  uint64_t h1 = hash >> 17;
  const uint64_t h2 = (Mix64(hash) | 1);  // odd stride
  uint8_t new_probes = 0;
  for (int i = 0; i < k_; ++i) {
    const uint64_t bit = h1 & 511;
    const uint64_t mask = uint64_t{1} << (bit & 63);
    const uint64_t word = block.words[bit >> 6];
    new_probes |= static_cast<uint8_t>(static_cast<uint8_t>((word & mask) == 0)
                                       << i);
    block.words[bit >> 6] = word | mask;
    h1 += h2;
  }
  return new_probes;
}

bool DoubleHashPattern::BitsSet(const Block& block, uint64_t hash,
                                uint8_t probe_mask) const {
  uint64_t h1 = hash >> 17;
  const uint64_t h2 = (Mix64(hash) | 1);
  for (int i = 0; i < k_; ++i) {
    const uint64_t bit = h1 & 511;
    // The mask is consulted only on an unset bit, so the membership test
    // (kAllProbes) pays nothing for it on the probes that pass.
    if ((block.words[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0 &&
        (probe_mask & (1u << i)) != 0) {
      return false;
    }
    h1 += h2;
  }
  return true;
}

int DoubleHashPattern::ProbeBatch(const Block* blocks, uint64_t block_mask,
                                  const uint64_t* hashes, uint16_t* sel,
                                  int num_sel) const {
  // The scalar test (with its per-word early exit) measured faster here
  // than a branchless all-k-bits variant: most misses fail on the first
  // word, and the line is already prefetched, so the early exit saves the
  // serially dependent double-hash steps that dominate the test.
  return InterleavedProbeBatch(
      hashes, sel, num_sel,
      [blocks, block_mask](uint64_t h) {
        __builtin_prefetch(&blocks[BlockIndex(h, block_mask)], 0, 1);
      },
      [this, blocks, block_mask](uint64_t h) {
        return BitsSet(blocks[BlockIndex(h, block_mask)], h, kAllProbes);
      });
}

double DoubleHashPattern::Fpr(double keys, double bits) const {
  const double k = static_cast<double>(k_);
  return std::pow(1.0 - std::exp(-k * keys / bits), k);
}

// ---- SectorPattern

double SectorPattern::Fpr(double keys, double bits) const {
  // A probe key picks one of bits/256 sectors; with j keys resident there,
  // each of its 8 word-bits is set with probability 1 - (31/32)^j (inserts
  // pick one of 32 bit positions per word), and a false positive needs all
  // 8. Truncate the Poisson tail once the running mass covers ~all of it.
  const double lambda = keys / (bits / 256.0);
  double fpr = 0.0;
  double pois = std::exp(-lambda);  // P(j = 0)
  double mass = 0.0;
  double per_word = 0.0;  // 1 - (31/32)^j, updated incrementally
  for (int j = 0; j < 2048 && mass < 1.0 - 1e-12; ++j) {
    if (j > 0) {
      pois *= lambda / static_cast<double>(j);
      per_word = 1.0 - (1.0 - per_word) * (31.0 / 32.0);
    }
    double all_words = per_word;
    for (int w = 1; w < blocked_bloom::kWordsPerSector; ++w) {
      all_words *= per_word;
    }
    fpr += pois * all_words;
    mass += pois;
  }
  return fpr;
}

// ---- BloomFilter<Pattern>

template <typename Pattern>
BloomFilter<Pattern>::BloomFilter(int64_t expected_keys, double bits_per_key)
    : BitvectorFilter(Pattern::kKind), pattern_(bits_per_key) {
  BQO_CHECK(bits_per_key >= 1.0);
  // bits_per_key * n total bits, rounded up to a power-of-two count of
  // 512-bit blocks.
  const double total_bits =
      static_cast<double>(expected_keys < 16 ? 16 : expected_keys) *
      bits_per_key;
  const uint64_t num_blocks =
      NextPow2(static_cast<uint64_t>(std::ceil(total_bits / 512.0)));
  blocks_.assign(num_blocks, Block{});
  block_mask_ = num_blocks - 1;
}

template <typename Pattern>
void BloomFilter<Pattern>::Insert(uint64_t hash) {
  const uint8_t new_probes =
      pattern_.Insert(blocks_[Pattern::BlockIndex(hash, block_mask_)], hash);
  // Count only inserts that logically add a key: if every bit was already
  // set the key was indistinguishable from present (a duplicate, or a key
  // the filter already can't reject), so n — the key count TheoreticalFpRate
  // and the cost model divide by — stays an (approximate) distinct count.
  if (new_probes != 0) {
    ++num_inserted_;
    if (tracking_) journal_.push_back(TrackedInsert{hash, new_probes});
  }
}

template <typename Pattern>
void BloomFilter<Pattern>::MergeFrom(const BitvectorFilter& other) {
  BQO_CHECK(other.kind() == Pattern::kKind);
  const auto& src = static_cast<const BloomFilter&>(other);
  BQO_CHECK(src.tracking_);
  BQO_CHECK_EQ(blocks_.size(), src.blocks_.size());
  BQO_CHECK_EQ(num_probes(), src.num_probes());
  // Count before ORing the bits: `this` still holds exactly the prefix
  // partitions' bits, so a journaled insert of `src` counts iff one of the
  // bits it newly set within its own partition is still unset here — which
  // is precisely the sequential rule "counts iff it sets a bit no earlier
  // insert set" applied across the partition boundary.
  for (const TrackedInsert& t : src.journal_) {
    const Block& block = blocks_[Pattern::BlockIndex(t.hash, block_mask_)];
    if (!pattern_.BitsSet(block, t.hash, t.new_probes)) ++num_inserted_;
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    for (size_t w = 0; w < std::size(blocks_[b].words); ++w) {
      blocks_[b].words[w] |= src.blocks_[b].words[w];
    }
  }
}

template <typename Pattern>
double BloomFilter<Pattern>::TheoreticalFpRate() const {
  const double n = static_cast<double>(num_inserted_ < 1 ? 1 : num_inserted_);
  return pattern_.Fpr(n, static_cast<double>(blocks_.size()) * 512.0);
}

template class BloomFilter<DoubleHashPattern>;
template class BloomFilter<SectorPattern>;

}  // namespace bqo
