#include "src/filter/bloom_filter.h"

#include <cmath>
#include <iterator>

#include "src/common/bit_util.h"
#include "src/common/macros.h"

namespace bqo {

BloomFilter::BloomFilter(int64_t expected_keys, double bits_per_key)
    : BitvectorFilter(FilterKind::kBlockedBloom) {
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

void BloomFilter::Insert(uint64_t hash) {
  const uint8_t new_probes = BlockedBloomInsert(
      blocks_[blocked_bloom::BlockIndex(hash, block_mask_)], hash);
  // Count only inserts that logically add a key: if every bit was already
  // set the key was indistinguishable from present (a duplicate, or a key
  // the filter already can't reject), so n — the key count TheoreticalFpRate
  // and the cost model divide by — stays an (approximate) distinct count.
  if (new_probes != 0) {
    ++num_inserted_;
    if (tracking_) journal_.push_back(TrackedInsert{hash, new_probes});
  }
}

void BloomFilter::MergeFrom(const BitvectorFilter& other) {
  BQO_CHECK(other.kind() == kind());
  const auto& src = static_cast<const BloomFilter&>(other);
  BQO_CHECK(src.tracking_);
  BQO_CHECK_EQ(blocks_.size(), src.blocks_.size());
  // Count before ORing the bits: `this` still holds exactly the prefix
  // partitions' bits, so a journaled insert of `src` counts iff one of the
  // bits it newly set within its own partition is still unset here — which
  // is precisely the sequential rule "counts iff it sets a bit no earlier
  // insert set" applied across the partition boundary.
  for (const TrackedInsert& t : src.journal_) {
    const Block& block = blocks_[blocked_bloom::BlockIndex(t.hash, block_mask_)];
    if (!blocked_bloom::ScalarProbeBlock(block, t.hash, t.new_probes)) {
      ++num_inserted_;
    }
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    for (size_t w = 0; w < std::size(blocks_[b].words); ++w) {
      blocks_[b].words[w] |= src.blocks_[b].words[w];
    }
  }
}

double BloomFilter::TheoreticalFpRate() const {
  const double n = static_cast<double>(num_inserted_ < 1 ? 1 : num_inserted_);
  return ModelFpr(n, static_cast<double>(blocks_.size()) * 512.0);
}

double BloomFilter::ModelFpr(double keys, double bits) {
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

}  // namespace bqo
