// Runtime-dispatched per-tuple kernels: batched key hashing and the
// register-blocked Bloom block primitives.
//
// Every function here has a scalar body and (on x86-64) an AVX2 body that
// compute the SAME function bit for bit — the AVX2 hash kernels emulate the
// 64x64 multiplies of Mix64 with 32-bit partial products, and the AVX2
// blocked-Bloom ops derive the identical per-word bit positions as the
// scalar mirror. Dispatch happens once per *batch* call (one relaxed atomic
// load, see src/common/simd.h), never per key. Because both tiers are
// bit-identical, result checksums, FilterStats, and NumInserted journals are
// tier-invariant by construction; tests/test_simd_kernels.cc pins that on
// adversarial lengths and end-to-end plans.
//
// Alignment contract: BloomFilter<SectorPattern> stores its blocks as a
// std::vector of 64-byte `BloomBlock`s, allocated 64-byte aligned (alignas on
// the struct plus the aligned-operator-new the vector uses for over-aligned
// types), so each 32-byte sector can be read with aligned AVX2 loads.
// ASan/UBSan CI runs the parity suite so a misaligned sector load fails
// loudly, not slowly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/hash.h"
#include "src/common/simd.h"

namespace bqo {

// ---------------------------------------------------------------------------
// Dispatched batched hashing. Drop-in replacements for HashColumn /
// HashCompositeBatch (src/common/hash.h): same signature, same bits, but the
// AVX2 tier folds 4 keys per iteration. The filters are populated through
// whatever tier is active and probed through whatever tier is active — the
// bit-parity contract is what makes mixing safe (a scalar-built filter never
// false-negatives an AVX2-hashed probe).
// ---------------------------------------------------------------------------

/// \brief out[i] = HashComposite(&values[i], 1, seed); 4 lanes/iter on AVX2.
void HashColumnKernel(const int64_t* values, int n, uint64_t* out,
                      uint64_t seed = 0);

/// \brief Column-wise composite-key hashing, bit-identical to
/// HashCompositeBatch; the AVX2 tier vectorizes the HashCombine fold across
/// 4 keys per iteration for every column.
void HashCompositeBatchKernel(const int64_t* const* cols, size_t num_cols,
                              int n, uint64_t* out, uint64_t seed = 0);

// ---------------------------------------------------------------------------
// Register-blocked Bloom primitives (the kernels under SectorPattern, the
// kBlockedBloom bit pattern of BloomFilter, src/filter/bloom_filter.h).
// Layout follows the Impala/boost-fast_multiblock32 design: a 64-byte block
// of 16 uint32 words, split into two 32-byte sectors of 8 words. A key picks
// its block from the hash's HIGH bits, a sector from bit 63, and exactly one
// bit in each of the sector's 8 words (k = 8) from the LOW 32 bits
// multiplied by 8 odd salts — so a probe is one cache line touched and, on
// AVX2, ONE 256-bit mask test.
// ---------------------------------------------------------------------------

namespace blocked_bloom {

inline constexpr int kWordsPerSector = 8;
inline constexpr int kProbesPerKey = kWordsPerSector;  // one bit per word

/// 64-byte cache-line block: two 8-word sectors, each probed as one AVX2
/// register. alignas(64) also makes every sector 32-byte aligned.
struct alignas(64) BloomBlock {
  uint32_t words[2 * kWordsPerSector] = {};
};

/// Odd multiplicative salts (Impala's blocked-Bloom constants); word w's bit
/// position is the top 5 bits of h32 * kSalt[w].
inline constexpr uint32_t kSalt[kWordsPerSector] = {
    0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
    0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};

/// \brief Block index for `hash` (high bits, per the layout above).
/// `block_mask` is block_count - 1 (power of two).
inline uint64_t BlockIndex(uint64_t hash, uint64_t block_mask) {
  return (hash >> 32) & block_mask;
}

/// \brief First word of the 8-word sector `hash` maps to within its block.
inline int SectorBase(uint64_t hash) {
  return static_cast<int>(hash >> 63) * kWordsPerSector;
}

/// \brief Bit mask within sector word `w` — the scalar mirror of one AVX2
/// lane (mullo by salt, take top 5 bits as the shift).
inline uint32_t WordMask(uint64_t hash, int w) {
  const uint32_t h32 = static_cast<uint32_t>(hash);
  return 1u << ((h32 * kSalt[w]) >> 27);
}

/// \brief Scalar reference probe of one block: true iff every word-bit of
/// `hash` flagged in `probe_mask` is set (all 8 by default, the membership
/// test; journal replay passes an insert's new-probes mask). The AVX2 tier
/// must agree on every (block contents, hash) pair.
inline bool ScalarProbeBlock(const BloomBlock& block, uint64_t hash,
                             uint8_t probe_mask = 0xff) {
  const int base = SectorBase(hash);
  for (int w = 0; w < kWordsPerSector; ++w) {
    if ((block.words[base + w] & WordMask(hash, w)) == 0 &&
        (probe_mask & (1u << w)) != 0) {
      return false;
    }
  }
  return true;
}

/// \brief Scalar reference insert into one block. Returns the new-probes
/// mask (bit w set ⇔ word w's bit was 0 before), the unit MergeFrom's
/// journal replay counts with — identical across tiers by construction.
inline uint8_t ScalarInsertBlock(BloomBlock& block, uint64_t hash) {
  const int base = SectorBase(hash);
  uint8_t new_probes = 0;
  for (int w = 0; w < kWordsPerSector; ++w) {
    const uint32_t mask = WordMask(hash, w);
    uint32_t& word = block.words[base + w];
    if ((word & mask) == 0) new_probes |= static_cast<uint8_t>(1u << w);
    word |= mask;
  }
  return new_probes;
}

}  // namespace blocked_bloom

/// \brief Dispatched single-key insert into the key's block (see
/// BlockIndex). Returns the new-probes mask (see ScalarInsertBlock). On AVX2
/// the k bits are built and OR-ed in with one 256-bit mask op.
uint8_t BlockedBloomInsert(blocked_bloom::BloomBlock& block, uint64_t hash);

/// \brief Dispatched batched probe over a selection vector (the
/// MayContainBatch contract of bitvector_filter.h: survivors compacted to
/// the front of `sel` in place, new count returned, pass set bit-identical
/// to the scalar per-key probe). The AVX2 tier tests each key's sector with
/// one _mm256_testc_si256; both tiers prefetch the probed line ahead of use.
int BlockedBloomProbeBatch(const blocked_bloom::BloomBlock* blocks,
                           uint64_t block_mask, const uint64_t* hashes,
                           uint16_t* sel, int num_sel);

}  // namespace bqo
