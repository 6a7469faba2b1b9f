#include "src/filter/filter_kernels.h"

#include <cstdlib>
#include <cstring>

#include "src/filter/probe_batch.h"

// AVX2 bodies are compiled per-function with target("avx2") instead of
// building the whole library with -mavx2 — the binary must start and run the
// scalar tier on machines without AVX2, so no AVX2 instruction may leak into
// always-executed code.
#if defined(__x86_64__) || defined(__i386__)
#define BQO_X86 1
#include <immintrin.h>
#else
#define BQO_X86 0
#endif

namespace bqo {

bool CpuSupportsAvx2() {
#if BQO_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace internal {

SimdTier DetectSimdTier() {
  const bool has_avx2 = CpuSupportsAvx2();
  // BQO_SIMD=scalar|avx2 overrides CPUID; requesting avx2 on a CPU without
  // it clamps to scalar rather than faulting. Unrecognized values fall
  // through to autodetection.
  if (const char* env = std::getenv("BQO_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return SimdTier::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      return has_avx2 ? SimdTier::kAvx2 : SimdTier::kScalar;
    }
  }
  return has_avx2 ? SimdTier::kAvx2 : SimdTier::kScalar;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// AVX2 hash kernels. Mix64's two 64x64 multiplies are emulated with 32-bit
// partial products (mul_epu32): x*m mod 2^64 =
// (x_lo*m_lo) + ((x_hi*m_lo + x_lo*m_hi) << 32). Everything else in the
// HashCombine fold (shifts, adds, xors) vectorizes directly, so the four
// lanes are bit-identical to four scalar HashCombine calls.
// ---------------------------------------------------------------------------
#if BQO_X86

namespace {

constexpr uint64_t kMixC1 = 0xff51afd7ed558ccdULL;
constexpr uint64_t kMixC2 = 0xc4ceb9fe1a85ec53ULL;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

__attribute__((target("avx2"))) inline __m256i Mul64(__m256i x, __m256i m,
                                                     __m256i m_hi) {
  const __m256i lo = _mm256_mul_epu32(x, m);
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(x_hi, m), _mm256_mul_epu32(x, m_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i Mix64Vec(__m256i x) {
  const __m256i c1 = _mm256_set1_epi64x(static_cast<int64_t>(kMixC1));
  const __m256i c1_hi = _mm256_set1_epi64x(static_cast<int64_t>(kMixC1 >> 32));
  const __m256i c2 = _mm256_set1_epi64x(static_cast<int64_t>(kMixC2));
  const __m256i c2_hi = _mm256_set1_epi64x(static_cast<int64_t>(kMixC2 >> 32));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64(x, c1, c1_hi);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64(x, c2, c2_hi);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

/// h ^= Mix64(v) + kGolden + (h << 12) + (h >> 4), four lanes at once.
__attribute__((target("avx2"))) inline __m256i HashCombineVec(__m256i h,
                                                              __m256i v) {
  __m256i t = _mm256_add_epi64(
      Mix64Vec(v), _mm256_set1_epi64x(static_cast<int64_t>(kGolden)));
  t = _mm256_add_epi64(t, _mm256_slli_epi64(h, 12));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(h, 4));
  return _mm256_xor_si256(h, t);
}

__attribute__((target("avx2"))) void HashColumnAvx2(const int64_t* values,
                                                    int n, uint64_t* out,
                                                    uint64_t seed) {
  const uint64_t h0 = CompositeSeed(seed);
  // h0 is loop-invariant, so HashCombine collapses to
  // out[i] = h0 ^ (Mix64(v_i) + K) with K precomputed once.
  const uint64_t k = kGolden + (h0 << 12) + (h0 >> 4);
  const __m256i h0v = _mm256_set1_epi64x(static_cast<int64_t>(h0));
  const __m256i kv = _mm256_set1_epi64x(static_cast<int64_t>(k));
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i h =
        _mm256_xor_si256(h0v, _mm256_add_epi64(Mix64Vec(v), kv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) {
    out[i] = HashCombine(h0, static_cast<uint64_t>(values[i]));
  }
}

__attribute__((target("avx2"))) void HashCompositeBatchAvx2(
    const int64_t* const* cols, size_t num_cols, int n, uint64_t* out,
    uint64_t seed) {
  const uint64_t h0 = CompositeSeed(seed);
  const __m256i h0v = _mm256_set1_epi64x(static_cast<int64_t>(h0));
  int i = 0;
  // Tile over keys, fold columns innermost: h stays in a register across
  // the whole composite fold of its four keys.
  for (; i + 4 <= n; i += 4) {
    __m256i h = h0v;
    for (size_t c = 0; c < num_cols; ++c) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[c] + i));
      h = HashCombineVec(h, v);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) {
    uint64_t h = h0;
    for (size_t c = 0; c < num_cols; ++c) {
      h = HashCombine(h, static_cast<uint64_t>(cols[c][i]));
    }
    out[i] = h;
  }
}

// -------------------------------------------------------------------------
// AVX2 blocked-Bloom ops: the k = 8 bit positions for a key are one
// mullo-by-salts + shift, materialized as a 256-bit mask; probe is a single
// testc against the key's 32-byte sector, insert a single or/store.
// -------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i SectorMask(uint64_t hash) {
  const __m256i salts = _mm256_setr_epi32(
      static_cast<int>(blocked_bloom::kSalt[0]),
      static_cast<int>(blocked_bloom::kSalt[1]),
      static_cast<int>(blocked_bloom::kSalt[2]),
      static_cast<int>(blocked_bloom::kSalt[3]),
      static_cast<int>(blocked_bloom::kSalt[4]),
      static_cast<int>(blocked_bloom::kSalt[5]),
      static_cast<int>(blocked_bloom::kSalt[6]),
      static_cast<int>(blocked_bloom::kSalt[7]));
  const __m256i h32 = _mm256_set1_epi32(static_cast<int>(hash));
  const __m256i shifts = _mm256_srli_epi32(_mm256_mullo_epi32(h32, salts), 27);
  return _mm256_sllv_epi32(_mm256_set1_epi32(1), shifts);
}

__attribute__((target("avx2"))) uint8_t BlockedInsertAvx2(
    blocked_bloom::BloomBlock& block, uint64_t hash) {
  __m256i* sector = reinterpret_cast<__m256i*>(
      block.words + blocked_bloom::SectorBase(hash));
  const __m256i mask = SectorMask(hash);
  const __m256i old = _mm256_load_si256(sector);
  _mm256_store_si256(sector, _mm256_or_si256(old, mask));
  // new_probes bit w ⇔ word w gained a bit: fresh = mask & ~old, then invert
  // the per-word "fresh == 0" movemask.
  const __m256i fresh = _mm256_andnot_si256(old, mask);
  const int zero_words = _mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpeq_epi32(fresh, _mm256_setzero_si256())));
  return static_cast<uint8_t>(~zero_words & 0xff);
}

__attribute__((target("avx2"))) int BlockedProbeBatchAvx2(
    const blocked_bloom::BloomBlock* blocks, uint64_t block_mask,
    const uint64_t* hashes, uint16_t* sel, int num_sel) {
  constexpr int kDist = 32;
  const int lead = num_sel < kDist ? num_sel : kDist;
  for (int j = 0; j < lead; ++j) {
    __builtin_prefetch(
        &blocks[blocked_bloom::BlockIndex(hashes[sel[j]], block_mask)], 0, 1);
  }
  int out = 0;
  for (int j = 0; j < num_sel; ++j) {
    if (j + kDist < num_sel) {
      __builtin_prefetch(
          &blocks[blocked_bloom::BlockIndex(hashes[sel[j + kDist]],
                                            block_mask)],
          0, 1);
    }
    const uint16_t s = sel[j];
    const uint64_t hash = hashes[s];
    const blocked_bloom::BloomBlock& b =
        blocks[blocked_bloom::BlockIndex(hash, block_mask)];
    const __m256i sector = _mm256_load_si256(reinterpret_cast<const __m256i*>(
        b.words + blocked_bloom::SectorBase(hash)));
    // testc: CF ⇔ (~sector & mask) == 0 ⇔ all k bits present.
    if (_mm256_testc_si256(sector, SectorMask(hash))) sel[out++] = s;
  }
  return out;
}

}  // namespace

#endif  // BQO_X86

void HashColumnKernel(const int64_t* values, int n, uint64_t* out,
                      uint64_t seed) {
#if BQO_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    HashColumnAvx2(values, n, out, seed);
    return;
  }
#endif
  HashColumn(values, n, out, seed);
}

void HashCompositeBatchKernel(const int64_t* const* cols, size_t num_cols,
                              int n, uint64_t* out, uint64_t seed) {
#if BQO_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    HashCompositeBatchAvx2(cols, num_cols, n, out, seed);
    return;
  }
#endif
  HashCompositeBatch(cols, num_cols, n, out, seed);
}

uint8_t BlockedBloomInsert(blocked_bloom::BloomBlock& block, uint64_t hash) {
#if BQO_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    return BlockedInsertAvx2(block, hash);
  }
#endif
  return blocked_bloom::ScalarInsertBlock(block, hash);
}

int BlockedBloomProbeBatch(const blocked_bloom::BloomBlock* blocks,
                           uint64_t block_mask, const uint64_t* hashes,
                           uint16_t* sel, int num_sel) {
#if BQO_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    return BlockedProbeBatchAvx2(blocks, block_mask, hashes, sel, num_sel);
  }
#endif
  return InterleavedProbeBatch(
      hashes, sel, num_sel,
      [&](uint64_t h) {
        __builtin_prefetch(&blocks[blocked_bloom::BlockIndex(h, block_mask)],
                           0, 1);
      },
      [&](uint64_t h) {
        return blocked_bloom::ScalarProbeBlock(
            blocks[blocked_bloom::BlockIndex(h, block_mask)], h);
      });
}

}  // namespace bqo
