#include "src/expr/predicate_kernels.h"

#include <cstring>

#include "src/common/simd.h"

// AVX2 bodies are compiled per function with target("avx2"), as in
// src/filter/filter_kernels.cc: the library itself is built without -mavx2
// and runs the scalar tier on CPUs that lack it.
#if defined(__x86_64__) || defined(__i386__)
#define BQO_X86 1
#include <immintrin.h>
#else
#define BQO_X86 0
#endif

namespace bqo {

namespace {

// x in [lo, hi] (lo <= hi) iff the unsigned offset x - lo is at most
// hi - lo: one subtraction and one compare, identical in both tiers.
void RangeScalar(const int64_t* data, int64_t n, size_t first_word,
                 uint64_t lo, uint64_t span, uint64_t* words) {
  PackSelectionWords(
      n, first_word,
      [&](int64_t i) { return static_cast<uint64_t>(data[i]) - lo <= span; },
      words);
}

#if BQO_X86

// The AVX2 body ends its vector loop with _mm256_zeroupper(): the compiler
// does not insert one on this path, and a dirty upper YMM state makes every
// later SSE instruction of the thread (the optimizer's double arithmetic
// runs right after estimation) pay a transition penalty.

/// Sign-bit flip: turns the unsigned compare of the range test into the
/// signed compare AVX2 has.
constexpr uint64_t kSignBit = uint64_t{1} << 63;

__attribute__((target("avx2"))) void RangeAvx2(const int64_t* data,
                                               int64_t n, uint64_t lo,
                                               uint64_t span,
                                               uint64_t* words) {
  const __m256i lo_v = _mm256_set1_epi64x(static_cast<int64_t>(lo));
  const __m256i sign = _mm256_set1_epi64x(static_cast<int64_t>(kSignBit));
  const __m256i span_v =
      _mm256_set1_epi64x(static_cast<int64_t>(span ^ kSignBit));
  const size_t full_words = static_cast<size_t>(n / 64);
  for (size_t w = 0; w < full_words; ++w) {
    const int64_t* src = data + w * 64;
    uint64_t bits = 0;
    for (int g = 0; g < 16; ++g) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + 4 * g));
      const __m256i offset =
          _mm256_xor_si256(_mm256_sub_epi64(x, lo_v), sign);
      const __m256i outside = _mm256_cmpgt_epi64(offset, span_v);
      const int out_mask = _mm256_movemask_pd(_mm256_castsi256_pd(outside));
      bits |= static_cast<uint64_t>(~out_mask & 0xF) << (4 * g);
    }
    words[w] = bits;
  }
  _mm256_zeroupper();
  RangeScalar(data, n, full_words, lo, span, words);
}

#endif  // BQO_X86

}  // namespace

void RangeInt64Kernel(const int64_t* data, int64_t n, int64_t lo, int64_t hi,
                      bool negate, uint64_t* words) {
  if (lo > hi) {
    // An empty table has no words (and may pass a null `words`).
    const size_t num_words = SelectionBits::WordCount(n);
    if (num_words > 0) std::memset(words, 0, num_words * sizeof(uint64_t));
  } else {
    const auto ulo = static_cast<uint64_t>(lo);
    const uint64_t span = static_cast<uint64_t>(hi) - ulo;
#if BQO_X86
    if (ActiveSimdTier() == SimdTier::kAvx2) {
      RangeAvx2(data, n, ulo, span, words);
    } else {
      RangeScalar(data, n, 0, ulo, span, words);
    }
#else
    RangeScalar(data, n, 0, ulo, span, words);
#endif
  }
  if (negate) NegateSelectionWords(n, words);
}

void NegateSelectionWords(int64_t n, uint64_t* words) {
  const size_t num_words = SelectionBits::WordCount(n);
  for (size_t w = 0; w < num_words; ++w) words[w] = ~words[w];
  if (n % 64 != 0) words[num_words - 1] &= (uint64_t{1} << (n % 64)) - 1;
}

}  // namespace bqo
