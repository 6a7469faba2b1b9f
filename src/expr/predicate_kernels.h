// Predicate kernels: one column in, packed selection words out (row i is
// bit i % 64 of words[i / 64]; SelectionBits in expr.h). Each kernel writes
// exactly SelectionBits::WordCount(n) words and leaves every bit past row
// n - 1 zero.
//
// RangeInt64Kernel — which every served comparison, BETWEEN and string
// =/<> lowers to — is runtime-dispatched like the hash and Bloom kernels
// (src/filter/filter_kernels.h): a scalar body and, on x86-64, an AVX2 body
// selected once per call by ActiveSimdTier() (src/common/simd.h). The two
// bodies compute the same words bit for bit, so selections — and every
// cardinality, plan and result derived from them — are tier-invariant;
// tests/test_predicate_eval.cc pins that on adversarial values and
// lengths. Every other leaf packs a scalar per-row test through
// PackSelectionWords; none of them is on a measured hot path.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/expr/expr.h"

namespace bqo {

/// \brief Words [first_word, WordCount(n)) from a per-row predicate
/// `pred(row) -> bool`; the last word covers only rows that exist, so its
/// tail bits stay zero. The range kernel's scalar tier and its AVX2 tier's
/// partial last word pack through this one loop, as do the evaluator's
/// other leaves (double compare, IN, LIKE, MOD).
template <typename RowPred>
void PackSelectionWords(int64_t n, size_t first_word, RowPred&& pred,
                        uint64_t* words) {
  const size_t num_words = SelectionBits::WordCount(n);
  for (size_t w = first_word; w < num_words; ++w) {
    const int64_t base = static_cast<int64_t>(w) * 64;
    const int64_t count = std::min<int64_t>(64, n - base);
    uint64_t bits = 0;
    for (int64_t j = 0; j < count; ++j) {
      bits |= static_cast<uint64_t>(pred(base + j)) << j;
    }
    words[w] = bits;
  }
}

/// \brief Flip every row's bit of an n-row selection, keeping the tail
/// past row n - 1 zero.
void NegateSelectionWords(int64_t n, uint64_t* words);

/// \brief Bit i = (lo <= data[i] && data[i] <= hi) != negate. An empty
/// range (lo > hi) selects nothing (everything when negated).
void RangeInt64Kernel(const int64_t* data, int64_t n, int64_t lo, int64_t hi,
                      bool negate, uint64_t* words);

}  // namespace bqo
