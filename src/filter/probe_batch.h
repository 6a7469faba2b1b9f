// Shared skeleton for interleaved batched probing: prefetch the location of
// key j+kDist while testing key j, keeping the prefetch stream a fixed
// distance ahead of the demand stream, and compact the surviving selection
// indices in place (writes trail reads, and the j+kDist lookahead is never
// clobbered because at most j entries have been written back).
//
// Used by the Exact filter and the scalar tier of the Bloom filter's probe
// kernel, whose probes touch one location per key; the Bloom kernel's AVX2
// tier has its own loop (BlockedBloomProbeBatch in filter_kernels.h).
#pragma once

#include <cstdint>

namespace bqo {

/// \param prefetch  callable (uint64_t hash) -> void issuing the prefetch
/// \param test      callable (uint64_t hash) -> bool, the scalar probe
template <typename PrefetchFn, typename TestFn>
inline int InterleavedProbeBatch(const uint64_t* hashes, uint16_t* sel,
                                 int num_sel, PrefetchFn&& prefetch,
                                 TestFn&& test) {
  constexpr int kDist = 32;
  const int lead = num_sel < kDist ? num_sel : kDist;
  for (int j = 0; j < lead; ++j) {
    prefetch(hashes[sel[j]]);
  }
  int out = 0;
  for (int j = 0; j < num_sel; ++j) {
    if (j + kDist < num_sel) {
      prefetch(hashes[sel[j + kDist]]);
    }
    const uint16_t s = sel[j];
    if (test(hashes[s])) sel[out++] = s;
  }
  return out;
}

}  // namespace bqo
