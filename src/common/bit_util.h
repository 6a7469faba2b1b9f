// Small bit-manipulation helpers shared across the library.
#pragma once

#include <cstdint>

namespace bqo {

/// \brief Smallest power of two >= x (std::bit_ceil semantics; returns 1
/// for x <= 1). Used to size the power-of-two hash tables and filter arrays
/// so index masking replaces modulo on the probe paths.
inline uint64_t NextPow2(uint64_t x) {
  if (x <= 1) return 1;
  return uint64_t{1} << (64 - __builtin_clzll(x - 1));
}

/// \brief `*acc += v` modulo 2^64. Aggregate values and the executor's
/// logical-tuple counters add in unsigned arithmetic, so a sum past
/// INT64_MAX wraps instead of being undefined.
inline void AddWrapping(int64_t* acc, uint64_t v) {
  *acc = static_cast<int64_t>(static_cast<uint64_t>(*acc) + v);
}

}  // namespace bqo
