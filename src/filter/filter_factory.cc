#include "src/filter/bitvector_filter.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/exact_filter.h"

namespace bqo {

const char* FilterKindName(FilterKind kind) {
  switch (kind) {
    case FilterKind::kExact:
      return "exact";
    case FilterKind::kBlockedBloom:
      return "blocked";
  }
  return "unknown";
}

std::unique_ptr<BitvectorFilter> CreateFilter(const FilterConfig& config,
                                              int64_t expected_keys) {
  switch (config.kind) {
    case FilterKind::kExact:
      return std::make_unique<ExactFilter>(expected_keys);
    case FilterKind::kBlockedBloom:
      return std::make_unique<BloomFilter>(expected_keys,
                                           config.bloom_bits_per_key);
  }
  return nullptr;
}

}  // namespace bqo
