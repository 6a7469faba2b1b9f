#include "src/storage/column.h"

#include <unordered_set>

#include "src/common/string_util.h"

namespace bqo {

int32_t StringDictionary::GetOrInsert(std::string_view s) {
  auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), code);
  return code;
}

int32_t StringDictionary::Lookup(std::string_view s) const {
  auto it = index_.find(std::string(s));
  return it == index_.end() ? -1 : it->second;
}

std::vector<int32_t> StringDictionary::CodesContaining(
    std::string_view needle) const {
  std::vector<int32_t> codes;
  for (size_t i = 0; i < strings_.size(); ++i) {
    if (Contains(strings_[i], needle)) {
      codes.push_back(static_cast<int32_t>(i));
    }
  }
  return codes;
}

Value Column::GetValue(int64_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(GetInt64(row));
    case DataType::kDouble:
      return Value(GetDouble(row));
    case DataType::kString:
      return Value(GetStringAt(row));
  }
  return Value();
}

int64_t Column::CountDistinct() const {
  int64_t distinct = cached_distinct_.load(std::memory_order_relaxed);
  if (distinct >= 0) return distinct;
  if (type_ == DataType::kString) {
    distinct = dict_.size();
  } else if (type_ == DataType::kDouble) {
    std::unordered_set<int64_t> seen;
    for (double d : doubles_) {
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      seen.insert(bits);
    }
    distinct = static_cast<int64_t>(seen.size());
  } else {
    std::unordered_set<int64_t> seen(ints_.begin(), ints_.end());
    distinct = static_cast<int64_t>(seen.size());
  }
  cached_distinct_.store(distinct, std::memory_order_relaxed);
  return distinct;
}

int64_t Column::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(ints_.capacity() * sizeof(int64_t) +
                                       doubles_.capacity() * sizeof(double));
  for (int32_t i = 0; i < dict_.size(); ++i) {
    bytes += static_cast<int64_t>(dict_.GetString(i).size() + 32);
  }
  return bytes;
}

}  // namespace bqo
