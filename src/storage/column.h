// Columnar storage: one contiguous, fully materialized vector per column.
//
// String columns are dictionary-encoded: values are int32 codes into a
// per-column dictionary. Predicates over strings are rewritten by the
// expression evaluator into code-set membership tests, so the execution
// engine only ever touches fixed-width data (the standard column-store
// design the paper's TPC-DS/JOB configurations rely on).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/macros.h"
#include "src/storage/types.h"

namespace bqo {

/// \brief Dictionary for a string column: code <-> string bijection.
class StringDictionary {
 public:
  /// \brief Return the code for `s`, inserting it if absent.
  int32_t GetOrInsert(std::string_view s);

  /// \brief Return the code for `s`, or -1 if absent.
  int32_t Lookup(std::string_view s) const;

  const std::string& GetString(int32_t code) const {
    BQO_DCHECK(code >= 0 &&
               static_cast<size_t>(code) < strings_.size());
    return strings_[static_cast<size_t>(code)];
  }

  int32_t size() const { return static_cast<int32_t>(strings_.size()); }

  /// \brief Codes of all dictionary entries that contain `needle`
  /// (SQL `LIKE '%needle%'`). Cost is O(dictionary), not O(rows).
  std::vector<int32_t> CodesContaining(std::string_view needle) const;

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int32_t> index_;
};

/// \brief A single column of a table.
///
/// INT64 and DOUBLE columns store values directly; STRING columns store
/// int32 dictionary codes widened to int64 in `ints_` plus the dictionary.
class Column {
 public:
  Column(std::string name, DataType type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  int64_t size() const {
    return type_ == DataType::kDouble
               ? static_cast<int64_t>(doubles_.size())
               : static_cast<int64_t>(ints_.size());
  }

  void AppendInt64(int64_t v) {
    BQO_DCHECK(type_ == DataType::kInt64);
    ints_.push_back(v);
    ForgetDistinct();
  }
  void AppendDouble(double v) {
    BQO_DCHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
    ForgetDistinct();
  }
  void AppendString(std::string_view v) {
    BQO_DCHECK(type_ == DataType::kString);
    ints_.push_back(dict_.GetOrInsert(v));
    ForgetDistinct();
  }

  /// \brief Raw int64 data (values for INT64, dictionary codes for STRING).
  const int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }

  int64_t GetInt64(int64_t row) const {
    BQO_DCHECK(row >= 0 && row < size());
    return ints_[static_cast<size_t>(row)];
  }
  double GetDouble(int64_t row) const {
    BQO_DCHECK(row >= 0 && row < size());
    return doubles_[static_cast<size_t>(row)];
  }
  const std::string& GetStringAt(int64_t row) const {
    return dict_.GetString(static_cast<int32_t>(GetInt64(row)));
  }

  Value GetValue(int64_t row) const;

  StringDictionary& dict() { return dict_; }
  const StringDictionary& dict() const { return dict_; }

  /// \brief Number of distinct values actually present (exact). Computed on
  /// first request and memoized until the next Append*; this memo is the
  /// only one of raw distinct counts, which both optimizers read through
  /// StatsCatalog. Safe to call from concurrent readers: racing first
  /// requests compute the same count and store it atomically. Appends
  /// must not race with readers (loaders quiesce, then invalidate the
  /// serving caches).
  int64_t CountDistinct() const;

  int64_t MemoryBytes() const;

 private:
  void ForgetDistinct() {
    cached_distinct_.store(-1, std::memory_order_relaxed);
  }

  std::string name_;
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  StringDictionary dict_;
  /// -1 = not computed since the last append.
  mutable std::atomic<int64_t> cached_distinct_{-1};
};

}  // namespace bqo
