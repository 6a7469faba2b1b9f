// Predicate expressions over a single base table.
//
// Queries in this library are decision-support join queries: each relation
// carries an optional filter predicate (this module), and relations are
// connected by equi-join edges (src/plan/join_graph.h). The expression
// language covers what TPC-DS/JOB-style workloads need: comparisons,
// BETWEEN, IN, LIKE '%x%' (string containment), modulo selection (used by
// the paper's Figure 7 micro-benchmark `c_customer_sk % 1000 < @P`), and
// boolean combinators.
//
// == Evaluation ==
//
// A predicate evaluates over a whole table into a SelectionBits: one bit
// per row packed into 64-bit words (row i is bit i % 64 of word i / 64),
// bits past the last row always zero, so CountOnes() is the exact filtered
// cardinality. The evaluator first binds the tree against the table —
// every leaf's column is looked up once and its literal lowered to the
// form its kernel takes (comparisons on integers and dictionary codes
// become inclusive ranges) — then runs each leaf over the column into
// words: those ranges on the dispatched scalar/AVX2 range kernel of
// predicate_kernels.h, double comparisons and MOD as a scalar per-row
// test, IN as a probe of the sorted, deduplicated list, LIKE as a
// per-code lookup after one dictionary scan.
// AND, OR and NOT combine words in place, with one scratch buffer per
// tree depth.
//
// The engine evaluates each relation's predicate at most once per query:
// the statistics layer keeps the selection it counts on the relation
// (RelationRef::selection), and the scan walks that selection's set bits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/table.h"

namespace bqo {

enum class ExprKind : uint8_t {
  kCompare,
  kBetween,
  kInList,
  kStringContains,
  kModLess,
  kAnd,
  kOr,
  kNot,
  kTrue,
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// \brief Immutable predicate node. Construct via the factory functions
/// below; shared_ptr lets query specs share subtrees freely.
struct Expr {
  ExprKind kind = ExprKind::kTrue;

  // Leaf payload (which fields are meaningful depends on `kind`).
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
  int64_t lo = 0, hi = 0;            // kBetween (inclusive)
  std::vector<int64_t> in_values;    // kInList
  std::string needle;                // kStringContains
  int64_t mod_divisor = 1;           // kModLess: column % divisor < bound
  int64_t mod_bound = 0;

  std::vector<ExprPtr> children;     // kAnd / kOr / kNot

  std::string ToString() const;
};

// ---- Factory functions (the public way to build predicates) ----

ExprPtr TruePred();
ExprPtr Compare(std::string column, CompareOp op, Value literal);
ExprPtr Eq(std::string column, int64_t v);
ExprPtr EqString(std::string column, std::string v);
ExprPtr Lt(std::string column, int64_t v);
ExprPtr Le(std::string column, int64_t v);
ExprPtr Gt(std::string column, int64_t v);
ExprPtr Ge(std::string column, int64_t v);
ExprPtr Between(std::string column, int64_t lo, int64_t hi);
ExprPtr In(std::string column, std::vector<int64_t> values);
ExprPtr LikeContains(std::string column, std::string needle);
ExprPtr ModLess(std::string column, int64_t divisor, int64_t bound);
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr child);

/// \brief True when `expr` selects every row (null or kTrue): such a
/// predicate is never evaluated.
inline bool SelectsAllRows(const ExprPtr& expr) {
  return expr == nullptr || expr->kind == ExprKind::kTrue;
}

/// \brief A row selection over a table, packed one bit per row into 64-bit
/// words. Bits at positions >= num_rows() are always zero.
class SelectionBits {
 public:
  SelectionBits() = default;
  /// All-zero selection of `num_rows` rows.
  explicit SelectionBits(int64_t num_rows)
      : num_rows_(num_rows), words_(WordCount(num_rows), 0) {}

  /// Words needed to hold `num_rows` bits.
  static size_t WordCount(int64_t num_rows) {
    return static_cast<size_t>((num_rows + 63) / 64);
  }

  int64_t num_rows() const { return num_rows_; }
  size_t num_words() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  bool Test(int64_t row) const {
    return (words_[static_cast<size_t>(row >> 6)] >> (row & 63)) & 1;
  }
  /// Number of selected rows.
  int64_t CountOnes() const;

  bool operator==(const SelectionBits& other) const = default;

 private:
  int64_t num_rows_ = 0;
  std::vector<uint64_t> words_;
};

/// \brief InvalidArgument unless `expr` is well-formed over `table`: every
/// leaf's column exists; a string column gets only `=`/`<>` against a
/// string literal; a non-string literal has its column's numeric type
/// (int64 for int64 columns, double for double columns); BETWEEN, IN and
/// MOD apply only to int64 columns and LIKE only to string columns;
/// AND/OR have children and NOT exactly one. Null is valid (selects all).
Status ValidatePredicate(const Table& table, const ExprPtr& expr);

/// \brief Evaluate `expr` over every row of `table` (see the module
/// comment). Null or kTrue selects every row. `expr` must pass
/// ValidatePredicate; a malformed predicate is a fatal check failure.
SelectionBits EvaluateSelection(const Table& table, const ExprPtr& expr);

}  // namespace bqo
