#include "src/expr/expr.h"

#include <algorithm>
#include <limits>

#include "src/common/string_util.h"
#include "src/expr/predicate_kernels.h"

namespace bqo {

namespace {

std::shared_ptr<Expr> MakeExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kTrue:
      return "TRUE";
    case ExprKind::kCompare:
      return column + " " + OpName(op) + " " + literal.ToString();
    case ExprKind::kBetween:
      return StringFormat("%s BETWEEN %lld AND %lld", column.c_str(),
                          static_cast<long long>(lo),
                          static_cast<long long>(hi));
    case ExprKind::kInList: {
      std::vector<std::string> parts;
      for (int64_t v : in_values) parts.push_back(std::to_string(v));
      return column + " IN (" + JoinStrings(parts, ", ") + ")";
    }
    case ExprKind::kStringContains:
      return column + " LIKE '%" + needle + "%'";
    case ExprKind::kModLess:
      return StringFormat("%s %% %lld < %lld", column.c_str(),
                          static_cast<long long>(mod_divisor),
                          static_cast<long long>(mod_bound));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<std::string> parts;
      for (const auto& c : children) parts.push_back("(" + c->ToString() + ")");
      return JoinStrings(parts, kind == ExprKind::kAnd ? " AND " : " OR ");
    }
    case ExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
  }
  return "?";
}

ExprPtr TruePred() { return MakeExpr(ExprKind::kTrue); }

ExprPtr Compare(std::string column, CompareOp op, Value literal) {
  auto e = MakeExpr(ExprKind::kCompare);
  e->column = std::move(column);
  e->op = op;
  e->literal = std::move(literal);
  return e;
}

ExprPtr Eq(std::string column, int64_t v) {
  return Compare(std::move(column), CompareOp::kEq, Value(v));
}
ExprPtr EqString(std::string column, std::string v) {
  return Compare(std::move(column), CompareOp::kEq, Value(std::move(v)));
}
ExprPtr Lt(std::string column, int64_t v) {
  return Compare(std::move(column), CompareOp::kLt, Value(v));
}
ExprPtr Le(std::string column, int64_t v) {
  return Compare(std::move(column), CompareOp::kLe, Value(v));
}
ExprPtr Gt(std::string column, int64_t v) {
  return Compare(std::move(column), CompareOp::kGt, Value(v));
}
ExprPtr Ge(std::string column, int64_t v) {
  return Compare(std::move(column), CompareOp::kGe, Value(v));
}

ExprPtr Between(std::string column, int64_t lo, int64_t hi) {
  auto e = MakeExpr(ExprKind::kBetween);
  e->column = std::move(column);
  e->lo = lo;
  e->hi = hi;
  return e;
}

ExprPtr In(std::string column, std::vector<int64_t> values) {
  auto e = MakeExpr(ExprKind::kInList);
  e->column = std::move(column);
  e->in_values = std::move(values);
  return e;
}

ExprPtr LikeContains(std::string column, std::string needle) {
  auto e = MakeExpr(ExprKind::kStringContains);
  e->column = std::move(column);
  e->needle = std::move(needle);
  return e;
}

ExprPtr ModLess(std::string column, int64_t divisor, int64_t bound) {
  BQO_CHECK(divisor > 0);
  auto e = MakeExpr(ExprKind::kModLess);
  e->column = std::move(column);
  e->mod_divisor = divisor;
  e->mod_bound = bound;
  return e;
}

ExprPtr And(std::vector<ExprPtr> children) {
  auto e = MakeExpr(ExprKind::kAnd);
  e->children = std::move(children);
  return e;
}

ExprPtr Or(std::vector<ExprPtr> children) {
  auto e = MakeExpr(ExprKind::kOr);
  e->children = std::move(children);
  return e;
}

ExprPtr Not(ExprPtr child) {
  auto e = MakeExpr(ExprKind::kNot);
  e->children.push_back(std::move(child));
  return e;
}


int64_t SelectionBits::CountOnes() const {
  int64_t count = 0;
  for (uint64_t w : words_) count += __builtin_popcountll(w);
  return count;
}

namespace {

/// A predicate node bound to a table: a leaf's column resolved once and its
/// literal lowered to what its kernel takes. Integer comparisons, BETWEEN
/// and string =/<> (on dictionary codes) all become inclusive ranges.
struct BoundNode {
  enum class Op : uint8_t {
    kAll,
    kIntRange,       ///< lo <= x <= hi, xor negate
    kDoubleCompare,  ///< expr->op against expr->literal
    kIntIn,          ///< x in expr->in_values
    kCodeLike,       ///< dictionary string contains expr->needle
    kModLess,        ///< x % expr->mod_divisor < expr->mod_bound
    kAnd,
    kOr,
    kNot,
  };
  Op op = Op::kAll;
  const Expr* expr = nullptr;
  const Column* column = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  bool negate = false;
  std::vector<BoundNode> children;
};

Status Invalid(const Expr& expr, const std::string& why) {
  return Status::InvalidArgument("predicate '" + expr.ToString() +
                                 "': " + why);
}

/// Integer comparison `x op v` as the inclusive range [*lo, *hi] (empty
/// when lo > hi), negated for `<>`.
void CompareToRange(CompareOp op, int64_t v, int64_t* lo, int64_t* hi,
                    bool* negate) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  *lo = v;
  *hi = v;
  *negate = false;
  switch (op) {
    case CompareOp::kEq:
      break;
    case CompareOp::kNe:
      *negate = true;
      break;
    case CompareOp::kLt:
      if (v == kMin) {
        *lo = 1;  // empty
        *hi = 0;
      } else {
        *lo = kMin;
        *hi = v - 1;
      }
      break;
    case CompareOp::kLe:
      *lo = kMin;
      break;
    case CompareOp::kGt:
      if (v == kMax) {
        *lo = 1;  // empty
        *hi = 0;
      } else {
        *lo = v + 1;
        *hi = kMax;
      }
      break;
    case CompareOp::kGe:
      *hi = kMax;
      break;
  }
}

/// Bind `expr` against `table` into `out`, checking the rules
/// ValidatePredicate documents. A null `out` only checks: no tree is built
/// and nothing is allocated.
Status Bind(const Table& table, const Expr& expr, BoundNode* out) {
  BoundNode leaf;  // a leaf's lowering when only checking; never allocates
  if (out == nullptr) out = &leaf;
  const bool build = out != &leaf;
  out->expr = &expr;
  switch (expr.kind) {
    case ExprKind::kTrue:
      out->op = BoundNode::Op::kAll;
      return Status::OK();
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot: {
      if (expr.kind == ExprKind::kNot ? expr.children.size() != 1
                                      : expr.children.empty()) {
        return Invalid(expr, "wrong number of operands");
      }
      out->op = expr.kind == ExprKind::kAnd  ? BoundNode::Op::kAnd
                : expr.kind == ExprKind::kOr ? BoundNode::Op::kOr
                                             : BoundNode::Op::kNot;
      if (build) out->children.resize(expr.children.size());
      for (size_t c = 0; c < expr.children.size(); ++c) {
        if (expr.children[c] == nullptr) return Invalid(expr, "null operand");
        BQO_RETURN_NOT_OK(Bind(table, *expr.children[c],
                               build ? &out->children[c] : nullptr));
      }
      return Status::OK();
    }
    default:
      break;
  }

  const int idx = table.ColumnIndex(expr.column);
  if (idx < 0) {
    return Invalid(expr, "no column '" + expr.column + "' in table '" +
                             table.name() + "'");
  }
  const Column& col = table.column(idx);
  out->column = &col;
  const DataType type = col.type();
  const auto require = [&](DataType want) {
    return type == want ? Status::OK()
                        : Invalid(expr, std::string("applies only to ") +
                                            DataTypeName(want) + " columns");
  };
  switch (expr.kind) {
    case ExprKind::kCompare: {
      const DataType lit = expr.literal.type();
      if (type == DataType::kString) {
        if (lit != DataType::kString) {
          return Invalid(expr, "string column compared to a non-string "
                               "literal");
        }
        if (expr.op != CompareOp::kEq && expr.op != CompareOp::kNe) {
          return Invalid(expr, "only = and <> apply to string columns");
        }
        // One dictionary code; an absent string's -1 matches no row.
        const int64_t code = col.dict().Lookup(expr.literal.AsString());
        out->op = BoundNode::Op::kIntRange;
        CompareToRange(expr.op, code, &out->lo, &out->hi, &out->negate);
        return Status::OK();
      }
      if (lit != type) {
        return Invalid(expr, std::string(DataTypeName(type)) +
                                 " column compared to a " +
                                 DataTypeName(lit) + " literal");
      }
      if (type == DataType::kDouble) {
        out->op = BoundNode::Op::kDoubleCompare;
        return Status::OK();
      }
      out->op = BoundNode::Op::kIntRange;
      CompareToRange(expr.op, expr.literal.AsInt64(), &out->lo, &out->hi,
                     &out->negate);
      return Status::OK();
    }
    case ExprKind::kBetween:
      out->op = BoundNode::Op::kIntRange;
      out->lo = expr.lo;
      out->hi = expr.hi;
      return require(DataType::kInt64);
    case ExprKind::kInList:
      out->op = BoundNode::Op::kIntIn;
      return require(DataType::kInt64);
    case ExprKind::kStringContains:
      out->op = BoundNode::Op::kCodeLike;
      return require(DataType::kString);
    case ExprKind::kModLess:
      if (expr.mod_divisor <= 0) return Invalid(expr, "non-positive divisor");
      out->op = BoundNode::Op::kModLess;
      return require(DataType::kInt64);
    default:
      return Invalid(expr, "unknown predicate kind");
  }
}

/// Evaluates a bound tree over all `num_rows` rows into packed words.
/// Each AND/OR level owns one scratch buffer its later operands evaluate
/// into before being folded into the level's output in place.
class Evaluator {
 public:
  explicit Evaluator(int64_t num_rows)
      : n_(num_rows), num_words_(SelectionBits::WordCount(num_rows)) {}

  void Eval(const BoundNode& node, size_t depth, uint64_t* out) {
    switch (node.op) {
      case BoundNode::Op::kAll:
        std::fill(out, out + num_words_, 0);
        NegateSelectionWords(n_, out);
        return;
      case BoundNode::Op::kIntRange:
        RangeInt64Kernel(node.column->int_data(), n_, node.lo, node.hi,
                         node.negate, out);
        return;
      case BoundNode::Op::kDoubleCompare:
        EvalDoubleCompare(node.column->double_data(), node.expr->op,
                          node.expr->literal.AsDouble(), out);
        return;
      case BoundNode::Op::kModLess: {
        const int64_t* data = node.column->int_data();
        const int64_t divisor = node.expr->mod_divisor;
        const int64_t bound = node.expr->mod_bound;
        PackSelectionWords(
            n_, 0, [&](int64_t i) { return data[i] % divisor < bound; }, out);
        return;
      }
      case BoundNode::Op::kIntIn: {
        std::vector<int64_t> values = node.expr->in_values;
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        if (values.empty()) {
          std::fill(out, out + num_words_, 0);
          return;
        }
        const int64_t lo = values.front();
        const int64_t hi = values.back();
        const int64_t* data = node.column->int_data();
        PackSelectionWords(
            n_, 0,
            [&](int64_t i) {
              const int64_t x = data[i];
              return x >= lo && x <= hi &&
                     std::binary_search(values.begin(), values.end(), x);
            },
            out);
        return;
      }
      case BoundNode::Op::kCodeLike: {
        // Scan the dictionary once, then test codes: O(dict + rows).
        const StringDictionary& dict = node.column->dict();
        std::vector<uint8_t> code_match(static_cast<size_t>(dict.size()), 0);
        for (int32_t code : dict.CodesContaining(node.expr->needle)) {
          code_match[static_cast<size_t>(code)] = 1;
        }
        const int64_t* data = node.column->int_data();
        PackSelectionWords(
            n_, 0,
            [&](int64_t i) {
              return code_match[static_cast<size_t>(data[i])] != 0;
            },
            out);
        return;
      }
      case BoundNode::Op::kAnd:
      case BoundNode::Op::kOr: {
        Eval(node.children[0], depth + 1, out);
        uint64_t* operand = Scratch(depth);
        const bool is_and = node.op == BoundNode::Op::kAnd;
        for (size_t c = 1; c < node.children.size(); ++c) {
          Eval(node.children[c], depth + 1, operand);
          if (is_and) {
            for (size_t w = 0; w < num_words_; ++w) out[w] &= operand[w];
          } else {
            for (size_t w = 0; w < num_words_; ++w) out[w] |= operand[w];
          }
        }
        return;
      }
      case BoundNode::Op::kNot:
        Eval(node.children[0], depth + 1, out);
        NegateSelectionWords(n_, out);
        return;
    }
  }

 private:
  /// x op v with C++ semantics (a NaN compares unequal to everything, and
  /// only `<>` holds for it); the switch sits outside the row loop.
  void EvalDoubleCompare(const double* data, CompareOp op, double v,
                         uint64_t* out) const {
    const auto pack = [&](auto test) {
      PackSelectionWords(n_, 0, [&](int64_t i) { return test(data[i]); },
                         out);
    };
    switch (op) {
      case CompareOp::kEq: return pack([v](double x) { return x == v; });
      case CompareOp::kNe: return pack([v](double x) { return x != v; });
      case CompareOp::kLt: return pack([v](double x) { return x < v; });
      case CompareOp::kLe: return pack([v](double x) { return x <= v; });
      case CompareOp::kGt: return pack([v](double x) { return x > v; });
      case CompareOp::kGe: return pack([v](double x) { return x >= v; });
    }
  }

  /// The scratch buffer of tree depth `depth`. Growing the outer vector
  /// moves the inner ones, which keeps their buffers (and so pointers
  /// handed out at shallower depths) in place.
  uint64_t* Scratch(size_t depth) {
    if (scratch_.size() <= depth) scratch_.resize(depth + 1);
    std::vector<uint64_t>& buffer = scratch_[depth];
    buffer.resize(num_words_);
    return buffer.data();
  }

  const int64_t n_;
  const size_t num_words_;
  std::vector<std::vector<uint64_t>> scratch_;
};

}  // namespace

Status ValidatePredicate(const Table& table, const ExprPtr& expr) {
  if (expr == nullptr) return Status::OK();
  return Bind(table, *expr, nullptr);
}

SelectionBits EvaluateSelection(const Table& table, const ExprPtr& expr) {
  SelectionBits out(table.num_rows());
  BoundNode root;  // kAll for a null predicate
  if (expr != nullptr) {
    const Status status = Bind(table, *expr, &root);
    BQO_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  Evaluator(table.num_rows()).Eval(root, 0, out.mutable_words());
  return out;
}

}  // namespace bqo
