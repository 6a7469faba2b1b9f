#include "src/plan/predicate_shape.h"

#include <utility>

#include "src/common/string_util.h"

namespace bqo {

namespace {

const char* ShapeOpName(CompareOp op) {
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

const char* SlotMarker(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "?i";
    case DataType::kDouble:
      return "?d";
    case DataType::kString:
      return "?s";
  }
  return "?";
}

/// One walk serves every view: the shape text is appended to `shape`
/// (when non-null), and each slot's constant is handed to `on_slot`.
template <typename OnSlot>
void WalkShape(const Expr& expr, std::string* shape, OnSlot&& on_slot) {
  auto emit = [&](const char* text) {
    if (shape != nullptr) *shape += text;
  };
  auto column = [&](const char* suffix) {
    if (shape == nullptr) return;
    *shape += expr.column;
    *shape += suffix;
  };
  auto slot = [&](const Value& v) {
    emit(SlotMarker(v.type()));
    on_slot(v);
  };
  switch (expr.kind) {
    case ExprKind::kTrue:
      emit("TRUE");
      return;
    case ExprKind::kCompare:
      column(" ");
      emit(ShapeOpName(expr.op));
      emit(" ");
      slot(expr.literal);
      return;
    case ExprKind::kBetween:
      column(" BETWEEN ");
      slot(Value(expr.lo));
      emit(" AND ");
      slot(Value(expr.hi));
      return;
    case ExprKind::kInList:
      // List length is structure (it changes the evaluated set size and
      // the signature of the rebind), each element is a slot.
      column(" IN(");
      for (size_t i = 0; i < expr.in_values.size(); ++i) {
        if (i > 0) emit(",");
        slot(Value(expr.in_values[i]));
      }
      emit(")");
      return;
    case ExprKind::kStringContains:
      column(" LIKE %");
      slot(Value(expr.needle));
      emit("%");
      return;
    case ExprKind::kModLess:
      // The divisor defines the predicate family (which residues exist) —
      // structure. The bound sweeps selectivity — a slot (the paper's
      // `c_customer_sk % 1000 < @P` template, Figure 7).
      if (shape != nullptr) {
        column(" % ");
        AppendInt(expr.mod_divisor, shape);
        emit(" < ");
      }
      slot(Value(expr.mod_bound));
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (size_t c = 0; c < expr.children.size(); ++c) {
        if (c > 0) emit(expr.kind == ExprKind::kAnd ? " AND " : " OR ");
        emit("(");
        WalkShape(*expr.children[c], shape, on_slot);
        emit(")");
      }
      return;
    case ExprKind::kNot:
      emit("NOT (");
      WalkShape(*expr.children[0], shape, on_slot);
      emit(")");
      return;
  }
}

/// Rebuild in the same walk order, consuming `constants` from `cursor`.
ExprPtr RebindRec(const Expr& structure, const std::vector<Value>& constants,
                  size_t* cursor) {
  auto take = [&]() -> const Value& {
    BQO_CHECK_MSG(*cursor < constants.size(),
                  "rebind: constant slot table too short for shape");
    return constants[(*cursor)++];
  };
  switch (structure.kind) {
    case ExprKind::kTrue:
      return TruePred();
    case ExprKind::kCompare:
      return Compare(structure.column, structure.op, take());
    case ExprKind::kBetween: {
      const int64_t lo = take().AsInt64();
      const int64_t hi = take().AsInt64();
      return Between(structure.column, lo, hi);
    }
    case ExprKind::kInList: {
      std::vector<int64_t> values;
      values.reserve(structure.in_values.size());
      for (size_t i = 0; i < structure.in_values.size(); ++i) {
        values.push_back(take().AsInt64());
      }
      return In(structure.column, std::move(values));
    }
    case ExprKind::kStringContains:
      return LikeContains(structure.column, take().AsString());
    case ExprKind::kModLess: {
      const int64_t bound = take().AsInt64();
      return ModLess(structure.column, structure.mod_divisor, bound);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> children;
      children.reserve(structure.children.size());
      for (const ExprPtr& c : structure.children) {
        children.push_back(RebindRec(*c, constants, cursor));
      }
      return structure.kind == ExprKind::kAnd ? And(std::move(children))
                                              : Or(std::move(children));
    }
    case ExprKind::kNot:
      return Not(RebindRec(*structure.children[0], constants, cursor));
  }
  return TruePred();
}

}  // namespace

std::string PredicateShape(const ExprPtr& expr) {
  std::string shape;
  AppendPredicateShape(expr, &shape);
  return shape;
}

void AppendPredicateShape(const ExprPtr& expr, std::string* out) {
  if (expr == nullptr) {
    *out += "TRUE";
    return;
  }
  WalkShape(*expr, out, [](const Value&) {});
}

std::vector<Value> CollectPredicateConstants(const ExprPtr& expr) {
  std::vector<Value> constants;
  if (expr != nullptr) {
    WalkShape(*expr, nullptr,
              [&](const Value& v) { constants.push_back(v); });
  }
  return constants;
}

void AppendPredicateConstants(const ExprPtr& expr, std::string* out) {
  if (expr == nullptr) return;
  WalkShape(*expr, nullptr, [out](const Value& v) {
    if (v.type() == DataType::kInt64) {
      AppendInt(v.AsInt64(), out);
    } else {
      *out += v.ToString();
    }
    *out += ';';
  });
}

ExprPtr RebindPredicateConstants(const ExprPtr& structure,
                                 const std::vector<Value>& constants) {
  if (structure == nullptr) {
    BQO_CHECK_MSG(constants.empty(), "rebind: constants for a null predicate");
    return nullptr;
  }
  size_t cursor = 0;
  ExprPtr rebound = RebindRec(*structure, constants, &cursor);
  BQO_CHECK_MSG(cursor == constants.size(),
                "rebind: constant slot table longer than shape");
  return rebound;
}

}  // namespace bqo
