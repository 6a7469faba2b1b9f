// Predicate shape: the split of a predicate into structure and constants.
//
// Serving workloads are template-heavy — the same query arrives again and
// again with different literals. To cache optimized plans across such a
// template (src/server/plan_cache.h), a predicate is viewed as two parts:
//
//  * its **shape** — column names, comparison kinds, boolean structure,
//    and the structural scalars that define the predicate family (an IN
//    list's length, a modulo predicate's divisor), with every bound
//    constant replaced by a typed slot marker `?i` / `?d` / `?s`;
//  * its **constant slot table** — the bound constants in a canonical
//    pre-order walk, so two predicates with equal shapes differ only in
//    this table and either one can be rebuilt from the other's structure
//    plus its own constants (RebindPredicateConstants).
//
// Which fields are slots: kCompare's literal, kBetween's lo/hi, every
// kInList element, kStringContains' needle, kModLess' bound. Which are
// structure: columns, operators, the IN list length, the modulo divisor
// (it names the hash family, not a tuning constant), and kTrue. The slot
// type is part of the shape (`?i` vs `?s`), so a template whose literal
// changes type does not collide with its int-typed sibling.
#pragma once

#include <string>
#include <vector>

#include "src/expr/expr.h"

namespace bqo {

/// \brief Canonical shape string of `expr` (constants as typed `?` slots).
/// Null predicates render as "TRUE" — the zero-slot degenerate case.
std::string PredicateShape(const ExprPtr& expr);

/// \brief Append PredicateShape(expr) to `*out`.
void AppendPredicateShape(const ExprPtr& expr, std::string* out);

/// \brief The bound constants of `expr` in shape walk order (empty for
/// null/kTrue — exact-match caching falls out as this degenerate case).
std::vector<Value> CollectPredicateConstants(const ExprPtr& expr);

/// \brief Append each bound constant of `expr` as `Value::ToString()`
/// followed by ';', in shape walk order.
void AppendPredicateConstants(const ExprPtr& expr, std::string* out);

/// \brief Rebuild `structure`'s predicate with `constants` bound into its
/// slots (same walk order as CollectPredicateConstants). Dies if the
/// constant count does not match the structure's slot count — callers
/// compare shapes first. Rebinding a predicate with its own constants
/// reproduces an equivalent predicate.
ExprPtr RebindPredicateConstants(const ExprPtr& structure,
                                 const std::vector<Value>& constants);

}  // namespace bqo
