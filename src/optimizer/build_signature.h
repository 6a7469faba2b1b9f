// Canonical build-side signatures for cross-query build sharing.
//
// Two hash joins in two different queries may share one build result
// (src/exec/build_side.h, cached by src/server/build_cache.h) exactly when
// constructing it would read the same inputs and produce byte-identical
// output. This module decides that question conservatively, reusing PR 7's
// shape machinery (src/plan/predicate_shape.h): the predicate's structure
// and its bound constants enter the signature separately, so a plan served
// by the shape cache with re-bound literals derives its signature from the
// *bound* predicate — two re-binds of one template share a build only when
// their constants agree.
//
// A build side is shareable iff its build child is a bare leaf scan with no
// pushed-down bitvector filters. A filtered scan's output is semijoin-
// reduced against other relations' contents — sharing it across queries
// whose other predicates differ would corrupt results — and a composite
// (join) build child embeds an entire subplan; both fall back to private
// construction. The signature then names everything the drained table and
// the created filter depend on:
//
//   * table name (content changes are covered by the catalog version the
//     BuildCache keys flights and entries on, not by the signature),
//   * the scan's output schema columns in order, as table column indices
//     (the row-major layout),
//   * predicate shape + bound constants (which rows survive),
//   * the join's build key positions (which columns are hashed),
//   * the filter configuration and whether a filter is created at all
//     (kind/sizing change the cached filter object).
//
// Thread count is deliberately absent: builds drain in canonical morsel
// order (pipeline.h), so the result is identical at any worker share.
#pragma once

#include <string>
#include <vector>

#include "src/exec/operator.h"
#include "src/filter/bitvector_filter.h"

namespace bqo {

/// \brief Canonical signature of the build side rooted at `build_child`,
/// or "" when the build is not shareable (non-scan child, or a scan with
/// pushed-down runtime filters).
std::string BuildSideSignature(const PhysicalOperator& build_child,
                               const std::vector<int>& build_key_positions,
                               const FilterConfig& filter_config,
                               bool creates_filter);

}  // namespace bqo
