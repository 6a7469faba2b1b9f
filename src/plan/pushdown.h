// Algorithm 1 of the paper: bitvector filter creation and push-down.
//
// Every hash join creates one bitvector filter from its build side, keyed on
// the equi-join columns. The filter is pushed down the probe subtree to the
// lowest operator whose output still contains all of the filter's probe-side
// columns; if the columns split across an operator's children the filter is
// applied on top of that operator ("residual"). Filters may descend into the
// build side of lower joins (Figure 1: the filter from HJ2's build C crosses
// HJ3 into leaf B).
#pragma once

#include "src/plan/plan.h"

namespace bqo {

/// \brief Annotate `plan` with bitvector filters per Algorithm 1.
///
/// Replaces any previous annotation: existing plan->filters entries are
/// overwritten in place (every field reset) and the vector is resized to
/// one filter per join. After the call, plan->filters describes every
/// filter (source join, key columns, application site) and each node's
/// applied_filters/created_filter fields are consistent with it.
void PushDownBitvectors(Plan* plan);

/// \brief Remove all bitvector-filter annotations from `plan` (used to cost
/// or execute the same join order without filters, as in Table 4).
void ClearBitvectors(Plan* plan);

/// \brief The set of relations referenced by a filter's probe columns.
RelSet FilterProbeRels(const JoinGraph& graph, const PlanFilter& filter);

}  // namespace bqo
