// Cost-based bitvector filters (Section 6.3).
//
// Creating and probing a filter costs Cf per tuple against a probe saving of
// Cp per eliminated tuple; a filter pays off only when it eliminates more
// than lambda_thresh = 1 - Cf/Cp of its input. The paper profiles
// lambda_thresh with a micro-benchmark (Figure 7) and ships 5%.
// PruneIneffectiveFilters estimates each filter's elimination fraction
// (lambda) with the cost model and marks losers pruned; the executor then
// neither creates nor probes them.
#pragma once

#include "src/filter/bitvector_filter.h"
#include "src/plan/cout.h"

namespace bqo {

/// \brief Default elimination threshold (the paper's profiled 5%).
inline constexpr double kDefaultLambdaThresh = 0.05;

/// \brief Estimate lambda for every filter in `plan` using `model` and mark
/// filters with lambda < lambda_thresh as pruned. Runs `passes` rounds
/// (pruning a filter changes the survivors' lambdas slightly; one extra pass
/// reaches a fixpoint in practice). Returns the number of pruned filters.
int PruneIneffectiveFilters(Plan* plan, CoutModel* model,
                            double lambda_thresh = kDefaultLambdaThresh,
                            int passes = 2);

/// \brief Profile-based threshold: lambda_thresh = 1 - Cf/Cp for measured
/// per-tuple filter-check and hash-probe costs (Section 6.3's formula).
double LambdaThreshold(double filter_check_ns, double hash_probe_ns);

/// \brief Model false-positive rate of `kind` at design load (n = m /
/// bits_per_key). Bloom: BloomFilter::ModelFpr (bloom_filter.h), the
/// Poisson sector-occupancy mixture that BloomFilter::TheoreticalFpRate
/// evaluates at its actual load. Exact: 0.
/// EXPLAIN ANALYZE reports it as each created filter's modeled FPR.
double EstimatedFilterFpr(FilterKind kind, double bits_per_key);

}  // namespace bqo
