// Bitvector-aware query optimization (Section 6).
//
// OptimizeSnowflakeUnits is Algorithm 2: given a snowflake-ish subgraph
// (a fact unit plus branch groups), it builds the linear candidate set the
// analysis of Sections 4-5 justifies — the fact-right-most plan plus, for
// every branch and every within-branch start position, the plan that joins
// that branch first — and returns the candidate with minimal bitvector-aware
// estimated Cout. Branch groups are prioritized per the paper's P0-P3 rules.
//
// OptimizeBqo is Algorithm 3: repeatedly extract the snowflake around the
// smallest unoptimized fact table, optimize it with Algorithm 2, collapse it
// into a composite unit, and continue until one unit remains.
//
// Candidate memo. A candidate is fully determined by its CandidateKey: the
// bottom-to-top sequence of (unit identity, build/probe side) Algorithm 2
// derives from the branch orders, where a composite unit's identity is the
// key of the candidate that won its round. Building (MakeJoin), renumbering
// and Algorithm 1 push-down depend only on the graph's structure, never on
// its cardinalities, so runs over graphs that differ only in filtered_rows
// (the validity-band probes of parameterized.h) can share built candidates:
// Algorithm 2 derives each key from integers alone, re-costs a remembered
// plan on a hit, and builds only on a miss. Costs come from the same
// Compute on a structurally identical plan, so every choice is
// bit-identical to building from scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/optimizer/snowflake.h"
#include "src/plan/cout.h"

namespace bqo {

/// \brief Structural identity of an Algorithm 2 candidate (see the module
/// comment): relation indices for leaf units, composite keys nested
/// between kOpen/kClose, and a side marker before every unit above the
/// bottom one.
using CandidateKey = std::vector<int>;

/// \brief Built candidates remembered across the runs of one optimization
/// session, in two generations so memory stays bounded: entries inserted
/// before the first BeginProbe (the base run) live as long as the memo;
/// BeginProbe keeps, besides those, only the candidates the last probe
/// inserted or reused. The memo thus holds at most the base run's
/// candidates plus two probes'.
///
/// Graphs sharing one memo must share their structure (one graph and its
/// copies); a hit's `graph` pointer is re-aimed at the caller's graph.
class CandidateMemo {
 public:
  /// \brief Open a new probe generation (see the class comment).
  void BeginProbe();

  /// \brief The remembered plan for `key`, or null.
  Plan* Find(const CandidateKey& key);

  /// \brief Remember `plan` (built, renumbered, pushed down) under `key`.
  Plan* Insert(const CandidateKey& key, Plan plan);

  /// Candidates served from the memo / built, over the memo's lifetime.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct KeyHash {
    size_t operator()(const CandidateKey& key) const;
  };
  using Generation =
      std::unordered_map<CandidateKey, std::unique_ptr<Plan>, KeyHash>;

  Generation base_;
  Generation current_;   ///< the running probe's inserts and reuses
  Generation previous_;  ///< the previous probe's
  bool probing_ = false;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// \brief Algorithm 2's winner for one snowflake.
struct SnowflakeChoice {
  std::unique_ptr<PlanNode> fragment;  ///< a copy of the winner's tree
  CandidateKey key;                    ///< its structural identity
  double root_card = 0;  ///< its estimated output cardinality
};

/// \brief Algorithm 2. `members` indexes `units` (fact included). The
/// returned fragment covers exactly the member units' relations. `model` must be
/// bitvector-aware (candidates are costed after Algorithm 1 push-down).
/// Candidates are looked up in, and built into, `memo`.
SnowflakeChoice OptimizeSnowflakeUnits(const JoinGraph& graph,
                                       const std::vector<PlanUnit>& units,
                                       const std::vector<int>& members,
                                       int fact, CoutModel* model,
                                       CandidateMemo* memo);

/// \brief Algorithm 3: full bitvector-aware join ordering for an arbitrary
/// join graph (single or multiple fact tables, non-PKFK edges allowed).
/// The returned plan has no filter annotations yet; callers run
/// PushDownBitvectors + PruneIneffectiveFilters (the facade does).
/// `memo` may be null (the run then remembers its candidates privately).
Plan OptimizeBqo(const JoinGraph& graph, CoutModel* model,
                 CandidateMemo* memo = nullptr);

}  // namespace bqo
