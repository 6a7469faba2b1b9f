// Tests for Algorithm 1 (bitvector creation + push-down), including the
// paper's Figure 1 topology.
#include <gtest/gtest.h>

#include "src/plan/pushdown.h"

namespace bqo {
namespace {

// Figure 1 join graph: B-A, A-D, B-C, C-D (a cycle of four relations).
// Relations: A=0, B=1, C=2, D=3.
JoinGraph Figure1Graph() {
  JoinGraph g;
  g.AddRelation("A", "A", nullptr, nullptr);
  g.AddRelation("B", "B", nullptr, nullptr);
  g.AddRelation("C", "C", nullptr, nullptr);
  g.AddRelation("D", "D", nullptr, nullptr);
  auto add = [&g](int l, int r, const char* lc, const char* rc) {
    JoinEdge e;
    e.left = l;
    e.right = r;
    e.left_cols = {lc};
    e.right_cols = {rc};
    g.AddEdge(e);
  };
  add(0, 1, "b_fk", "b_id");  // A-B
  add(0, 3, "d_fk1", "a_ref");  // A-D
  add(1, 2, "c_fk", "c_id");  // B-C
  add(2, 3, "d_fk2", "c_ref");  // C-D
  return g;
}

const PlanNode* FindNode(const Plan& plan, int id) {
  return plan.nodes[static_cast<size_t>(id)];
}

TEST(PushDown, Figure1Placement) {
  // Plan of Figure 1b: HJ1(build=D, probe=HJ2(build=C, probe=HJ3(build=B,
  // probe=A))). Expected: HJ3's filter (from B) -> leaf A; HJ2's filter
  // (from C, keyed on B's column) bypasses HJ3 into leaf B; HJ1's filter
  // (from D, keyed on columns of A and C) stops at HJ2 (residual).
  JoinGraph g = Figure1Graph();
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3});  // T(A, B, C, D)
  PushDownBitvectors(&plan);

  ASSERT_EQ(plan.filters.size(), 3u);
  // Node ids (preorder): 0=HJ1, 1=leaf D, 2=HJ2, 3=leaf C, 4=HJ3,
  // 5=leaf B, 6=leaf A.
  const PlanNode* hj1 = FindNode(plan, 0);
  const PlanNode* hj2 = FindNode(plan, 2);
  const PlanNode* hj3 = FindNode(plan, 4);
  const PlanNode* leaf_b = FindNode(plan, 5);
  const PlanNode* leaf_a = FindNode(plan, 6);
  ASSERT_EQ(hj1->kind, PlanNode::Kind::kJoin);
  ASSERT_EQ(leaf_a->relation, 0);
  ASSERT_EQ(leaf_b->relation, 1);

  // HJ1 builds from D on two edges -> composite filter over A and C columns.
  const PlanFilter& f_d = plan.filters[static_cast<size_t>(hj1->created_filter)];
  EXPECT_EQ(f_d.probe_col_ids.size(), 2u);
  EXPECT_EQ(FilterProbeRels(g, f_d), RelBit(0) | RelBit(2));
  // It cannot pass HJ2 (columns split across C and HJ3) -> residual at HJ2.
  EXPECT_EQ(f_d.applied_at, hj2->id);

  // HJ2 builds from C, keyed on B.c_fk -> descends through HJ3 into leaf B.
  const PlanFilter& f_c = plan.filters[static_cast<size_t>(hj2->created_filter)];
  EXPECT_EQ(FilterProbeRels(g, f_c), RelBit(1));
  EXPECT_EQ(f_c.applied_at, leaf_b->id);

  // HJ3 builds from B, keyed on A.b_fk -> leaf A.
  const PlanFilter& f_b = plan.filters[static_cast<size_t>(hj3->created_filter)];
  EXPECT_EQ(FilterProbeRels(g, f_b), RelBit(0));
  EXPECT_EQ(f_b.applied_at, leaf_a->id);
}

JoinGraph StarGraph(int dims) {
  JoinGraph g;
  g.AddRelation("f", "f", nullptr, nullptr);
  for (int i = 1; i <= dims; ++i) {
    g.AddRelation("d" + std::to_string(i), "d", nullptr, nullptr);
    JoinEdge e;
    e.left = 0;
    e.right = i;
    e.left_cols = {"fk" + std::to_string(i)};
    e.right_cols = {"id"};
    e.right_unique = true;
    g.AddEdge(e);
  }
  return g;
}

TEST(PushDown, StarAllFiltersReachFact) {
  // With the fact right-most, every dimension filter lands on the fact leaf
  // (the premise of Lemma 4).
  JoinGraph g = StarGraph(4);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3, 4});
  PushDownBitvectors(&plan);
  const PlanNode* fact_leaf = nullptr;
  for (const PlanNode* n : plan.nodes) {
    if (n->IsLeaf() && n->relation == 0) fact_leaf = n;
  }
  ASSERT_NE(fact_leaf, nullptr);
  EXPECT_EQ(plan.filters.size(), 4u);
  for (const PlanFilter& f : plan.filters) {
    EXPECT_EQ(f.applied_at, fact_leaf->id);
  }
  EXPECT_EQ(fact_leaf->applied_filters.size(), 4u);
}

TEST(PushDown, StarFactSecondFilterFlowsToDim) {
  // T(Rk, R0, ...): the filter created from R0's side flows down to Rk, and
  // dimension filters above flow into R0 (Lemma 5's setting).
  JoinGraph g = StarGraph(3);
  Plan plan = BuildRightDeepPlan(g, {1, 0, 2, 3});
  PushDownBitvectors(&plan);
  // Deepest join: build=R0(fact), probe=leaf d1. Its filter goes to d1.
  const PlanNode* deepest = nullptr;
  for (const PlanNode* n : plan.nodes) {
    if (n->kind == PlanNode::Kind::kJoin && n->probe->IsLeaf()) deepest = n;
  }
  ASSERT_NE(deepest, nullptr);
  const PlanFilter& f =
      plan.filters[static_cast<size_t>(deepest->created_filter)];
  EXPECT_EQ(FilterProbeRels(g, f), RelBit(1));
  EXPECT_EQ(f.applied_at, deepest->probe->id);
  // Filters from d2/d3 land on the fact leaf.
  const PlanNode* fact_leaf = nullptr;
  for (const PlanNode* n : plan.nodes) {
    if (n->IsLeaf() && n->relation == 0) fact_leaf = n;
  }
  ASSERT_NE(fact_leaf, nullptr);
  EXPECT_EQ(fact_leaf->applied_filters.size(), 2u);
}

JoinGraph ChainGraph(int n) {
  JoinGraph g;
  for (int i = 0; i < n; ++i) {
    g.AddRelation("r" + std::to_string(i), "r", nullptr, nullptr);
  }
  for (int i = 1; i < n; ++i) {
    JoinEdge e;
    e.left = i - 1;
    e.right = i;
    e.left_cols = {"fk"};
    e.right_cols = {"id"};
    e.right_unique = true;
    g.AddEdge(e);
  }
  return g;
}

TEST(PushDown, ChainFiltersDescendOneLevel) {
  // T(R0, R1, R2, R3): filter from R_{i} lands on R_{i-1} (Lemma 7).
  JoinGraph g = ChainGraph(4);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  for (const PlanFilter& f : plan.filters) {
    ASSERT_EQ(f.probe_col_ids.size(), 1u);
    const int target_rel = g.column(f.probe_col_ids[0]).rel;
    const PlanNode* applied = plan.nodes[static_cast<size_t>(f.applied_at)];
    EXPECT_TRUE(applied->IsLeaf());
    EXPECT_EQ(applied->relation, target_rel);
  }
}

TEST(PushDown, ClearRemovesAnnotations) {
  JoinGraph g = ChainGraph(3);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2});
  PushDownBitvectors(&plan);
  EXPECT_FALSE(plan.filters.empty());
  ClearBitvectors(&plan);
  EXPECT_TRUE(plan.filters.empty());
  for (const PlanNode* n : plan.nodes) {
    EXPECT_TRUE(n->applied_filters.empty());
    EXPECT_EQ(n->created_filter, -1);
  }
}

TEST(PushDown, Idempotent) {
  JoinGraph g = StarGraph(3);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  const size_t filters_before = plan.filters.size();
  const auto to_string_before = plan.ToString();
  PushDownBitvectors(&plan);
  EXPECT_EQ(plan.filters.size(), filters_before);
  EXPECT_EQ(plan.ToString(), to_string_before);
}

TEST(PushDown, EveryFilterIsAppliedSomewhere) {
  JoinGraph g = Figure1Graph();
  for (const auto& order :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{2, 3, 0, 1},
        std::vector<int>{3, 2, 1, 0}}) {
    if (!IsValidRightDeepOrder(g, order)) continue;
    Plan plan = BuildRightDeepPlan(g, order);
    PushDownBitvectors(&plan);
    for (const PlanFilter& f : plan.filters) {
      EXPECT_GE(f.applied_at, 0);
      // Application site must be inside the source join's probe subtree.
      const PlanNode* source =
          plan.nodes[static_cast<size_t>(f.source_join)];
      const PlanNode* site = plan.nodes[static_cast<size_t>(f.applied_at)];
      EXPECT_TRUE((site->rel_set & source->probe->rel_set) != 0);
    }
  }
}

/// True if `plan`'s annotation is exactly what a push-down of a fresh copy
/// of its tree produces: same filters field by field, same per-node
/// annotations.
void ExpectSameAsFreshPushDown(const Plan& plan) {
  Plan fresh;
  fresh.graph = plan.graph;
  fresh.root = ClonePlanNode(*plan.root);
  ClearBitvectors(&fresh);
  PushDownBitvectors(&fresh);
  ASSERT_EQ(plan.filters.size(), fresh.filters.size());
  for (size_t i = 0; i < plan.filters.size(); ++i) {
    const PlanFilter& a = plan.filters[i];
    const PlanFilter& b = fresh.filters[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.source_join, b.source_join);
    EXPECT_EQ(a.build_col_ids, b.build_col_ids);
    EXPECT_EQ(a.probe_col_ids, b.probe_col_ids);
    EXPECT_EQ(a.applied_at, b.applied_at);
    EXPECT_EQ(a.estimated_lambda, b.estimated_lambda);
    EXPECT_EQ(a.pruned, b.pruned);
  }
  ASSERT_EQ(plan.nodes.size(), fresh.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    EXPECT_EQ(plan.nodes[i]->applied_filters, fresh.nodes[i]->applied_filters);
    EXPECT_EQ(plan.nodes[i]->created_filter, fresh.nodes[i]->created_filter);
  }
  EXPECT_EQ(plan.ToString(), fresh.ToString());
}

TEST(PushDown, RepushAfterPruningResetsPrunedAndLambda) {
  JoinGraph g = StarGraph(4);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3, 4});
  PushDownBitvectors(&plan);
  for (PlanFilter& f : plan.filters) {
    f.pruned = f.id % 2 == 0;
    f.estimated_lambda = 0.25 * f.id + 0.1;
    f.applied_at = 99;
  }
  PushDownBitvectors(&plan);
  for (const PlanFilter& f : plan.filters) {
    EXPECT_FALSE(f.pruned) << f.id;
    EXPECT_EQ(f.estimated_lambda, 0.0) << f.id;
  }
  ExpectSameAsFreshPushDown(plan);
}

TEST(PushDown, RepushAfterSwappingTreesKeepsOneFilterPerJoin) {
  // Figure 1's plan has a two-column filter; a smaller tree pushed into the
  // same Plan reuses its entries (fewer of them, with fewer columns), and
  // a larger one grows them again.
  JoinGraph g = Figure1Graph();
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  ASSERT_EQ(plan.filters.size(), 3u);
  ASSERT_EQ(plan.filters[0].probe_col_ids.size(), 2u);
  for (PlanFilter& f : plan.filters) f.pruned = true;

  for (const std::vector<int>& order :
       {std::vector<int>{3, 2}, std::vector<int>{1, 0, 2},
        std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 1}}) {
    plan.root = BuildRightDeepPlan(g, order).root;
    PushDownBitvectors(&plan);
    ASSERT_EQ(static_cast<int>(plan.filters.size()), plan.num_joins());
    int created = 0;
    for (const PlanNode* n : plan.nodes) {
      if (n->IsLeaf()) {
        EXPECT_EQ(n->created_filter, -1);
        continue;
      }
      ASSERT_GE(n->created_filter, 0);
      EXPECT_EQ(plan.filters[static_cast<size_t>(n->created_filter)]
                    .source_join,
                n->id);
      ++created;
    }
    EXPECT_EQ(created, plan.num_joins());
    for (size_t i = 0; i < plan.filters.size(); ++i) {
      EXPECT_EQ(plan.filters[i].id, static_cast<int>(i));
      EXPECT_FALSE(plan.filters[i].pruned);
      EXPECT_GE(plan.filters[i].applied_at, 0);
    }
    ExpectSameAsFreshPushDown(plan);
  }
}

}  // namespace
}  // namespace bqo
