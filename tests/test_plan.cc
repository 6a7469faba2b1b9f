// Unit tests for src/plan: join graphs, plan trees, enumeration.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "src/common/rng.h"
#include "src/plan/enumerate.h"
#include "src/plan/plan.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeStarDb;

JoinGraph StarGraph(int dims) {
  // Analytical graph (no tables needed): fact 0 joined to each dimension.
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

JoinGraph ChainGraph(int n) {
  // R0 - R1 - ... - R{n-1}.
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

TEST(JoinGraph, ConnectivityAndNeighbors) {
  JoinGraph g = ChainGraph(4);
  EXPECT_TRUE(g.IsConnected(0b1111));
  EXPECT_TRUE(g.IsConnected(0b0110));
  EXPECT_FALSE(g.IsConnected(0b1001));  // r0 and r3 not adjacent
  EXPECT_EQ(g.Neighbors(0b0001), RelSet{0b0010});
  EXPECT_EQ(g.Neighbors(0b0110), RelSet{0b1001});
}

TEST(JoinGraph, EdgesBetween) {
  JoinGraph g = StarGraph(3);
  std::vector<int> edges = {7, 7, 7, 7, 7};  // replaced, not appended to
  g.EdgesBetweenSets(RelBit(0), RelBit(2), &edges);
  EXPECT_EQ(edges.size(), 1u);
  g.EdgesBetweenSets(RelBit(1), RelBit(2), &edges);
  EXPECT_TRUE(edges.empty());  // dims
  EXPECT_FALSE(g.Adjacent(RelBit(1), RelBit(2)));  // not adjacent
  g.EdgesBetweenSets(0b0001, 0b1110, &edges);
  EXPECT_EQ(edges.size(), 3u);
}

// ---- Join-column numbering and adjacency ----

/// Random analytical graph: 2..12 relations, 1..3-column edges whose column
/// names come from a small per-relation pool (so columns are shared by
/// several edges), repeated endpoint pairs allowed.
JoinGraph RandomGraph(Rng* rng) {
  auto below = [rng](int k) {
    return static_cast<int>(rng->Uniform(static_cast<uint64_t>(k)));
  };
  JoinGraph g;
  const int n = 2 + below(11);
  for (int r = 0; r < n; ++r) {
    g.AddRelation("r" + std::to_string(r), "t", nullptr, nullptr);
  }
  const char* pool[] = {"a", "b", "c", "d"};
  const int edges = n - 1 + below(n);
  for (int i = 0; i < edges; ++i) {
    JoinEdge e;
    // First n-1 edges keep the graph connected; the rest are random.
    e.left = i < n - 1 ? below(i + 1) : below(n);
    e.right = i < n - 1 ? i + 1 : below(n);
    if (e.left == e.right) e.right = (e.right + 1) % n;
    const int width = 1 + below(3);
    for (int c = 0; c < width; ++c) {
      e.left_cols.push_back(pool[below(4)]);
      e.right_cols.push_back(pool[below(4)]);
    }
    g.AddEdge(std::move(e));
  }
  return g;
}

/// Numbering invariants: every edge's ids name its own (relation, column)
/// pairs, ids are dense and one per distinct pair, and RelationColumns /
/// ColumnId agree with them.
void ExpectNumbering(const JoinGraph& g) {
  std::map<std::pair<int, std::string>, int> seen;
  for (const JoinEdge& e : g.edges()) {
    ASSERT_EQ(e.left_col_ids.size(), e.left_cols.size());
    ASSERT_EQ(e.right_col_ids.size(), e.right_cols.size());
    for (size_t i = 0; i < e.left_cols.size(); ++i) {
      for (auto [rel, name, id] :
           {std::tuple{e.left, e.left_cols[i], e.left_col_ids[i]},
            std::tuple{e.right, e.right_cols[i], e.right_col_ids[i]}}) {
        ASSERT_GE(id, 0);
        ASSERT_LT(id, g.num_columns());
        EXPECT_EQ(g.column(id).rel, rel);
        EXPECT_EQ(g.column(id).column, name);
        EXPECT_EQ(g.ColumnId(rel, name), id);
        auto [it, inserted] = seen.emplace(std::pair{rel, name}, id);
        EXPECT_EQ(it->second, id) << "one id per (relation, column)";
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.num_columns()) << "dense ids";
  for (int r = 0; r < g.num_relations(); ++r) {
    std::vector<int> want;
    for (int id = 0; id < g.num_columns(); ++id) {
      if (g.column(id).rel == r) want.push_back(id);
    }
    EXPECT_EQ(g.RelationColumns(r), want);
    EXPECT_EQ(g.ColumnId(r, "never-joined"), -1);
  }
}

/// Adjacent / EdgesBetweenSets / Neighbors against a brute-force edge scan
/// on random relation sets (overlapping ones included).
void ExpectAdjacency(const JoinGraph& g, Rng* rng) {
  for (int trial = 0; trial < 200; ++trial) {
    const RelSet a = rng->Next() & g.AllRels();
    const RelSet b = rng->Next() & g.AllRels();
    std::vector<int> want;
    RelSet neighbors = 0;
    for (int eid = 0; eid < g.num_edges(); ++eid) {
      const JoinEdge& e = g.edge(eid);
      if ((RelSetContains(a, e.left) && RelSetContains(b, e.right)) ||
          (RelSetContains(a, e.right) && RelSetContains(b, e.left))) {
        want.push_back(eid);
      }
      if (RelSetContains(a, e.left)) neighbors |= RelBit(e.right);
      if (RelSetContains(a, e.right)) neighbors |= RelBit(e.left);
    }
    std::vector<int> got;
    g.EdgesBetweenSets(a, b, &got);
    EXPECT_EQ(got, want);
    EXPECT_EQ(g.Adjacent(a, b), !want.empty());
    EXPECT_EQ(g.Adjacent(b, a), !want.empty());
    EXPECT_EQ(g.Neighbors(a), neighbors & ~a);
  }
}

TEST(JoinGraphStructure, RandomGraphsNumberColumnsAndAdjacency) {
  Rng rng(20200614);
  for (int round = 0; round < 50; ++round) {
    const JoinGraph g = RandomGraph(&rng);
    ExpectNumbering(g);
    ExpectAdjacency(g, &rng);
  }
}

TEST(JoinGraphStructure, MultiColumnAndSharedColumns) {
  JoinGraph g;
  for (int r = 0; r < 3; ++r) {
    g.AddRelation("r" + std::to_string(r), "t", nullptr, nullptr);
  }
  JoinEdge two;  // r0.(x, y) = r1.(x, z)
  two.left = 0;
  two.right = 1;
  two.left_cols = {"x", "y"};
  two.right_cols = {"x", "z"};
  g.AddEdge(two);
  JoinEdge shared;  // r2.x = r0.x: r0.x is shared with the first edge
  shared.left = 2;
  shared.right = 0;
  shared.left_cols = {"x"};
  shared.right_cols = {"x"};
  g.AddEdge(shared);
  ExpectNumbering(g);
  EXPECT_EQ(g.num_columns(), 5);  // r0.x r0.y r1.x r1.z r2.x
  EXPECT_EQ(g.edge(0).left_col_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(g.edge(0).right_col_ids, (std::vector<int>{2, 3}));
  EXPECT_EQ(g.edge(1).left_col_ids, (std::vector<int>{4}));
  EXPECT_EQ(g.edge(1).right_col_ids, (std::vector<int>{0}));
  EXPECT_EQ(g.RelationColumns(0), (std::vector<int>{0, 1}));
  EXPECT_TRUE(g.Adjacent(RelBit(2), RelBit(0)));
  EXPECT_FALSE(g.Adjacent(RelBit(2), RelBit(1)));
}

TEST(JoinGraphStructure, CopiesShareNumberingUntilTheyGrow) {
  Rng rng(7);
  const JoinGraph original = RandomGraph(&rng);
  JoinGraph copy = original;
  EXPECT_EQ(copy.structure_id(), original.structure_id());
  ASSERT_EQ(copy.num_columns(), original.num_columns());
  for (int eid = 0; eid < original.num_edges(); ++eid) {
    EXPECT_EQ(copy.edge(eid).left_col_ids, original.edge(eid).left_col_ids);
    EXPECT_EQ(copy.edge(eid).right_col_ids, original.edge(eid).right_col_ids);
  }
  // Statistics are not structure.
  copy.relation(0).filtered_rows = 42;
  EXPECT_EQ(copy.structure_id(), original.structure_id());

  const int before = original.num_columns();
  JoinEdge extra;  // one known column, one new
  extra.left = 0;
  extra.right = 1;
  extra.left_cols = {original.column(original.RelationColumns(0)[0]).column};
  extra.right_cols = {"fresh"};
  copy.AddEdge(extra);
  EXPECT_NE(copy.structure_id(), original.structure_id());
  EXPECT_EQ(copy.num_columns(), before + 1);
  EXPECT_EQ(original.num_columns(), before);
  EXPECT_EQ(copy.edge(copy.num_edges() - 1).left_col_ids[0],
            original.RelationColumns(0)[0]);
  ExpectNumbering(copy);
  ExpectNumbering(original);
  ExpectAdjacency(copy, &rng);
}

TEST(JoinGraph, DeriveUniquenessFromCatalog) {
  auto db = MakeStarDb(2, 100, 20, {0.5, 0.5}, 1);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  for (const JoinEdge& e : graph.value().edges()) {
    // fact is relation 0; dimension side must be marked unique.
    const bool fact_left = e.left == 0;
    EXPECT_EQ(fact_left ? e.right_unique : e.left_unique, true);
    EXPECT_EQ(fact_left ? e.left_unique : e.right_unique, false);
  }
}

TEST(Plan, BuildRightDeepAndValidate) {
  JoinGraph g = StarGraph(3);
  Plan plan = BuildRightDeepPlan(g, {0, 1, 2, 3});
  EXPECT_TRUE(plan.Validate());
  EXPECT_TRUE(plan.IsRightDeep());
  EXPECT_EQ(plan.num_joins(), 3);
  EXPECT_EQ(plan.RightDeepOrder(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan.Signature(), "(d3 HJ (d2 HJ (d1 HJ f)))");
}

TEST(Plan, CloneIsDeepAndEqual) {
  JoinGraph g = ChainGraph(4);
  Plan plan = BuildRightDeepPlan(g, {3, 2, 1, 0});
  Plan copy = plan.Clone();
  EXPECT_EQ(copy.Signature(), plan.Signature());
  EXPECT_NE(copy.root.get(), plan.root.get());
  EXPECT_EQ(copy.nodes.size(), plan.nodes.size());
}

TEST(Plan, ValidOrderCheck) {
  JoinGraph g = ChainGraph(4);
  EXPECT_TRUE(IsValidRightDeepOrder(g, {0, 1, 2, 3}));
  EXPECT_TRUE(IsValidRightDeepOrder(g, {2, 1, 3, 0}));  // prefix stays connected
  EXPECT_FALSE(IsValidRightDeepOrder(g, {0, 2, 1, 3}));  // r0-r2 not adjacent
}

TEST(Plan, BushyJoinConstruction) {
  JoinGraph g = ChainGraph(4);
  auto left = MakeJoin(g, MakeLeaf(g, 0), MakeLeaf(g, 1));
  auto right = MakeJoin(g, MakeLeaf(g, 3), MakeLeaf(g, 2));
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  auto root = MakeJoin(g, std::move(left), std::move(right));
  ASSERT_NE(root, nullptr);
  Plan plan;
  plan.graph = &g;
  plan.root = std::move(root);
  plan.Renumber();
  EXPECT_TRUE(plan.Validate());
  EXPECT_FALSE(plan.IsRightDeep());
}

TEST(Plan, CrossProductRejected) {
  JoinGraph g = ChainGraph(4);
  EXPECT_EQ(MakeJoin(g, MakeLeaf(g, 0), MakeLeaf(g, 2)), nullptr);
}

TEST(Enumerate, StarCountsMatchLemma2) {
  // Lemma 2: right deep trees without cross products have R0 first or
  // second; count = 2 * n! for n dimensions... (n! with R0 first, n * (n-1)!
  // with a dimension first then R0).
  for (int n = 2; n <= 5; ++n) {
    JoinGraph g = StarGraph(n);
    size_t expected = 2;
    for (int i = 2; i <= n; ++i) expected *= static_cast<size_t>(i);
    EXPECT_EQ(CountRightDeepOrders(g), expected) << "n=" << n;
  }
}

TEST(Enumerate, ChainCountIsQuadraticFamily) {
  // For a chain of n relations the orders = 2^(n-1) (each step extends the
  // connected interval left or right from the start).
  for (int n = 2; n <= 7; ++n) {
    JoinGraph g = ChainGraph(n);
    EXPECT_EQ(CountRightDeepOrders(g), size_t{1} << (n - 1)) << "n=" << n;
  }
}

TEST(Enumerate, AllOrdersAreValidAndUnique) {
  JoinGraph g = StarGraph(4);
  auto orders = EnumerateRightDeepOrders(g);
  std::set<std::vector<int>> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), orders.size());
  for (const auto& o : orders) {
    EXPECT_TRUE(IsValidRightDeepOrder(g, o));
  }
}

TEST(Enumerate, LimitRespected) {
  JoinGraph g = StarGraph(5);
  EXPECT_EQ(EnumerateRightDeepOrders(g, 10).size(), 10u);
  EXPECT_EQ(CountRightDeepOrders(g, 10), 10u);
}

TEST(Enumerate, StarCandidatesShape) {
  JoinGraph g = StarGraph(4);
  auto candidates = StarCandidateOrders(g, 0);
  EXPECT_EQ(candidates.size(), 5u);  // n + 1
  // First candidate: fact right-most.
  EXPECT_EQ(candidates[0][0], 0);
  // Others: dimension first, then fact.
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_NE(candidates[i][0], 0);
    EXPECT_EQ(candidates[i][1], 0);
    EXPECT_TRUE(IsValidRightDeepOrder(g, candidates[i]));
  }
}

TEST(Enumerate, BranchCandidatesShape) {
  const std::vector<int> chain = {0, 1, 2, 3};
  auto candidates = BranchCandidateOrders(chain);
  EXPECT_EQ(candidates.size(), 4u);  // n + 1 with n = 3
  EXPECT_EQ(candidates[0], (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(candidates[1], (std::vector<int>{0, 1, 2, 3}));  // k = 0
  EXPECT_EQ(candidates[2], (std::vector<int>{1, 2, 3, 0}));  // k = 1
  EXPECT_EQ(candidates[3], (std::vector<int>{2, 3, 1, 0}));  // k = 2
}

TEST(Enumerate, SnowflakeCandidatesCountIsLinear) {
  SnowflakeShape shape;
  shape.fact = 0;
  shape.branches = {{1}, {2, 3}, {4, 5}};
  auto candidates = SnowflakeCandidateOrders(shape);
  EXPECT_EQ(candidates.size(), 6u);  // n + 1 with n = 5 dimensions
  // Every candidate is a permutation of all 6 relations.
  for (const auto& c : candidates) {
    std::set<int> s(c.begin(), c.end());
    EXPECT_EQ(s.size(), 6u);
  }
}

}  // namespace
}  // namespace bqo
