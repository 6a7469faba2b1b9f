// Sanity of the statistics-based Cout model: the estimates the optimizer
// plans with should track exact cardinalities on clean PKFK data, and the
// semi-join/join interaction must not double-count reductions.
//
// Parity oracle (EstimatorParity.*): the flat, id-indexed estimator must
// reproduce the original map-based evaluation bit for bit. That evaluation
// is kept below as MapCoutOracle and compared, as raw bits, on every
// right-deep order of small graphs (multi-column and shared join columns
// included), on the BQO and baseline plans of the three lite workloads, at
// fp 0 and 0.01, with filters pruned and unpruned, on partial plans over a
// subset of the relations (how OptimizeSnowflakeUnits costs composite
// units), and on every candidate Algorithm 3 costs, with one model reused
// across all of them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/rng.h"
#include "src/exec/exact_cost.h"
#include "src/optimizer/bqo.h"
#include "src/optimizer/cost_model.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/enumerate.h"
#include "src/plan/pushdown.h"
#include "src/stats/estimated_cost.h"
#include "src/workload/workload.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

/// The original estimator: per-node distinct counts in a map keyed by
/// (relation, column name), copied and merged at every join, base counts
/// fetched from the StatsCatalog at every leaf. Kept verbatim as the
/// oracle the flat EstimatedCoutModel must match bit for bit.
class MapCoutOracle : public CoutModel {
 public:
  explicit MapCoutOracle(StatsCatalog* stats, double fp_rate = 0.0)
      : stats_(stats), fp_rate_(fp_rate) {}

  CoutBreakdown Compute(const Plan& plan) override {
    BQO_CHECK(plan.root != nullptr && !plan.nodes.empty());
    CoutBreakdown out;
    out.node_output.assign(plan.nodes.size(), 0.0);
    out.node_prefilter.assign(plan.nodes.size(), 0.0);
    out.filter_lambda.assign(plan.filters.size(), 0.0);
    std::vector<FilterEst> filter_est(plan.filters.size());
    EvalNode(plan, *plan.root, &filter_est, &out);
    return out;
  }

 private:
  struct NodeEst {
    double card = 0;
    std::map<std::pair<int, std::string>, double> distinct;
  };

  struct FilterEst {
    double source_card = 0;
    double key_distinct = 0;
  };

  double BaseDistinct(const Plan& plan, const BoundColumn& col) const {
    const RelationRef& rel = plan.graph->relation(col.rel);
    double d = stats_->Distinct(rel.table_name, col.column);
    if (d <= 0) d = rel.base_rows;
    if (d <= 0) return 1.0;
    const double base = std::max(rel.base_rows, 1.0);
    const double sel = std::min(1.0, rel.filtered_rows / base);
    const double rows_per_value = base / d;
    const double reduced = d * (1.0 - std::pow(1.0 - sel, rows_per_value));
    return std::max(1.0,
                    std::min({d, reduced, std::max(rel.filtered_rows, 1.0)}));
  }

  /// A filter's key columns by name (PlanFilter keeps only their ids).
  static std::vector<BoundColumn> Cols(const JoinGraph& graph,
                                       const std::vector<int>& col_ids) {
    std::vector<BoundColumn> cols;
    for (int cid : col_ids) cols.push_back(graph.column(cid));
    return cols;
  }

  static double CompositeDistinct(const NodeEst& est,
                                  const std::vector<BoundColumn>& cols) {
    double d = 1.0;
    for (const BoundColumn& c : cols) {
      auto it = est.distinct.find({c.rel, c.column});
      d *= (it == est.distinct.end()) ? std::max(est.card, 1.0) : it->second;
    }
    return std::max(1.0, std::min(d, std::max(est.card, 1.0)));
  }

  void ApplyFilters(const Plan& plan, const PlanNode& node, NodeEst* est,
                    std::vector<FilterEst>* filter_est, CoutBreakdown* out) {
    for (int fid : node.applied_filters) {
      const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
      if (f.pruned) continue;
      const FilterEst& fe = (*filter_est)[static_cast<size_t>(fid)];
      BQO_CHECK_MSG(fe.key_distinct > 0,
                    "filter source estimated after its application site");
      const double target_d =
          CompositeDistinct(*est, Cols(*plan.graph, f.probe_col_ids));
      const double rho = std::min(1.0, fe.key_distinct / target_d);
      const double rho_eff = rho + (1.0 - rho) * fp_rate_;
      out->filter_lambda[static_cast<size_t>(fid)] = 1.0 - rho_eff;
      est->card *= rho_eff;
      for (const BoundColumn& c : Cols(*plan.graph, f.probe_col_ids)) {
        auto it = est->distinct.find({c.rel, c.column});
        if (it != est->distinct.end()) {
          it->second = std::max(1.0, std::min(it->second, fe.key_distinct));
        }
      }
      for (auto& [_, d] : est->distinct) {
        d = std::max(1.0, std::min(d, std::max(est->card, 1.0)));
      }
    }
  }

  NodeEst EvalNode(const Plan& plan, const PlanNode& node,
                   std::vector<FilterEst>* filter_est, CoutBreakdown* out) {
    NodeEst est;
    if (node.kind == PlanNode::Kind::kLeaf) {
      const RelationRef& rel = plan.graph->relation(node.relation);
      est.card = rel.filtered_rows;
      for (const JoinEdge& e : plan.graph->edges()) {
        if (e.left == node.relation) {
          for (const auto& c : e.left_cols) {
            BoundColumn bc{node.relation, c};
            est.distinct[{bc.rel, bc.column}] = BaseDistinct(plan, bc);
          }
        }
        if (e.right == node.relation) {
          for (const auto& c : e.right_cols) {
            BoundColumn bc{node.relation, c};
            est.distinct[{bc.rel, bc.column}] = BaseDistinct(plan, bc);
          }
        }
      }
      for (auto& [_, d] : est.distinct) {
        d = std::max(1.0, std::min(d, std::max(est.card, 1.0)));
      }
      out->node_prefilter[static_cast<size_t>(node.id)] = est.card;
      ApplyFilters(plan, node, &est, filter_est, out);
      out->node_output[static_cast<size_t>(node.id)] = est.card;
      out->total += est.card;
      return est;
    }

    NodeEst b = EvalNode(plan, *node.build, filter_est, out);
    if (node.created_filter >= 0) {
      const PlanFilter& f =
          plan.filters[static_cast<size_t>(node.created_filter)];
      FilterEst fe;
      fe.source_card = b.card;
      fe.key_distinct = CompositeDistinct(b, Cols(*plan.graph, f.build_col_ids));
      (*filter_est)[static_cast<size_t>(node.created_filter)] = fe;
    }
    NodeEst p = EvalNode(plan, *node.probe, filter_est, out);

    est.card = b.card * p.card;
    for (int eid : node.edge_ids) {
      const JoinEdge& e = plan.graph->edge(eid);
      const bool left_in_build = RelSetContains(node.build->rel_set, e.left);
      std::vector<BoundColumn> bcols, pcols;
      for (size_t i = 0; i < e.left_cols.size(); ++i) {
        BoundColumn l{e.left, e.left_cols[i]};
        BoundColumn r{e.right, e.right_cols[i]};
        bcols.push_back(left_in_build ? l : r);
        pcols.push_back(left_in_build ? r : l);
      }
      const double d_b = CompositeDistinct(b, bcols);
      const double d_p = CompositeDistinct(p, pcols);
      est.card /= std::max(d_b, d_p);
    }

    est.distinct = b.distinct;
    for (const auto& [k, d] : p.distinct) {
      auto it = est.distinct.find(k);
      if (it == est.distinct.end()) {
        est.distinct[k] = d;
      } else {
        it->second = std::min(it->second, d);
      }
    }
    for (int eid : node.edge_ids) {
      const JoinEdge& e = plan.graph->edge(eid);
      for (size_t i = 0; i < e.left_cols.size(); ++i) {
        auto li = est.distinct.find({e.left, e.left_cols[i]});
        auto ri = est.distinct.find({e.right, e.right_cols[i]});
        if (li != est.distinct.end() && ri != est.distinct.end()) {
          const double m = std::min(li->second, ri->second);
          li->second = m;
          ri->second = m;
        }
      }
    }
    for (auto& [_, d] : est.distinct) {
      d = std::max(1.0, std::min(d, std::max(est.card, 1.0)));
    }

    out->node_prefilter[static_cast<size_t>(node.id)] = est.card;
    ApplyFilters(plan, node, &est, filter_est, out);
    out->node_output[static_cast<size_t>(node.id)] = est.card;
    out->total += est.card;
    return est;
  }

  StatsCatalog* stats_;
  double fp_rate_;
};

class EstimatedCoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeStarDb(3, 5000, 200, {0.2, 0.5, -1.0}, 99);
    auto graph = db_->Graph();
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<JoinGraph>(std::move(graph.value()));
    stats_ = std::make_unique<StatsCatalog>(&db_->catalog);
  }

  std::unique_ptr<testing::TestDb> db_;
  std::unique_ptr<JoinGraph> graph_;
  std::unique_ptr<StatsCatalog> stats_;
};

TEST_F(EstimatedCoutTest, AttachStatisticsComputesExactBaseCards) {
  // Relation 0 is the fact (no predicate): filtered == base.
  EXPECT_DOUBLE_EQ(graph_->relation(0).filtered_rows, 5000.0);
  // d0 has selectivity 0.2 over attr0 uniform [0,1000).
  EXPECT_NEAR(graph_->relation(1).filtered_rows, 0.2 * 200, 25);
  // d2 has no predicate.
  EXPECT_DOUBLE_EQ(graph_->relation(3).filtered_rows, 200.0);
}

TEST_F(EstimatedCoutTest, EstimateTracksExactWithinFactor) {
  EstimatedCoutModel est(stats_.get());
  ExactCoutModel exact;
  for (const auto& order :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{1, 0, 2, 3},
        std::vector<int>{3, 0, 1, 2}}) {
    Plan plan = BuildRightDeepPlan(*graph_, order);
    PushDownBitvectors(&plan);
    const double e = est.Cout(plan);
    const double x = exact.Cout(plan);
    EXPECT_GT(e, 0.3 * x);
    EXPECT_LT(e, 3.0 * x);
  }
}

TEST_F(EstimatedCoutTest, NoDoubleCountingOfFilterAndJoin) {
  // With the fact right-most all dimension filters hit the fact scan; the
  // subsequent PKFK joins must keep cardinality flat, not shrink it again.
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  EstimatedCoutModel est(stats_.get());
  const CoutBreakdown b = est.Compute(plan);
  double fact_leaf = -1;
  std::vector<double> joins;
  for (const PlanNode* n : plan.nodes) {
    if (n->IsLeaf() && n->relation == 0) {
      fact_leaf = b.node_output[static_cast<size_t>(n->id)];
    } else if (n->kind == PlanNode::Kind::kJoin) {
      joins.push_back(b.node_output[static_cast<size_t>(n->id)]);
    }
  }
  ASSERT_GT(fact_leaf, 0);
  for (double j : joins) {
    EXPECT_NEAR(j, fact_leaf, 0.15 * fact_leaf);
  }
}

TEST_F(EstimatedCoutTest, FilterLambdaTracksDimensionSelectivity) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  EstimatedCoutModel est(stats_.get());
  const CoutBreakdown b = est.Compute(plan);
  // The filter built from d0 (selectivity 0.2) should eliminate ~80% of the
  // fact rows it sees; the unfiltered d2's filter eliminates ~0.
  double best_lambda = 0, worst_lambda = 1;
  for (const PlanFilter& f : plan.filters) {
    const double l = b.filter_lambda[static_cast<size_t>(f.id)];
    best_lambda = std::max(best_lambda, l);
    worst_lambda = std::min(worst_lambda, l);
  }
  EXPECT_GT(best_lambda, 0.6);
  EXPECT_LT(worst_lambda, 0.1);
}

TEST_F(EstimatedCoutTest, FalsePositiveRateRaisesEstimates) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  EstimatedCoutModel perfect(stats_.get(), 0.0);
  EstimatedCoutModel leaky(stats_.get(), 0.1);
  EXPECT_GT(leaky.Cout(plan), perfect.Cout(plan));
}

TEST_F(EstimatedCoutTest, PrunedFiltersAreIgnored) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  EstimatedCoutModel est(stats_.get());
  const double with_all = est.Cout(plan);
  for (PlanFilter& f : plan.filters) f.pruned = true;
  const double with_none = est.Cout(plan);
  EXPECT_GT(with_none, with_all);
  // Pruned-everything must equal the unannotated plan's cost.
  Plan bare = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  ClearBitvectors(&bare);
  EXPECT_DOUBLE_EQ(with_none, est.Cout(bare));
}

// ---- Parity with the map-based oracle ----

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  out.reserve(v.size());
  for (double d : v) out.push_back(std::bit_cast<uint64_t>(d));
  return out;
}

/// Bit-exact CoutBreakdown equality.
void ExpectSameBits(const CoutBreakdown& want, const CoutBreakdown& got,
                    const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(want.total),
            std::bit_cast<uint64_t>(got.total))
      << what << ": total " << want.total << " vs " << got.total;
  EXPECT_EQ(Bits(want.node_output), Bits(got.node_output)) << what;
  EXPECT_EQ(Bits(want.node_prefilter), Bits(got.node_prefilter)) << what;
  EXPECT_EQ(Bits(want.filter_lambda), Bits(got.filter_lambda)) << what;
}

/// Compare `plan` as given, with every filter unpruned, and with every
/// other filter pruned, at fp 0 and 0.01. `models` holds one long-lived
/// model per fp, reused across plans and graphs like an optimizer's.
void CheckParity(Plan plan, StatsCatalog* stats,
                 std::vector<EstimatedCoutModel>* models,
                 const std::string& what) {
  const double fps[] = {0.0, 0.01};
  for (int variant = 0; variant < 3; ++variant) {
    if (variant == 1) {
      for (PlanFilter& f : plan.filters) f.pruned = false;
    } else if (variant == 2) {
      for (PlanFilter& f : plan.filters) f.pruned = f.id % 2 == 1;
    }
    for (size_t i = 0; i < 2; ++i) {
      MapCoutOracle oracle(stats, fps[i]);
      const std::string label = what + " variant=" + std::to_string(variant) +
                                " fp=" + std::to_string(fps[i]);
      ExpectSameBits(oracle.Compute(plan), (*models)[i].Compute(plan), label);
    }
  }
}

std::vector<EstimatedCoutModel> ModelsPerFp(StatsCatalog* stats) {
  std::vector<EstimatedCoutModel> models;
  models.emplace_back(stats, 0.0);
  models.emplace_back(stats, 0.01);
  return models;
}

/// Every join subtree of `plan` as a plan of its own, filters pushed down
/// afresh: a partial plan over a subset of the graph's relations.
std::vector<Plan> PartialPlans(const Plan& plan) {
  std::vector<Plan> out;
  for (const PlanNode* node : plan.nodes) {
    if (node->IsLeaf() || node == plan.root.get()) continue;
    Plan partial;
    partial.graph = plan.graph;
    partial.root = ClonePlanNode(*node);
    PushDownBitvectors(&partial);
    out.push_back(std::move(partial));
  }
  return out;
}

/// Hand-built graph over the f/d0/d1/d2 tables of MakeStarDb(3, ...):
/// `edges` as (left, left columns, right, right columns); d0 and d2 carry
/// predicates.
JoinGraph HandBuiltGraph(
    const Catalog& catalog,
    const std::vector<std::tuple<int, std::vector<std::string>, int,
                                 std::vector<std::string>>>& edges) {
  JoinGraph g;
  for (const char* name : {"f", "d0", "d1", "d2"}) {
    auto t = catalog.GetTable(name);
    BQO_CHECK(t.ok());
    const std::string rel(name);
    g.AddRelation(rel, rel, t.value(),
                  rel == "d0"   ? ::bqo::testing::SelPredicate(0.3)
                  : rel == "d2" ? ::bqo::testing::SelPredicate(0.05)
                                : nullptr);
  }
  for (const auto& [l, lc, r, rc] : edges) {
    JoinEdge e;
    e.left = l;
    e.right = r;
    e.left_cols = lc;
    e.right_cols = rc;
    g.AddEdge(std::move(e));
  }
  g.DeriveUniqueness(catalog);
  AttachStatistics(&g);
  return g;
}

/// A two-column edge, and f.d0_fk shared by two edges (relations: f=0,
/// d0=1, d1=2, d2=3).
JoinGraph MultiColumnStarGraph(const Catalog& catalog) {
  return HandBuiltGraph(
      catalog, {{0, {"d0_fk"}, 1, {"d0_id"}},
                {0, {"d1_fk", "d2_fk"}, 2, {"d1_id", "attr0"}},
                {0, {"d0_fk"}, 3, {"d2_id"}},
                {2, {"attr0"}, 3, {"attr0"}}});
}

/// f.d0_fk joins both d0.d0_id and d2.d2_id, and d0-d2 are linked, so one
/// join (f over {d0, d2}) applies both edges and runs the per-edge minima
/// over a shared column; d0.d0_id then feeds d1's join.
JoinGraph SharedColumnGraph(const Catalog& catalog) {
  return HandBuiltGraph(catalog, {{0, {"d0_fk"}, 1, {"d0_id"}},
                                  {0, {"d0_fk"}, 3, {"d2_id"}},
                                  {1, {"attr0"}, 3, {"attr0"}},
                                  {1, {"d0_id"}, 2, {"d1_id"}}});
}

TEST(EstimatorParity, EveryRightDeepOrderOfSmallGraphs) {
  auto star = MakeStarDb(3, 3000, 120, {0.2, 0.5, -1.0}, 41, 0.5);
  auto chain = MakeChainDb(5, 4000, 0.4, {-1, 0.7, -1, 0.3, -1}, 42, 0.3);
  auto snowflake =
      MakeSnowflakeDb({2, 1, 2}, 3000, 90, 0.6, {0.3, -1.0, 0.5}, 43, 0.4);
  std::vector<std::pair<std::string, JoinGraph>> graphs;
  for (const testing::TestDb* db : {star.get(), chain.get(), snowflake.get()}) {
    auto g = db->Graph();
    ASSERT_TRUE(g.ok());
    graphs.emplace_back(db->spec.name, std::move(g.value()));
  }
  graphs.emplace_back("multi-column", MultiColumnStarGraph(star->catalog));
  graphs.emplace_back("shared-column", SharedColumnGraph(star->catalog));

  for (const auto& [name, graph] : graphs) {
    const testing::TestDb& db = name == "chain"       ? *chain
                                : name == "snowflake" ? *snowflake
                                                      : *star;
    StatsCatalog stats(&db.catalog);
    std::vector<EstimatedCoutModel> models = ModelsPerFp(&stats);
    size_t orders = 0;
    for (const std::vector<int>& order : EnumerateRightDeepOrders(graph)) {
      Plan plan = BuildRightDeepPlan(graph, order);
      PushDownBitvectors(&plan);
      std::string label = name + " order";
      for (int r : order) label += " " + std::to_string(r);
      CheckParity(std::move(plan), &stats, &models, label);
      ++orders;
    }
    EXPECT_GT(orders, 3u) << name;
  }
}

/// Random connected graphs over the star tables: 3-5 relation occurrences,
/// join columns drawn from every column (keys, foreign keys, attributes),
/// so columns recur across edges and some edges have two columns; each
/// relation's filtered_rows is drawn too, so the Yao reduction and the
/// caps see a wide spread of values.
JoinGraph RandomCatalogGraph(const Catalog& catalog, Rng* rng) {
  auto below = [rng](int k) {
    return static_cast<int>(rng->Uniform(static_cast<uint64_t>(k)));
  };
  const char* tables[] = {"f", "d0", "d1", "d2"};
  JoinGraph g;
  const int n = 3 + below(3);
  for (int r = 0; r < n; ++r) {
    const char* name = tables[below(4)];
    auto t = catalog.GetTable(name);
    BQO_CHECK(t.ok());
    g.AddRelation("r" + std::to_string(r), name, t.value(), nullptr);
  }
  auto pick = [&](int rel) {
    const Table* t = g.relation(rel).table;
    return t->column(below(t->num_columns())).name();
  };
  // The first n-1 edges keep the graph connected; the rest are random.
  const int extra = below(3);
  for (int i = 1; i < n + extra; ++i) {
    JoinEdge e;
    e.left = below(i < n ? i : n);
    e.right = i < n ? i : below(n);
    if (e.left == e.right) continue;
    const int width = below(4) == 0 ? 2 : 1;
    for (int c = 0; c < width; ++c) {
      e.left_cols.push_back(pick(e.left));
      e.right_cols.push_back(pick(e.right));
    }
    g.AddEdge(std::move(e));
  }
  g.DeriveUniqueness(catalog);
  AttachStatistics(&g);
  for (int r = 0; r < n; ++r) {
    RelationRef& rel = g.relation(r);
    const double sel = static_cast<double>(1 + below(1000)) / 1000.0;
    rel.filtered_rows = std::floor(rel.base_rows * sel);
  }
  return g;
}

TEST(EstimatorParity, RandomGraphsOverOneCatalog) {
  auto star = MakeStarDb(3, 3000, 120, {}, 46, 0.7);
  StatsCatalog stats(&star->catalog);
  std::vector<EstimatedCoutModel> models = ModelsPerFp(&stats);
  Rng rng(2005033280);
  for (int round = 0; round < 40; ++round) {
    const JoinGraph graph = RandomCatalogGraph(star->catalog, &rng);
    for (const std::vector<int>& order : EnumerateRightDeepOrders(graph)) {
      Plan plan = BuildRightDeepPlan(graph, order);
      PushDownBitvectors(&plan);
      CheckParity(std::move(plan), &stats, &models,
                  "round " + std::to_string(round) + "\n" + graph.ToString());
    }
  }
}

TEST(EstimatorParity, LiteWorkloadPlansAndPartialPlans) {
  for (int which = 0; which < 3; ++which) {
    const Workload w = which == 0   ? MakeJobLite(0.04)
                       : which == 1 ? MakeTpcdsLite(0.04)
                                    : MakeCustomerLite(0.04);
    StatsCatalog stats(w.catalog.get());
    std::vector<EstimatedCoutModel> models = ModelsPerFp(&stats);
    for (const QuerySpec& spec : w.queries) {
      auto graph = BuildJoinGraph(*w.catalog, spec);
      ASSERT_TRUE(graph.ok()) << spec.name;
      for (OptimizerMode mode : {OptimizerMode::kBqoShallow,
                                 OptimizerMode::kBaselinePostProcess}) {
        for (double fp : {0.0, 0.01}) {
          OptimizerOptions options;
          options.mode = mode;
          options.filter_fp_rate = fp;
          const Plan plan = OptimizeQuery(graph.value(), &stats, options).plan;
          const std::string label = w.name + " " + spec.name + " " +
                                    OptimizerModeName(mode) +
                                    " plan-fp=" + std::to_string(fp);
          CheckParity(plan.Clone(), &stats, &models, label);
          if (mode != OptimizerMode::kBqoShallow || fp != 0.0) continue;
          for (Plan& partial : PartialPlans(plan)) {
            CheckParity(std::move(partial), &stats, &models,
                        label + " partial");
          }
        }
      }
    }
  }
}

/// One model costing plans over different graphs of one catalog in turn
/// — a copy whose selectivities moved (as a plan-cache verification's
/// rebound graph does) and graphs whose
/// join columns number differently — must never serve one graph's
/// memoized base distincts to another.
TEST(EstimatorParity, ModelReusedAcrossGraphs) {
  auto star = MakeStarDb(3, 3000, 120, {0.2, 0.5, -1.0}, 44);
  auto star_graph = star->Graph();
  ASSERT_TRUE(star_graph.ok());
  const JoinGraph& base = star_graph.value();
  JoinGraph probed = base;
  probed.relation(1).filtered_rows *= 3.5;
  EXPECT_EQ(probed.structure_id(), base.structure_id());
  const JoinGraph multi = MultiColumnStarGraph(star->catalog);
  // A copy that gains an edge renumbers, so it must re-resolve too.
  JoinGraph grown = base;
  JoinEdge extra;
  extra.left = 1;
  extra.right = 2;
  extra.left_cols = {"attr0"};
  extra.right_cols = {"attr0"};
  grown.AddEdge(std::move(extra));
  EXPECT_NE(grown.structure_id(), base.structure_id());

  StatsCatalog stats(&star->catalog);
  EstimatedCoutModel model(&stats, 0.01);
  for (int round = 0; round < 2; ++round) {
    for (const JoinGraph* g : std::vector<const JoinGraph*>{
             &base, &multi, &probed, &grown}) {
      for (const std::vector<int>& order :
           {std::vector<int>{0, 1, 2, 3}, std::vector<int>{2, 0, 3, 1}}) {
        Plan plan = BuildRightDeepPlan(*g, order);
        PushDownBitvectors(&plan);
        ExpectSameBits(MapCoutOracle(&stats, 0.01).Compute(plan),
                       model.Compute(plan), "round " + std::to_string(round));
      }
    }
  }
}

/// A long-lived EstimatedCoutModel whose every result is checked, bit for
/// bit, against a MapCoutOracle on the same plan.
class OracleCheckedModel : public EstimatedCoutModel {
 public:
  OracleCheckedModel(StatsCatalog* stats, double fp_rate)
      : EstimatedCoutModel(stats, fp_rate), oracle_(stats, fp_rate) {}

  CoutBreakdown Compute(const Plan& plan) override {
    CoutBreakdown got = EstimatedCoutModel::Compute(plan);
    ExpectSameBits(oracle_.Compute(plan), got, label + " " + plan.Signature());
    ++calls;
    return got;
  }

  std::string label;
  size_t calls = 0;

 private:
  MapCoutOracle oracle_;
};

/// One model costs plans of changing shapes one after another: every
/// candidate Algorithm 3 builds (star, snowflake and composite-unit
/// fragments, lent from the units and reassembled per candidate), the
/// chosen plan and its pruning passes, the baseline plan, and a copy of
/// each graph whose selectivities moved — query after query, so the
/// model's rows, leaf seeds and memos carry over from one shape to the
/// next.
TEST(EstimatorParity, OneModelCostsChangingShapesInTurn) {
  for (int which = 0; which < 3; ++which) {
    const Workload w = which == 0   ? MakeJobLite(0.04)
                       : which == 1 ? MakeTpcdsLite(0.04)
                                    : MakeCustomerLite(0.04);
    StatsCatalog stats(w.catalog.get());
    for (double fp : {0.0, 0.01}) {
      OracleCheckedModel model(&stats, fp);
      for (size_t qi = 0; qi < w.queries.size(); qi += which == 2 ? 5 : 3) {
        const QuerySpec& spec = w.queries[qi];
        auto graph = BuildJoinGraph(*w.catalog, spec);
        ASSERT_TRUE(graph.ok()) << spec.name;
        JoinGraph moved = graph.value();
        for (int r = 0; r < moved.num_relations(); r += 2) {
          moved.relation(r).filtered_rows =
              std::floor(moved.relation(r).filtered_rows * 0.6) + 1;
        }
        for (const JoinGraph* g : {&graph.value(), &moved}) {
          model.label = w.name + " " + spec.name;
          Plan plan = OptimizeBqo(*g, &model);
          PushDownBitvectors(&plan);
          PruneIneffectiveFilters(&plan, &model, 0.05);
          Plan baseline = OptimizeDpBaseline(*g, &model);
          PushDownBitvectors(&baseline);
          model.Compute(baseline);
        }
      }
      EXPECT_GT(model.calls, w.queries.size()) << w.name;
    }
  }
}

}  // namespace
}  // namespace bqo
