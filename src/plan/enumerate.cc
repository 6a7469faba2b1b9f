#include "src/plan/enumerate.h"

#include <algorithm>

#include "src/common/macros.h"

namespace bqo {

namespace {

void EnumerateRec(const JoinGraph& graph, std::vector<int>* order,
                  RelSet used, size_t limit,
                  std::vector<std::vector<int>>* out, size_t* count,
                  bool collect) {
  if (*count >= limit) return;
  if (static_cast<int>(order->size()) == graph.num_relations()) {
    ++*count;
    if (collect) out->push_back(*order);
    return;
  }
  for (int rel = 0; rel < graph.num_relations(); ++rel) {
    if (RelSetContains(used, rel)) continue;
    // The next relation must join something already in the prefix
    // (no cross products). The first relation is unconstrained.
    if (!order->empty() && !graph.Adjacent(used, RelBit(rel))) continue;
    order->push_back(rel);
    EnumerateRec(graph, order, used | RelBit(rel), limit, out, count,
                 collect);
    order->pop_back();
    if (*count >= limit) return;
  }
}

}  // namespace

std::vector<std::vector<int>> EnumerateRightDeepOrders(const JoinGraph& graph,
                                                       size_t limit) {
  std::vector<std::vector<int>> out;
  std::vector<int> order;
  size_t count = 0;
  EnumerateRec(graph, &order, 0, limit, &out, &count, /*collect=*/true);
  return out;
}

size_t CountRightDeepOrders(const JoinGraph& graph, size_t limit) {
  std::vector<std::vector<int>> unused;
  std::vector<int> order;
  size_t count = 0;
  EnumerateRec(graph, &order, 0, limit, &unused, &count, /*collect=*/false);
  return count;
}

int SnowflakeShape::TotalRelations() const {
  int n = 1;
  for (const auto& b : branches) n += static_cast<int>(b.size());
  return n;
}

std::vector<std::vector<int>> StarCandidateOrders(const JoinGraph& graph,
                                                  int fact) {
  std::vector<int> dims;
  for (int r = 0; r < graph.num_relations(); ++r) {
    if (r != fact) dims.push_back(r);
  }
  std::vector<std::vector<int>> out;
  // T(R0, R1, ..., Rn): fact is the right-most leaf.
  {
    std::vector<int> order{fact};
    order.insert(order.end(), dims.begin(), dims.end());
    out.push_back(std::move(order));
  }
  // T(Rk, R0, rest): dimension Rk is the right-most leaf, fact is next.
  for (int k : dims) {
    std::vector<int> order{k, fact};
    for (int d : dims) {
      if (d != k) order.push_back(d);
    }
    out.push_back(std::move(order));
  }
  return out;
}

std::vector<std::vector<int>> BranchCandidateOrders(
    const std::vector<int>& chain) {
  BQO_CHECK(chain.size() >= 2);
  const int n = static_cast<int>(chain.size()) - 1;
  std::vector<std::vector<int>> out;
  // T(Rn, Rn-1, ..., R0).
  {
    std::vector<int> order(chain.rbegin(), chain.rend());
    out.push_back(std::move(order));
  }
  // T(Rk, Rk+1, ..., Rn, Rk-1, Rk-2, ..., R0) for 0 <= k <= n-1.
  for (int k = 0; k <= n - 1; ++k) {
    std::vector<int> order;
    for (int j = k; j <= n; ++j) order.push_back(chain[static_cast<size_t>(j)]);
    for (int j = k - 1; j >= 0; --j) {
      order.push_back(chain[static_cast<size_t>(j)]);
    }
    out.push_back(std::move(order));
  }
  return out;
}

std::vector<std::vector<int>> SnowflakeCandidateOrders(
    const SnowflakeShape& shape) {
  BQO_CHECK(shape.fact >= 0);
  std::vector<std::vector<int>> out;

  auto append_branch_canonical = [](std::vector<int>* order,
                                    const std::vector<int>& branch) {
    // Fact-adjacent relation first: R_{i,1}, R_{i,2}, ..., R_{i,ni}. Any
    // partial order works (Lemma 8); this one is canonical.
    order->insert(order->end(), branch.begin(), branch.end());
  };

  // Candidate 1: fact right-most, branches in canonical partial order.
  {
    std::vector<int> order{shape.fact};
    for (const auto& b : shape.branches) append_branch_canonical(&order, b);
    out.push_back(std::move(order));
  }

  // For each branch i and start position k (1-based within the branch):
  // T(R_{i,k}, R_{i,k+1}, ..., R_{i,ni}, R_{i,k-1}, ..., R_{i,1}, R0, rest).
  for (size_t i = 0; i < shape.branches.size(); ++i) {
    const std::vector<int>& branch = shape.branches[i];
    const int ni = static_cast<int>(branch.size());
    for (int k = 1; k <= ni; ++k) {
      std::vector<int> order;
      for (int j = k; j <= ni; ++j) {
        order.push_back(branch[static_cast<size_t>(j - 1)]);
      }
      for (int j = k - 1; j >= 1; --j) {
        order.push_back(branch[static_cast<size_t>(j - 1)]);
      }
      order.push_back(shape.fact);
      for (size_t o = 0; o < shape.branches.size(); ++o) {
        if (o != i) append_branch_canonical(&order, shape.branches[o]);
      }
      out.push_back(std::move(order));
    }
  }
  BQO_CHECK_EQ(static_cast<int>(out.size()), shape.TotalRelations());
  return out;
}

}  // namespace bqo
