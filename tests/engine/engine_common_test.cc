#include "engine/engine_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/use_cases.h"
#include "engine/relation.h"
#include "graph/generator.h"
#include "util/timer.h"

namespace gmark {
namespace {

// Path graph over predicate a: 0 -> 1 -> 2 -> 3, plus b: 3 -> 0.
Graph PathGraph() {
  GraphConfiguration config;
  config.num_nodes = 4;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(4)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 1, 0}};
  return Graph::Build(layout, 2, edges).ValueOrDie();
}

/// The edge relation of one symbol: a one-symbol path.
NodePairs EdgePairs(const Graph& g, Symbol symbol) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  return ComposePathPairs(g, {symbol}, false, &budget).ValueOrDie().value;
}

TEST(EngineCommonTest, OneSymbolPathForwardAndInverse) {
  Graph g = PathGraph();
  NodePairs fwd = EdgePairs(g, Symbol::Fwd(0));
  EXPECT_EQ(fwd, (NodePairs{{0, 1}, {1, 2}, {2, 3}}));
  // Inverse swaps each pair, in the same forward-CSR order.
  NodePairs inv = EdgePairs(g, Symbol::Inv(0));
  EXPECT_EQ(inv, (NodePairs{{1, 0}, {2, 1}, {3, 2}}));
}

TEST(EngineCommonTest, ComposePathPairs) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  // a.a: {(0,2),(1,3)}.
  auto pairs = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)},
                                /*set_semantics=*/true, &budget);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->value.size(), 2u);
  // a.a.b: {(1,0)} -- wait: 1 -a-> 2 -a-> 3 -b-> 0.
  auto pairs2 = ComposePathPairs(
      g, {Symbol::Fwd(0), Symbol::Fwd(0), Symbol::Fwd(1)}, true, &budget);
  ASSERT_TRUE(pairs2.ok());
  ASSERT_EQ(pairs2->value.size(), 1u);
  EXPECT_EQ(pairs2->value[0], (std::pair<NodeId, NodeId>{1, 0}));
}

TEST(EngineCommonTest, BagVsSetSemanticsDifferOnDiamonds) {
  // Two parallel length-2 routes from 0 to 3 create a duplicate pair
  // under bag semantics.
  GraphConfiguration config;
  config.num_nodes = 4;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(4)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {0, 0, 2}, {1, 0, 3}, {2, 0, 3}};
  Graph g = Graph::Build(layout, 1, edges).ValueOrDie();
  BudgetTracker budget(ResourceBudget::Unlimited());
  auto bag = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)}, false,
                              &budget);
  auto set = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)}, true,
                              &budget);
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(bag->value.size(), 2u);  // (0,3) twice.
  EXPECT_EQ(set->value.size(), 1u);
}

TEST(EngineCommonTest, RegexBasePairsUnionsDisjunctsAsSet) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0)}, {Symbol::Fwd(0)}, {Symbol::Fwd(1)}};
  auto base = RegexBasePairs(g, expr, false, &budget);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->value.size(), 4u);  // 3 a-edges + 1 b-edge, deduplicated.
  EXPECT_EQ(base->charge.count(), 4u);
}

TEST(EngineCommonTest, ClosureOfPathGraphIsFullUpperTriangle) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  NodePairs base = EdgePairs(g, Symbol::Fwd(0));  // 0->1->2->3 chain.
  auto closure = ClosureSemiNaive(g, base, &budget);
  ASSERT_TRUE(closure.ok());
  // Reflexive (4) + all i<j pairs on the chain (6).
  EXPECT_EQ(closure->value.size(), 10u);
}

TEST(EngineCommonTest, ClosureOrderFollowsTheBase) {
  // Reflexive pairs first, then discovery order: a source's targets in
  // the base's order, not by id.
  Graph g = PathGraph();
  const NodePairs base{{0, 2}, {1, 3}, {0, 1}};
  BudgetTracker budget(ResourceBudget::Unlimited());
  const NodePairs reflexive{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  NodePairs naive = reflexive;
  naive.insert(naive.end(), {{0, 2}, {0, 1}, {1, 3}, {0, 3}});
  EXPECT_EQ(ClosureNaive(g, base, &budget)->value, naive);
  NodePairs semi = reflexive;
  semi.insert(semi.end(), {{0, 2}, {1, 3}, {0, 1}, {0, 3}});
  EXPECT_EQ(ClosureSemiNaive(g, base, &budget)->value, semi);
}

TEST(EngineCommonTest, NaiveAndSemiNaiveClosuresAgree) {
  // Property: both strategies compute the same relation on generated
  // graphs (they differ only in cost).
  for (uint64_t seed : {1u, 2u, 3u}) {
    GraphConfiguration config = MakeBibConfig(300, seed);
    Graph g = GenerateGraph(config).ValueOrDie();
    RegularExpression co;
    co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
    BudgetTracker b1(ResourceBudget::Unlimited());
    BudgetTracker b2(ResourceBudget::Unlimited());
    auto base = RegexBasePairs(g, co, true, &b1);
    ASSERT_TRUE(base.ok());
    auto naive = ClosureNaive(g, base->value, &b1);
    auto semi = ClosureSemiNaive(g, base->value, &b2);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(semi.ok());
    DedupPairs(&naive->value);
    DedupPairs(&semi->value);
    EXPECT_EQ(naive->value, semi->value) << "seed=" << seed;
  }
}

TEST(EngineCommonTest, SemiNaiveChargesFewerTuplesThanNaive) {
  // The cost asymmetry that drives Table 4: naive iteration recharges
  // whole-relation scans, semi-naive only deltas.
  GraphConfiguration config = MakeLsnConfig(800, 5);
  Graph g = GenerateGraph(config).ValueOrDie();
  PredicateId knows = config.schema.PredicateIdOf("knows").ValueOrDie();
  NodePairs base = EdgePairs(g, Symbol::Fwd(knows));
  DedupPairs(&base);
  BudgetTracker naive_budget(ResourceBudget::Unlimited());
  BudgetTracker semi_budget(ResourceBudget::Unlimited());
  ASSERT_TRUE(ClosureNaive(g, base, &naive_budget).ok());
  ASSERT_TRUE(ClosureSemiNaive(g, base, &semi_budget).ok());
  // Tuple *output* is identical; the scan work is what differs: naive
  // rescans the whole accumulated relation every round, semi-naive only
  // the delta. Scan counts are deterministic, unlike the wall-clock
  // comparison this test originally made (flaky on loaded machines).
  EXPECT_LT(semi_budget.tuples_scanned(), naive_budget.tuples_scanned());
}

TEST(EngineCommonTest, ClosureRespectsBudget) {
  GraphConfiguration config = MakeBibConfig(2000, 7);
  Graph g = GenerateGraph(config).ValueOrDie();
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  BudgetTracker budget(ResourceBudget::Limited(60.0, 1000));
  auto base = RegexBasePairs(g, co, true, &budget);
  if (base.ok()) {
    EXPECT_TRUE(ClosureNaive(g, base->value, &budget)
                    .status()
                    .IsResourceExhausted());
  } else {
    EXPECT_TRUE(base.status().IsResourceExhausted());
  }
}

// An already-expired budget (negative timeout) must stop a closure from
// inside its row loop, within one PeriodicTimeCheck period: a chain of
// more than one period of base rows keeps the first round busy past it.
NodePairs ChainPastOnePeriod() {
  NodePairs chain;
  for (NodeId v = 0; v <= PeriodicTimeCheck::kDefaultPeriod; ++v) {
    chain.emplace_back(v, v + 1);
  }
  return chain;
}

Graph NodesOnly(int64_t n) {
  GraphConfiguration config;
  config.num_nodes = n;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), 1, {}).ValueOrDie();
}

void ExpectTimedOut(const Status& status, const BudgetTracker& budget) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("timed out"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.over_releases(), 0u);
}

const ResourceBudget kExpired = ResourceBudget::Limited(-1.0, SIZE_MAX);

TEST(EngineCommonDeadlineTest, NaiveClosureChecksTheClock) {
  const NodePairs chain = ChainPastOnePeriod();
  Graph g = NodesOnly(static_cast<int64_t>(chain.size()) + 1);
  BudgetTracker budget(kExpired);
  uint64_t rounds = 0;
  ExpectTimedOut(ClosureNaive(g, chain, &budget, &rounds).status(), budget);
  EXPECT_EQ(rounds, 1u);  // Stopped inside the first round.
}

TEST(EngineCommonDeadlineTest, SemiNaiveClosureChecksTheClock) {
  const NodePairs chain = ChainPastOnePeriod();
  Graph g = NodesOnly(static_cast<int64_t>(chain.size()) + 1);
  BudgetTracker budget(kExpired);
  uint64_t rounds = 0;
  ExpectTimedOut(ClosureSemiNaive(g, chain, &budget, &rounds).status(),
                 budget);
  EXPECT_EQ(rounds, 1u);
}

// Path composition ticks its clock per edge scanned, row extended and
// neighbour visited, so neither a one-symbol path nor one long step
// runs to completion on an expired budget.
TEST(EngineCommonDeadlineTest, OneSymbolPathChecksTheClock) {
  const NodePairs chain = ChainPastOnePeriod();
  GraphConfiguration config;
  config.num_nodes = static_cast<int64_t>(chain.size()) + 1;
  ASSERT_TRUE(config.schema
                  .AddType("t", OccurrenceConstraint::Fixed(config.num_nodes))
                  .ok());
  std::vector<Edge> edges;
  for (const auto& [s, t] : chain) edges.push_back({s, 0, t});
  Graph g = Graph::Build(NodeLayout::Create(config).ValueOrDie(), 1, edges)
                .ValueOrDie();
  for (bool set_semantics : {false, true}) {
    BudgetTracker budget(kExpired);
    ExpectTimedOut(
        ComposePathPairs(g, {Symbol::Inv(0)}, set_semantics, &budget)
            .status(),
        budget);
  }
}

TEST(EngineCommonDeadlineTest, LongStepChecksTheClock) {
  // a: 0 -> 1, one row; b: 1 -> every other node, one period and more.
  const NodeId n = PeriodicTimeCheck::kDefaultPeriod + 3;
  GraphConfiguration config;
  config.num_nodes = static_cast<int64_t>(n);
  ASSERT_TRUE(config.schema
                  .AddType("t", OccurrenceConstraint::Fixed(config.num_nodes))
                  .ok());
  std::vector<Edge> edges{{0, 0, 1}};
  for (NodeId v = 2; v < n; ++v) edges.push_back({1, 1, v});
  Graph g = Graph::Build(NodeLayout::Create(config).ValueOrDie(), 2, edges)
                .ValueOrDie();
  for (bool set_semantics : {false, true}) {
    BudgetTracker budget(kExpired);
    ExpectTimedOut(ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(1)},
                                    set_semantics, &budget)
                       .status(),
                   budget);
  }
}

TEST(EngineCommonTest, EmptyPathRejected) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  EXPECT_FALSE(ComposePathPairs(g, {}, true, &budget).ok());
}

TEST(EngineCommonTest, PairKeysFitBelowTwoToThe32Nodes) {
  const int64_t two32 = int64_t{1} << 32;
  EXPECT_TRUE(CheckPairKeysFit(0).ok());
  EXPECT_TRUE(CheckPairKeysFit(two32 - 1).ok());
  EXPECT_TRUE(CheckPairKeysFit(two32).IsInvalidArgument());
  EXPECT_TRUE(CheckPairKeysFit(two32 + 1).IsInvalidArgument());
  // The largest admissible id is 2^32 - 2: its pairs never pack to the
  // empty-slot marker, which is the key of (2^32 - 1, 2^32 - 1).
  const NodeId last = static_cast<NodeId>(two32 - 2);
  EXPECT_EQ(PairSet::kEmpty, PackPair(last + 1, last + 1));
  PairSet set;
  for (uint64_t key : {PackPair(last, last), PackPair(last, last + 1),
                       PackPair(last + 1, last), PackPair(0, 0)}) {
    EXPECT_NE(key, PairSet::kEmpty);
    EXPECT_TRUE(set.Insert(key));
    EXPECT_FALSE(set.Insert(key));
  }
  EXPECT_EQ(set.size(), 4u);
}

TEST(EngineCommonTest, EdgeKeysFitExactlyWhenTheLastKeyDoesNotWrap) {
  const int64_t two32 = int64_t{1} << 32;
  const int64_t two31 = int64_t{1} << 31;
  EXPECT_TRUE(CheckEdgeKeysFit(0, two32 * 4).ok());  // No edges to key.
  EXPECT_TRUE(CheckEdgeKeysFit(3, 0).ok());
  EXPECT_TRUE(CheckEdgeKeysFit(1, two32).ok());  // Last key 2^64 - 1.
  EXPECT_TRUE(CheckEdgeKeysFit(2, two32).IsInvalidArgument());
  EXPECT_TRUE(CheckEdgeKeysFit(1, two32 + 1).IsInvalidArgument());
  EXPECT_TRUE(CheckEdgeKeysFit(4, two31).ok());
  EXPECT_TRUE(CheckEdgeKeysFit(5, two31).IsInvalidArgument());
  EXPECT_TRUE(CheckEdgeKeysFit(1000, 1000000).ok());
}

}  // namespace
}  // namespace gmark
