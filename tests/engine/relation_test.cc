#include "engine/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "util/random.h"

namespace gmark {
namespace {

VarRelation MakeRelation(std::vector<VarId> vars,
                         std::vector<std::vector<NodeId>> rows) {
  VarRelation rel(std::move(vars));
  for (const auto& row : rows) rel.AppendRow(row);
  return rel;
}

TEST(RelationTest, FromPairsBinary) {
  VarRelation rel = VarRelation::FromPairs(0, 1, {{1, 2}, {3, 4}});
  EXPECT_EQ(rel.width(), 2u);
  EXPECT_EQ(rel.row_count(), 2u);
  EXPECT_EQ(rel.row(1)[0], 3u);
  EXPECT_EQ(rel.row(1)[1], 4u);
}

TEST(RelationTest, FromPairsSelfVariableKeepsReflexiveOnly) {
  VarRelation rel = VarRelation::FromPairs(0, 0, {{1, 2}, {3, 3}, {4, 4}});
  EXPECT_EQ(rel.width(), 1u);
  EXPECT_EQ(rel.row_count(), 2u);
  EXPECT_EQ(rel.row(0)[0], 3u);
}

TEST(RelationTest, HashJoinOnSharedVariable) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {3, 4}, {5, 2}});
  VarRelation s = MakeRelation({1, 2}, {{2, 7}, {2, 8}, {4, 9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.vars(), (std::vector<VarId>{0, 1, 2}));
  // (1,2)x{7,8}, (5,2)x{7,8}, (3,4)x{9}: 5 rows.
  EXPECT_EQ(joined.value.row_count(), 5u);
  // The join output's charge is bound to the relation's lifetime.
  EXPECT_EQ(joined.charge.count(), 5u);
  EXPECT_EQ(budget.tuples_used(), 5u);
}

TEST(RelationTest, HashJoinOnTwoSharedVariables) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {3, 4}});
  VarRelation s = MakeRelation({0, 1}, {{1, 2}, {3, 9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.row_count(), 1u);
  EXPECT_EQ(joined.value.row(0)[0], 1u);
}

TEST(RelationTest, HashJoinWithoutSharedVariablesIsCrossProduct) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0}, {{1}, {2}});
  VarRelation s = MakeRelation({1}, {{7}, {8}, {9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.row_count(), 6u);
  EXPECT_EQ(joined.value.width(), 2u);
}

TEST(RelationTest, HashJoinChargesBudget) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, 3));
  VarRelation r = MakeRelation({0}, {{1}, {2}});
  VarRelation s = MakeRelation({1}, {{7}, {8}, {9}});
  EXPECT_TRUE(HashJoin(r, s, &budget).status().IsResourceExhausted());
}

TEST(RelationTest, ProjectDistinct) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {1, 3}, {1, 2}, {4, 2}});
  ChargedRelation p = ProjectDistinct(r, {0}, &budget).ValueOrDie();
  EXPECT_EQ(p.value.row_count(), 2u);  // {1, 4}
  ChargedRelation p2 = ProjectDistinct(r, {0, 1}, &budget).ValueOrDie();
  EXPECT_EQ(p2.value.row_count(), 3u);
  ChargedRelation swapped = ProjectDistinct(r, {1, 0}, &budget).ValueOrDie();
  EXPECT_EQ(swapped.value.row_count(), 3u);
  EXPECT_EQ(swapped.value.row(0)[0], 2u);  // Column order follows `onto`.
}

TEST(RelationTest, ProjectDistinctOnUnknownVariableFails) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}});
  EXPECT_FALSE(ProjectDistinct(r, {9}, &budget).ok());
}

TEST(RelationTest, NullaryProjection) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation nonempty = MakeRelation({0}, {{1}});
  VarRelation empty = MakeRelation({0}, {});
  EXPECT_EQ(ProjectDistinct(nonempty, {}, &budget)->value.row_count(), 1u);
  EXPECT_EQ(ProjectDistinct(empty, {}, &budget)->value.row_count(), 0u);
}

TEST(RelationTest, CountDistinctUnionMergesOverlap) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1}, {{1, 2}, {3, 4}});
  VarRelation b = MakeRelation({0, 1}, {{3, 4}, {5, 6}});
  EXPECT_EQ(CountDistinctUnion({a, b}, &budget).ValueOrDie(), 3u);
  EXPECT_EQ(CountDistinctUnion({}, &budget).ValueOrDie(), 0u);
}

TEST(RelationTest, CountDistinctUnionNullary) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation t = MakeRelation({0}, {{1}});
  BudgetTracker b2(ResourceBudget::Unlimited());
  ChargedRelation projected = ProjectDistinct(t, {}, &b2).ValueOrDie();
  EXPECT_EQ(CountDistinctUnion({projected.value}, &budget).ValueOrDie(), 1u);
}

TEST(RelationTest, DedupPairsSortsAndUniques) {
  std::vector<std::pair<NodeId, NodeId>> pairs{{3, 4}, {1, 2}, {3, 4},
                                               {1, 2}, {0, 0}};
  DedupPairs(&pairs);
  EXPECT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<NodeId, NodeId>{0, 0}));
  EXPECT_EQ(pairs[2], (std::pair<NodeId, NodeId>{3, 4}));
}

TEST(BudgetTest, TupleAccounting) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, 10));
  EXPECT_TRUE(budget.ChargeTuples(6).ok());
  EXPECT_EQ(budget.tuples_used(), 6u);
  budget.ReleaseTuples(4);
  EXPECT_EQ(budget.tuples_used(), 2u);
  EXPECT_TRUE(budget.ChargeTuples(8).ok());
  EXPECT_TRUE(budget.ChargeTuples(1).IsResourceExhausted());
  budget.ReleaseTuples(1000);  // Saturates at zero.
  EXPECT_EQ(budget.tuples_used(), 0u);
}

TEST(RelationTest, CountDistinctUnionRejectsUnequalWidths) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1}, {{1, 2}});
  VarRelation b = MakeRelation({0}, {{1}});
  EXPECT_TRUE(CountDistinctUnion({a, b}, &budget).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Differential check against std::map/std::set oracles: same rows in
// the same order, the same number of charges, the same peak, and the
// same failing charge under a tight tuple ceiling.

// The oracles restate each operator's documented semantics in the most
// direct form: ordered containers keyed by materialized rows.

std::vector<NodeId> Columns(std::span<const NodeId> row,
                            const std::vector<int>& positions) {
  std::vector<NodeId> out;
  for (int p : positions) out.push_back(row[static_cast<size_t>(p)]);
  return out;
}

Result<ChargedRelation> OracleJoin(const VarRelation& a, const VarRelation& b,
                                   BudgetTracker* budget) {
  std::vector<int> a_pos, b_pos, b_extra;
  std::vector<VarId> out_vars = a.vars();
  for (size_t i = 0; i < a.width(); ++i) {
    const int j = b.IndexOf(a.vars()[i]);
    if (j >= 0) {
      a_pos.push_back(static_cast<int>(i));
      b_pos.push_back(j);
    }
  }
  for (size_t j = 0; j < b.width(); ++j) {
    if (a.IndexOf(b.vars()[j]) < 0) {
      out_vars.push_back(b.vars()[j]);
      b_extra.push_back(static_cast<int>(j));
    }
  }
  std::map<std::vector<NodeId>, std::vector<size_t>> index;
  for (size_t j = 0; j < b.row_count(); ++j) {
    index[Columns(b.row(j), b_pos)].push_back(j);
  }
  VarRelation out(out_vars);
  TupleCharge charge(budget);
  for (size_t i = 0; i < a.row_count(); ++i) {
    auto it = index.find(Columns(a.row(i), a_pos));
    if (it == index.end()) continue;
    for (size_t j : it->second) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      out.AppendRow(a.row(i));
      out.AppendRow(Columns(b.row(j), b_extra));
    }
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<ChargedRelation> OracleProject(const VarRelation& rel,
                                      const std::vector<VarId>& onto,
                                      BudgetTracker* budget) {
  std::vector<int> positions;
  for (VarId v : onto) positions.push_back(rel.IndexOf(v));
  VarRelation out(onto);
  TupleCharge charge(budget);
  if (onto.empty()) {
    if (rel.row_count() > 0) out.SetNonEmpty();
    return ChargedRelation(std::move(out), std::move(charge));
  }
  std::set<std::vector<NodeId>> seen;
  for (size_t i = 0; i < rel.row_count(); ++i) {
    std::vector<NodeId> key = Columns(rel.row(i), positions);
    if (seen.insert(key).second) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      out.AppendRow(key);
    }
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<uint64_t> OracleCountUnion(const std::vector<VarRelation>& rels,
                                  BudgetTracker* budget) {
  if (rels.empty()) return static_cast<uint64_t>(0);
  if (rels[0].width() == 0) {
    for (const auto& r : rels) {
      if (r.row_count() > 0) return static_cast<uint64_t>(1);
    }
    return static_cast<uint64_t>(0);
  }
  std::set<std::vector<NodeId>> seen;
  TupleCharge charge(budget);
  for (const auto& r : rels) {
    for (size_t i = 0; i < r.row_count(); ++i) {
      if (seen.emplace(r.row(i).begin(), r.row(i).end()).second) {
        GMARK_RETURN_NOT_OK(charge.Charge(1));
      }
    }
  }
  return static_cast<uint64_t>(seen.size());
}

constexpr uint64_t kDifferentialRoot = 0x5eedf1a7;
constexpr int kDifferentialCases = 400;

/// A random relation over `vars`: duplicate-heavy (values from a domain
/// of 1..4 nodes, so all-equal keys come up often), sometimes empty.
VarRelation RandomRelation(RandomEngine* rng, std::vector<VarId> vars) {
  VarRelation rel(std::move(vars));
  const int64_t rows = rng->UniformInt(0, 4) == 0 ? 0 : rng->UniformInt(1, 40);
  if (rel.width() == 0) {
    if (rows > 0) rel.SetNonEmpty();
    return rel;
  }
  const int64_t domain = rng->UniformInt(1, 4);
  std::vector<NodeId> row(rel.width());
  for (int64_t i = 0; i < rows; ++i) {
    for (NodeId& v : row) v = static_cast<NodeId>(rng->UniformInt(0, domain));
    rel.AppendRow(row);
  }
  return rel;
}

/// `width` distinct variables drawn from 0..4, in random order.
std::vector<VarId> RandomVars(RandomEngine* rng, size_t width) {
  std::vector<VarId> pool{0, 1, 2, 3, 4};
  rng->Shuffle(&pool);
  pool.resize(width);
  return pool;
}

size_t RandomWidth(RandomEngine* rng) {
  return static_cast<size_t>(rng->UniformInt(0, 3));
}

void ExpectSameRelation(const VarRelation& got, const VarRelation& want) {
  ASSERT_EQ(got.vars(), want.vars());
  ASSERT_EQ(got.row_count(), want.row_count());
  for (size_t i = 0; i < want.row_count() && got.width() > 0; ++i) {
    ASSERT_TRUE(std::equal(got.row(i).begin(), got.row(i).end(),
                           want.row(i).begin(), want.row(i).end()))
        << "row " << i;
  }
}

/// Runs `op` and `oracle` (each taking a BudgetTracker*) unlimited, then
/// under tuple ceilings spread below the oracle's charge count (first,
/// middle and last charge): statuses, charge counts and peaks must
/// match, and `same_value` compares the unlimited results.
template <typename Op, typename Oracle, typename SameValue>
void Differential(Op op, Oracle oracle, SameValue same_value) {
  BudgetTracker op_budget(ResourceBudget::Unlimited());
  BudgetTracker oracle_budget(ResourceBudget::Unlimited());
  auto got = op(&op_budget);
  auto want = oracle(&oracle_budget);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  same_value(*got, *want);
  EXPECT_EQ(op_budget.peak_tuples(), oracle_budget.peak_tuples());
  EXPECT_EQ(op_budget.tuples_used(), oracle_budget.tuples_used());
  const size_t charges = oracle_budget.peak_tuples();
  for (size_t ceiling : {size_t{0}, size_t{1}, charges / 3, charges / 2,
                         charges - 1}) {
    if (ceiling >= charges) continue;
    const ResourceBudget tight = ResourceBudget::Limited(
        std::numeric_limits<double>::infinity(), ceiling);
    BudgetTracker op_tight(tight);
    BudgetTracker oracle_tight(tight);
    EXPECT_TRUE(op(&op_tight).status().IsResourceExhausted()) << ceiling;
    EXPECT_TRUE(oracle(&oracle_tight).status().IsResourceExhausted());
    EXPECT_EQ(op_tight.peak_tuples(), oracle_tight.peak_tuples()) << ceiling;
    EXPECT_EQ(op_tight.tuples_used(), 0u);
    EXPECT_EQ(op_tight.over_releases(), 0u);
  }
}

void SameCharged(const ChargedRelation& got, const ChargedRelation& want) {
  ExpectSameRelation(got.value, want.value);
  EXPECT_EQ(got.charge.count(), want.charge.count());
}

TEST(RelationDifferentialTest, HashJoinMatchesOracle) {
  for (int c = 0; c < kDifferentialCases; ++c) {
    SCOPED_TRACE("seed " + std::to_string(DeriveSeed(kDifferentialRoot, 1, c)));
    RandomEngine rng(DeriveSeed(kDifferentialRoot, 1, c));
    const size_t a_width = RandomWidth(&rng);
    std::vector<VarId> a_vars = RandomVars(&rng, a_width);
    // One case in four joins on no shared variable: a cross product.
    std::vector<VarId> b_vars;
    if (rng.UniformInt(0, 3) == 0) {
      for (VarId v = 5; v < 5 + static_cast<VarId>(RandomWidth(&rng)); ++v) {
        b_vars.push_back(v);
      }
    } else {
      b_vars = RandomVars(&rng, RandomWidth(&rng));
    }
    VarRelation a = RandomRelation(&rng, a_vars);
    VarRelation b = RandomRelation(&rng, b_vars);
    Differential([&](BudgetTracker* t) { return HashJoin(a, b, t); },
                 [&](BudgetTracker* t) { return OracleJoin(a, b, t); },
                 SameCharged);
  }
}

TEST(RelationDifferentialTest, ProjectDistinctMatchesOracle) {
  for (int c = 0; c < kDifferentialCases; ++c) {
    SCOPED_TRACE("seed " + std::to_string(DeriveSeed(kDifferentialRoot, 2, c)));
    RandomEngine rng(DeriveSeed(kDifferentialRoot, 2, c));
    VarRelation rel = RandomRelation(&rng, RandomVars(&rng, RandomWidth(&rng)));
    // A random ordered subset of the relation's variables.
    std::vector<VarId> onto = rel.vars();
    rng.Shuffle(&onto);
    onto.resize(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(onto.size()))));
    Differential(
        [&](BudgetTracker* t) { return ProjectDistinct(rel, onto, t); },
        [&](BudgetTracker* t) { return OracleProject(rel, onto, t); },
        SameCharged);
  }
}

TEST(RelationDifferentialTest, CountDistinctUnionMatchesOracle) {
  for (int c = 0; c < kDifferentialCases; ++c) {
    SCOPED_TRACE("seed " + std::to_string(DeriveSeed(kDifferentialRoot, 3, c)));
    RandomEngine rng(DeriveSeed(kDifferentialRoot, 3, c));
    const std::vector<VarId> vars = RandomVars(&rng, RandomWidth(&rng));
    std::vector<VarRelation> rels;
    for (int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
      rels.push_back(RandomRelation(&rng, vars));
    }
    Differential(
        [&](BudgetTracker* t) { return CountDistinctUnion(rels, t); },
        [&](BudgetTracker* t) { return OracleCountUnion(rels, t); },
        [](uint64_t got, uint64_t want) { EXPECT_EQ(got, want); });
  }
}

// CountRuleUnion against CountDistinctUnion, in the engines' calling
// shape: each rule's result comes from ProjectDistinct and stays
// charged while the union is counted. Both run unlimited and under
// every tuple ceiling below the unlimited peak. Nothing is released
// while a union counts, so each of its charges sets a new high-water
// mark and a ceiling fails exactly the charge that crosses it: equal
// statuses and peaks at every ceiling pin the whole Charge sequence.
TEST(RelationDifferentialTest, CountRuleUnionMatchesCountDistinctUnion) {
  int one_rule = 0, nullary = 0, with_duplicates = 0;
  for (int c = 0; c < kDifferentialCases; ++c) {
    const uint64_t seed = DeriveSeed(kDifferentialRoot, 4, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed);
    const std::vector<VarId> vars = RandomVars(&rng, 3);
    std::vector<VarRelation> bodies;
    for (int64_t i = rng.UniformInt(1, 3); i > 0; --i) {
      VarRelation body(vars);
      const int64_t domain = rng.UniformInt(1, 60);
      std::vector<NodeId> row(vars.size());
      for (int64_t r = rng.UniformInt(0, 100); r > 0; --r) {
        for (NodeId& v : row) {
          v = static_cast<NodeId>(rng.UniformInt(0, domain));
        }
        body.AppendRow(row);
      }
      bodies.push_back(std::move(body));
    }
    // One head for every rule, as a union's rules share their arity.
    std::vector<VarId> head = vars;
    rng.Shuffle(&head);
    head.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
    one_rule += bodies.size() == 1;
    nullary += head.empty();

    auto run = [&](bool rule_union, BudgetTracker* budget) -> Result<uint64_t> {
      std::vector<VarRelation> rules;
      std::vector<TupleCharge> charges;
      for (const VarRelation& body : bodies) {
        GMARK_ASSIGN_OR_RETURN(ChargedRelation projected,
                               ProjectDistinct(body, head, budget));
        rules.push_back(std::move(projected.value));
        charges.push_back(std::move(projected.charge));
      }
      return rule_union ? CountRuleUnion(rules, budget)
                        : CountDistinctUnion(rules, budget);
    };
    BudgetTracker got_budget(ResourceBudget::Unlimited());
    BudgetTracker want_budget(ResourceBudget::Unlimited());
    auto got = run(true, &got_budget);
    auto want = run(false, &want_budget);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(got_budget.peak_tuples(), want_budget.peak_tuples());
    EXPECT_EQ(got_budget.tuples_used(), 0u);
    with_duplicates += *want < bodies[0].row_count();
    for (size_t ceiling = 0; ceiling < want_budget.peak_tuples(); ++ceiling) {
      const ResourceBudget tight = ResourceBudget::Limited(
          std::numeric_limits<double>::infinity(), ceiling);
      BudgetTracker got_tight(tight);
      BudgetTracker want_tight(tight);
      const Status got_status = run(true, &got_tight).status();
      const Status want_status = run(false, &want_tight).status();
      ASSERT_TRUE(want_status.IsResourceExhausted()) << ceiling;
      EXPECT_EQ(got_status.ToString(), want_status.ToString()) << ceiling;
      EXPECT_EQ(got_tight.peak_tuples(), want_tight.peak_tuples()) << ceiling;
      EXPECT_EQ(got_tight.tuples_used(), 0u);
      EXPECT_EQ(got_tight.over_releases(), 0u);
    }
  }
  EXPECT_GT(one_rule, 0);
  EXPECT_GT(nullary, 0);
  EXPECT_GT(with_duplicates, 0);
}

// ---------------------------------------------------------------------
// Deadline tests: every operator loop checks the clock within one
// PeriodicTimeCheck period, so an input one row past the period fails
// on an already-expired budget instead of running to completion.

constexpr size_t kPastOnePeriod = PeriodicTimeCheck::kDefaultPeriod + 1;

/// A unary relation over `var` with `rows` distinct rows.
VarRelation DistinctColumn(VarId var, size_t rows) {
  VarRelation rel({var});
  for (NodeId v = 0; v < rows; ++v) rel.AppendRow({&v, 1});
  return rel;
}

void ExpectTimedOut(const Status& status, const BudgetTracker& budget) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("timed out"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.over_releases(), 0u);
}

const ResourceBudget kExpired =
    ResourceBudget::Limited(-1.0, std::numeric_limits<size_t>::max());

TEST(RelationDeadlineTest, HashJoinBuildChecksTheClock) {
  // No probe rows: only the build loop can notice the deadline.
  BudgetTracker budget(kExpired);
  VarRelation a({0});
  ExpectTimedOut(
      HashJoin(a, DistinctColumn(0, kPastOnePeriod), &budget).status(),
      budget);
}

TEST(RelationDeadlineTest, HashJoinProbeChecksTheClock) {
  BudgetTracker budget(kExpired);
  ExpectTimedOut(HashJoin(DistinctColumn(0, kPastOnePeriod),
                          DistinctColumn(0, 1), &budget)
                     .status(),
                 budget);
}

TEST(RelationDeadlineTest, ProjectDistinctChecksTheClock) {
  BudgetTracker budget(kExpired);
  ExpectTimedOut(
      ProjectDistinct(DistinctColumn(0, kPastOnePeriod), {0}, &budget)
          .status(),
      budget);
}

TEST(RelationDeadlineTest, CountDistinctUnionChecksTheClock) {
  BudgetTracker budget(kExpired);
  ExpectTimedOut(
      CountDistinctUnion({DistinctColumn(0, kPastOnePeriod)}, &budget)
          .status(),
      budget);
}

TEST(RelationDeadlineTest, CountRuleUnionChecksTheClockLikeTheSet) {
  // The replayed charges stop at the same clock check as the distinct
  // set's: same status, same peak.
  BudgetTracker got(kExpired);
  BudgetTracker want(kExpired);
  const std::vector<VarRelation> rule{DistinctColumn(0, kPastOnePeriod)};
  ExpectTimedOut(CountRuleUnion(rule, &got).status(), got);
  ExpectTimedOut(CountDistinctUnion(rule, &want).status(), want);
  EXPECT_EQ(got.peak_tuples(), want.peak_tuples());
  EXPECT_EQ(got.peak_tuples(), PeriodicTimeCheck::kDefaultPeriod - 1);
}

TEST(BudgetTest, TimeoutFires) {
  BudgetTracker budget(ResourceBudget::Limited(0.0, 100));
  EXPECT_TRUE(budget.CheckTime().IsResourceExhausted());
  BudgetTracker relaxed(ResourceBudget::Unlimited());
  EXPECT_TRUE(relaxed.CheckTime().ok());
}

}  // namespace
}  // namespace gmark
