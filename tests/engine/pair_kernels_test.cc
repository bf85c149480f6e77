// Differential tests of the pair kernels behind conjunct
// materialization: DedupPairs against std::sort + std::unique, and path
// composition and both closures against node-based oracles
// (std::unordered_set / std::unordered_multimap, the containers the
// flat kernels replaced), kept here. Every random case comes from
// DeriveSeed, so a failure names the seed that reproduces it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine_common.h"
#include "engine/relation.h"
#include "util/random.h"

namespace gmark {
namespace {

constexpr uint64_t kRoot = 0x9a1b7e55u;
constexpr int kCases = 300;

// ---------------------------------------------------------------------
// DedupPairs

NodePairs SortUnique(NodePairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void ExpectDedupMatchesOracle(const NodePairs& input) {
  NodePairs got = input;
  DedupPairs(&got);
  EXPECT_EQ(got, SortUnique(input));
}

TEST(DedupPairsTest, NamedCases) {
  const NodeId two32 = NodeId{1} << 32;
  const NodeId max = std::numeric_limits<NodeId>::max();
  ExpectDedupMatchesOracle({});
  ExpectDedupMatchesOracle({{7, 3}});
  ExpectDedupMatchesOracle({{0, 0}});
  ExpectDedupMatchesOracle(NodePairs(50, {5, 9}));  // All equal.
  ExpectDedupMatchesOracle({{0, 1}, {0, 2}, {1, 0}, {1, 1}, {3, 0}});
  NodePairs reversed;
  for (NodeId s = 40; s-- > 0;) {
    for (NodeId t = 3; t-- > 0;) reversed.emplace_back(s, t);
  }
  ExpectDedupMatchesOracle(reversed);
  // Ids near 2^32 and above, up to the largest NodeId.
  ExpectDedupMatchesOracle({{two32, two32 - 1},
                            {two32 - 1, two32},
                            {two32 - 2, two32 - 1},
                            {two32 - 1, two32 - 1},
                            {two32 + 1, 0},
                            {two32 - 1, two32},
                            {0, two32 + 1},
                            {max, max},
                            {max, 0},
                            {0, max},
                            {max - 1, max},
                            {max, max}});
  // Only the high bits of the source differ.
  ExpectDedupMatchesOracle({{max, 1}, {two32, 1}, {max - two32, 1}, {1, 1}});
}

/// A random id of `bits` significant bits at most.
NodeId RandomId(RandomEngine* rng, int bits) {
  if (bits == 0) return 0;
  const uint64_t raw = SplitMix64(static_cast<uint64_t>(
      rng->UniformInt(0, std::numeric_limits<int64_t>::max())));
  return raw >> (64 - bits);
}

TEST(DedupPairsTest, MatchesSortUniqueOnRandomInputs) {
  bool wide = false, sorted = false, duplicated = false;
  for (int c = 0; c < kCases * 2; ++c) {
    const uint64_t seed = DeriveSeed(kRoot, 1, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed);
    const int source_bits = static_cast<int>(rng.UniformInt(0, 64));
    const int target_bits = static_cast<int>(rng.UniformInt(0, 64));
    const int64_t rows = rng.UniformInt(0, 300);
    NodePairs input;
    for (int64_t i = 0; i < rows; ++i) {
      // One row in four repeats an earlier row.
      if (!input.empty() && rng.UniformInt(0, 3) == 0) {
        input.push_back(input[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(input.size()) - 1))]);
        duplicated = true;
      } else {
        input.emplace_back(RandomId(&rng, source_bits),
                           RandomId(&rng, target_bits));
      }
    }
    if (rng.UniformInt(0, 4) == 0) {
      std::sort(input.begin(), input.end());
      sorted = sorted || rows > 1;
    }
    wide = wide || source_bits > 33 || target_bits > 33;
    ExpectDedupMatchesOracle(input);
  }
  EXPECT_TRUE(wide);
  EXPECT_TRUE(sorted);
  EXPECT_TRUE(duplicated);
}

TEST(DedupPairsTest, SmallInputsWithWideIds) {
  // A few pairs over wide ids take more, narrower digits than a large
  // input would (fewer buckets to zero and scan per pass); the result
  // must not depend on that split.
  int c = 0;
  for (int bits : {2, 5, 10, 11, 12, 17, 22, 33, 45, 64}) {
    for (int64_t rows : {2, 3, 7, 16, 40, 100}) {
      const uint64_t seed = DeriveSeed(kRoot, 5, c++);
      SCOPED_TRACE("seed " + std::to_string(seed));
      RandomEngine rng(seed);
      NodePairs input;
      for (int64_t i = 0; i < rows; ++i) {
        // Both fields reach `bits` bits; one row in five repeats.
        if (!input.empty() && rng.UniformInt(0, 4) == 0) {
          input.push_back(input.front());
        } else {
          input.emplace_back(RandomId(&rng, bits), RandomId(&rng, bits));
        }
      }
      ExpectDedupMatchesOracle(input);
    }
  }
}

// ---------------------------------------------------------------------
// PairSet

TEST(PairSetTest, MatchesUnorderedSetThroughGrowth) {
  for (int c = 0; c < 20; ++c) {
    const uint64_t seed = DeriveSeed(kRoot, 2, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed);
    PairSet set(static_cast<size_t>(rng.UniformInt(0, 100)));
    std::unordered_set<uint64_t> oracle;
    const int64_t domain = rng.UniformInt(1, 5000);
    for (int i = 0; i < 10000; ++i) {
      const uint64_t key = PackPair(
          static_cast<NodeId>(rng.UniformInt(0, domain)),
          static_cast<NodeId>(rng.UniformInt(0, domain)));
      ASSERT_EQ(set.Insert(key), oracle.insert(key).second) << i;
    }
    EXPECT_EQ(set.size(), oracle.size());
  }
}

// ---------------------------------------------------------------------
// Path composition and closures

/// The kernels as they stood before the flat containers, kept as
/// oracles: charges, releases and clock-independent structure are the
/// contract, so the oracles repeat them call for call.
uint64_t OracleKey(NodeId a, NodeId b) { return (a << 32) | b; }

Result<ChargedPairs> OracleCompose(const Graph& graph, const PathExpr& path,
                                   bool set_semantics,
                                   BudgetTracker* budget) {
  NodePairs current;
  graph.ForEachEdge(path[0].predicate, [&](NodeId s, NodeId t) {
    if (path[0].inverse) {
      current.emplace_back(t, s);
    } else {
      current.emplace_back(s, t);
    }
  });
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  for (size_t i = 1; i < path.size(); ++i) {
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    std::unordered_set<uint64_t> seen;
    for (const auto& [x, mid] : current) {
      auto neighbors = sym.inverse ? graph.InNeighbors(sym.predicate, mid)
                                   : graph.OutNeighbors(sym.predicate, mid);
      for (NodeId w : neighbors) {
        if (set_semantics && !seen.insert(OracleKey(x, w)).second) continue;
        GMARK_RETURN_NOT_OK(next_charge.Charge(1));
        next.emplace_back(x, w);
      }
    }
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

Result<ChargedPairs> OracleClosure(const Graph& graph, const NodePairs& base,
                                   bool semi_naive, BudgetTracker* budget,
                                   uint64_t* rounds) {
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::unordered_set<uint64_t> known;
  NodePairs result;
  TupleCharge charge(budget);
  for (NodeId v = 0; v < n; ++v) {
    known.insert(OracleKey(v, v));
    result.emplace_back(v, v);
  }
  GMARK_RETURN_NOT_OK(charge.Charge(result.size()));
  std::unordered_multimap<NodeId, NodeId> base_by_src;
  for (const auto& [s, t] : base) base_by_src.emplace(s, t);
  if (!semi_naive) {
    bool grew = true;
    while (grew) {
      grew = false;
      ++*rounds;
      budget->ChargeScan(result.size());
      NodePairs additions;
      for (const auto& [x, mid] : result) {
        auto range = base_by_src.equal_range(mid);
        for (auto it = range.first; it != range.second; ++it) {
          if (known.insert(OracleKey(x, it->second)).second) {
            GMARK_RETURN_NOT_OK(charge.Charge(1));
            additions.emplace_back(x, it->second);
          }
        }
      }
      if (!additions.empty()) {
        grew = true;
        result.insert(result.end(), additions.begin(), additions.end());
      }
    }
    return ChargedPairs(std::move(result), std::move(charge));
  }
  NodePairs delta;
  for (const auto& [s, t] : base) {
    if (known.insert(OracleKey(s, t)).second) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      delta.emplace_back(s, t);
      result.emplace_back(s, t);
    }
  }
  while (!delta.empty()) {
    ++*rounds;
    NodePairs next_delta;
    budget->ChargeScan(delta.size());
    for (const auto& [x, mid] : delta) {
      auto range = base_by_src.equal_range(mid);
      for (auto it = range.first; it != range.second; ++it) {
        if (known.insert(OracleKey(x, it->second)).second) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          next_delta.emplace_back(x, it->second);
          result.emplace_back(x, it->second);
        }
      }
    }
    delta = std::move(next_delta);
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Graph RandomGraph(RandomEngine* rng, int64_t n) {
  GraphConfiguration config;
  config.num_nodes = n;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges;
  for (int64_t e = rng->UniformInt(0, 3 * n); e > 0; --e) {
    edges.push_back({static_cast<NodeId>(rng->UniformInt(0, n - 1)),
                     static_cast<PredicateId>(rng->UniformInt(0, 1)),
                     static_cast<NodeId>(rng->UniformInt(0, n - 1))});
  }
  return Graph::Build(std::move(layout), 2, std::move(edges)).ValueOrDie();
}

/// One run of a kernel: its result, its rounds (closures), and the
/// tracker it charged.
using Kernel =
    std::function<Result<ChargedPairs>(BudgetTracker*, uint64_t* rounds)>;

ResourceBudget Ceiling(size_t tuples) {
  return ResourceBudget::Limited(std::numeric_limits<double>::infinity(),
                                 tuples);
}

/// Runs `kernel` and `oracle` unlimited, then under every tuple ceiling
/// below the oracle's peak. Every ceiling kills both at the first charge
/// that lifts the balance above it, so equal peaks at every ceiling pin
/// every charge that sets a new high-water mark: the whole Charge
/// sequence while nothing is released (the closures), and each step's
/// charges above the previous peak (path composition). Returns the
/// oracle's unlimited round count.
uint64_t ExpectSameAsOracle(const Kernel& kernel, const Kernel& oracle,
                        bool compare_as_set) {
  BudgetTracker got_budget(ResourceBudget::Unlimited());
  BudgetTracker want_budget(ResourceBudget::Unlimited());
  uint64_t got_rounds = 0, want_rounds = 0;
  size_t peak = 0;
  {
    auto got = kernel(&got_budget, &got_rounds);
    auto want = oracle(&want_budget, &want_rounds);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!want.ok() || !got.ok()) return 0;
    if (compare_as_set) {
      EXPECT_EQ(SortUnique(got->value), SortUnique(want->value));
      EXPECT_EQ(got->value.size(), want->value.size());
    } else {
      EXPECT_EQ(got->value, want->value);
    }
    EXPECT_EQ(got->charge.count(), want->charge.count());
    EXPECT_EQ(got_rounds, want_rounds);
    EXPECT_EQ(got_budget.peak_tuples(), want_budget.peak_tuples());
    EXPECT_EQ(got_budget.tuples_scanned(), want_budget.tuples_scanned());
    peak = want_budget.peak_tuples();
  }
  const uint64_t rounds = want_rounds;
  EXPECT_EQ(got_budget.tuples_used(), 0u);
  for (size_t ceiling = 0; ceiling < peak; ++ceiling) {
    SCOPED_TRACE("ceiling " + std::to_string(ceiling));
    BudgetTracker got_tight(Ceiling(ceiling));
    BudgetTracker want_tight(Ceiling(ceiling));
    got_rounds = want_rounds = 0;
    EXPECT_TRUE(kernel(&got_tight, &got_rounds).status().IsResourceExhausted());
    EXPECT_TRUE(
        oracle(&want_tight, &want_rounds).status().IsResourceExhausted());
    EXPECT_EQ(got_tight.peak_tuples(), want_tight.peak_tuples());
    EXPECT_EQ(got_rounds, want_rounds);
    EXPECT_EQ(got_tight.tuples_scanned(), want_tight.tuples_scanned());
    EXPECT_EQ(got_tight.tuples_used(), 0u);
    EXPECT_EQ(got_tight.over_releases(), 0u);
  }
  return rounds;
}

Symbol RandomSymbol(RandomEngine* rng) {
  const auto predicate = static_cast<PredicateId>(rng->UniformInt(0, 1));
  return rng->UniformInt(0, 1) == 0 ? Symbol::Fwd(predicate)
                                    : Symbol::Inv(predicate);
}

TEST(PairKernelsTest, ComposePathPairsMatchesOracle) {
  int multi_step = 0, inverse_first = 0;
  for (int c = 0; c < kCases; ++c) {
    const uint64_t seed = DeriveSeed(kRoot, 3, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed);
    Graph graph = RandomGraph(&rng, rng.UniformInt(1, 14));
    PathExpr path;
    for (int64_t i = rng.UniformInt(1, 3); i > 0; --i) {
      path.push_back(RandomSymbol(&rng));
    }
    multi_step += path.size() > 1;
    inverse_first += path[0].inverse;
    for (bool set_semantics : {false, true}) {
      SCOPED_TRACE(set_semantics ? "set" : "bag");
      ExpectSameAsOracle(
          [&](BudgetTracker* b, uint64_t*) {
            return ComposePathPairs(graph, path, set_semantics, b);
          },
          [&](BudgetTracker* b, uint64_t*) {
            return OracleCompose(graph, path, set_semantics, b);
          },
          /*compare_as_set=*/false);
    }
  }
  EXPECT_GT(multi_step, 0);
  EXPECT_GT(inverse_first, 0);
}

TEST(PairKernelsTest, ClosuresMatchOracle) {
  int with_duplicates = 0, multi_round = 0;
  for (int c = 0; c < kCases; ++c) {
    const uint64_t seed = DeriveSeed(kRoot, 4, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed);
    const int64_t n = rng.UniformInt(1, 14);
    Graph graph = RandomGraph(&rng, n);
    // An arbitrary base: unsorted, with repeated pairs and sources.
    NodePairs base;
    for (int64_t i = rng.UniformInt(0, 2 * n); i > 0; --i) {
      base.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                        static_cast<NodeId>(rng.UniformInt(0, n - 1)));
    }
    with_duplicates += SortUnique(base).size() < base.size();
    for (bool semi_naive : {false, true}) {
      SCOPED_TRACE(semi_naive ? "semi-naive" : "naive");
      const uint64_t rounds = ExpectSameAsOracle(
          [&](BudgetTracker* b, uint64_t* r) {
            return semi_naive ? ClosureSemiNaive(graph, base, b, r)
                              : ClosureNaive(graph, base, b, r);
          },
          [&](BudgetTracker* b, uint64_t* r) {
            return OracleClosure(graph, base, semi_naive, b, r);
          },
          /*compare_as_set=*/true);
      multi_round += rounds > 2;
    }
  }
  EXPECT_GT(with_duplicates, 0);
  EXPECT_GT(multi_round, 0);
}

TEST(PairKernelsTest, ClosureRejectsBaseOutsideTheGraph) {
  RandomEngine rng(1);
  Graph graph = RandomGraph(&rng, 4);
  BudgetTracker budget(ResourceBudget::Unlimited());
  EXPECT_TRUE(ClosureNaive(graph, {{0, 4}}, &budget)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ClosureSemiNaive(graph, {{4, 0}}, &budget)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(budget.peak_tuples(), 0u);
}

}  // namespace
}  // namespace gmark
