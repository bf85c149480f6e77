// Differential test of the batched multi-source product-graph search
// behind RpqEvaluator::CountPairs and MaterializePairs. The oracle is a
// one-source-at-a-time depth-first search over the product graph, kept
// here so the kernel is always checked against the simplest possible
// definition of its output: counts, pairs in the documented order
// (source, then ascending target), the exact sequence of per-source
// tuple charges, the (source, product state) visit count, and the
// status and peak of budget-killed runs — on random graphs and random
// NFAs, at 1/2/8 workers and at chunk sizes that split the batch list
// unevenly.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_config.h"
#include "engine/automaton.h"
#include "engine/evaluator.h"
#include "graph/graph.h"
#include "parallel/executor.h"
#include "util/random.h"

namespace gmark {
namespace {

constexpr uint64_t kRoot = 0xba7c4bf5u;
constexpr int kCases = 300;

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

struct Case {
  Graph graph;
  Nfa nfa;
  bool inverse = false;
  bool star = false;
  bool multi_disjunct = false;
};

Graph RandomGraph(RandomEngine& rng, int64_t n, int predicates) {
  GraphConfiguration config;
  config.num_nodes = n;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  // Sparse to dense, so that some cases leave many nodes without a
  // start edge and others make most product states reachable.
  const int64_t edges = rng.UniformInt(0, 2 * n);
  std::vector<Edge> list;
  for (int64_t e = 0; e < edges; ++e) {
    list.push_back(Edge{static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                        static_cast<PredicateId>(
                            rng.UniformInt(0, predicates - 1)),
                        static_cast<NodeId>(rng.UniformInt(0, n - 1))});
  }
  return Graph::Build(std::move(layout), predicates, std::move(list))
      .ValueOrDie();
}

RegularExpression RandomRegex(RandomEngine& rng, int predicates, Case* c) {
  RegularExpression expr;
  const int64_t disjuncts = rng.UniformInt(1, 3);
  for (int64_t d = 0; d < disjuncts; ++d) {
    PathExpr path;
    const int64_t length = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < length; ++i) {
      const bool inverse = rng.Bernoulli(0.3);
      c->inverse |= inverse;
      path.push_back(Symbol{
          static_cast<PredicateId>(rng.UniformInt(0, predicates - 1)),
          inverse});
    }
    expr.disjuncts.push_back(std::move(path));
  }
  expr.star = rng.Bernoulli(0.4);
  c->star |= expr.star;
  c->multi_disjunct |= disjuncts > 1;
  return expr;
}

Case RandomCase(uint64_t seed) {
  RandomEngine rng(seed);
  const int predicates = static_cast<int>(rng.UniformInt(1, 3));
  const int64_t n = rng.UniformInt(1, 260);
  Case c{RandomGraph(rng, n, predicates), Nfa{}};
  // Single expressions and conjunct chains (the chain fast path's
  // fused automata, whose epsilon-ness needs every conjunct starred).
  std::vector<Conjunct> chain;
  const int64_t conjuncts = rng.UniformInt(1, 3);
  for (int64_t i = 0; i < conjuncts; ++i) {
    chain.push_back(Conjunct{static_cast<VarId>(i),
                             static_cast<VarId>(i + 1),
                             RandomRegex(rng, predicates, &c)});
  }
  c.nfa = Nfa::FromConjunctChain(chain).ValueOrDie();
  return c;
}

/// What the one-source-at-a-time search produces and charges.
struct OracleRun {
  Pairs pairs;                    ///< Source order, ascending target.
  std::vector<uint64_t> charges;  ///< One per charged source, in order.
  uint64_t pops = 0;              ///< (source, product state) visits.
  size_t starting_sources = 0;
  size_t epsilon_only_sources = 0;
};

OracleRun PerSourceSearch(const Graph& graph, const Nfa& nfa) {
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const size_t k = nfa.state_count();
  const bool epsilon = nfa.AcceptsEpsilon();
  OracleRun run;
  for (size_t si = 0; si < n; ++si) {
    const NodeId source = static_cast<NodeId>(si);
    bool starts = false;
    for (const NfaTransition& t : nfa.TransitionsFrom(nfa.start())) {
      auto neighbors = t.symbol.inverse
                           ? graph.InNeighbors(t.symbol.predicate, source)
                           : graph.OutNeighbors(t.symbol.predicate, source);
      starts |= !neighbors.empty();
    }
    if (!starts && !epsilon) continue;
    ++(starts ? run.starting_sources : run.epsilon_only_sources);
    std::set<NodeId> targets;
    if (epsilon) targets.insert(source);
    if (starts) {
      std::vector<bool> visited(n * k, false);
      std::vector<std::pair<NodeId, uint32_t>> stack{{source, nfa.start()}};
      visited[source * k + nfa.start()] = true;
      while (!stack.empty()) {
        const auto [u, q] = stack.back();
        stack.pop_back();
        ++run.pops;
        if (q == nfa.accept()) targets.insert(u);
        for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
          auto neighbors = t.symbol.inverse
                               ? graph.InNeighbors(t.symbol.predicate, u)
                               : graph.OutNeighbors(t.symbol.predicate, u);
          for (NodeId w : neighbors) {
            if (visited[w * k + t.to]) continue;
            visited[w * k + t.to] = true;
            stack.emplace_back(w, t.to);
          }
        }
      }
    }
    run.charges.push_back(targets.size());
    for (NodeId t : targets) run.pairs.emplace_back(source, t);
  }
  return run;
}

/// Peak of the oracle's charge sequence under `ceiling`: the first
/// running total above it, where the tracker rejects (0 if none does).
uint64_t KillPeak(const std::vector<uint64_t>& charges, uint64_t ceiling) {
  uint64_t total = 0;
  for (uint64_t c : charges) {
    total += c;
    if (total > ceiling) return total;
  }
  return 0;
}

/// One way to run the kernel: an executor (null = no executor) and a
/// chunk size. Serial configurations reproduce the oracle's charge
/// sequence on kill paths exactly; parallel ones within the documented
/// bound (ConcurrentBudgetScope).
struct Config {
  Executor* executor;
  size_t chunk_sources;
  bool serial;
};

std::string Describe(const Config& config) {
  return "workers " +
         std::to_string(config.executor == nullptr
                            ? 0
                            : config.executor->workers()) +
         ", chunk " + std::to_string(config.chunk_sources);
}

ResourceBudget Ceiling(uint64_t tuples) {
  return ResourceBudget::Limited(std::numeric_limits<double>::infinity(),
                                 static_cast<size_t>(tuples));
}

TEST(BatchBfsDifferentialTest, MatchesPerSourceSearch) {
  Executor one(1), two(2), eight(8);
  std::vector<Config> configs{{nullptr, 0, true}, {&one, 0, true}};
  // Chunks of 1, 2 and 3 batches: 100 and 150 starting sources round
  // up to 2 and 3 batches, leaving a shorter last chunk.
  for (Executor* executor : {&two, &eight}) {
    for (size_t chunk : {size_t{0}, size_t{1}, size_t{100}, size_t{150}}) {
      configs.push_back(Config{executor, chunk, false});
    }
  }

  int fewer_than_batch = 0, more_than_batch = 0, epsilon_only = 0,
      ragged = 0, inverse = 0, star = 0, multi_disjunct = 0;
  for (int ci = 0; ci < kCases; ++ci) {
    const uint64_t seed = DeriveSeed(kRoot, ci);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = RandomCase(seed);
    const OracleRun oracle = PerSourceSearch(c.graph, c.nfa);
    uint64_t total = 0;
    for (uint64_t charge : oracle.charges) total += charge;
    ASSERT_EQ(total, oracle.pairs.size());

    fewer_than_batch += oracle.starting_sources < 64;
    more_than_batch += oracle.starting_sources > 64;
    epsilon_only += oracle.epsilon_only_sources > 0;
    const uint64_t product_states =
        static_cast<uint64_t>(c.graph.num_nodes()) * c.nfa.state_count();
    ragged += product_states % 64 != 0;
    inverse += c.inverse;
    star += c.star;
    multi_disjunct += c.multi_disjunct;

    uint64_t peak_frontier = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
      const Config& config = configs[i];
      SCOPED_TRACE(Describe(config));
      EvalOptions opts;
      opts.executor = config.executor;
      opts.chunk_sources = config.chunk_sources;
      RpqEvaluator rpq(&c.graph, opts);

      BudgetTracker count_budget(ResourceBudget::Unlimited());
      EvalProfile profile;
      auto count = rpq.CountPairs(c.nfa, &count_budget, &profile);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, total);
      // Every charge is held until the call returns.
      EXPECT_EQ(count_budget.peak_tuples(), total);
      EXPECT_EQ(count_budget.tuples_used(), 0u);
      EXPECT_EQ(count_budget.over_releases(), 0u);
      EXPECT_EQ(profile.bfs_pops, oracle.pops);
      if (i == 0) peak_frontier = profile.bfs_peak_frontier;
      EXPECT_EQ(profile.bfs_peak_frontier, peak_frontier);
      EXPECT_EQ(profile.bfs_peak_frontier > 0, oracle.starting_sources > 0);

      BudgetTracker pair_budget(ResourceBudget::Unlimited());
      auto pairs = rpq.MaterializePairs(c.nfa, &pair_budget);
      ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
      EXPECT_EQ(pairs->value, oracle.pairs);
      EXPECT_EQ(pairs->charge.count(), total);
      EXPECT_EQ(pair_budget.peak_tuples(), total);

      // Five tight tuple ceilings, on both entry points.
      for (uint64_t ceiling :
           {uint64_t{0}, uint64_t{1}, total / 3, total / 2, total - 1}) {
        if (total == 0 || ceiling >= total) continue;
        SCOPED_TRACE("ceiling " + std::to_string(ceiling));
        BudgetTracker killed_count(Ceiling(ceiling));
        BudgetTracker killed_pairs(Ceiling(ceiling));
        EXPECT_TRUE(rpq.CountPairs(c.nfa, &killed_count)
                        .status()
                        .IsResourceExhausted());
        EXPECT_TRUE(rpq.MaterializePairs(c.nfa, &killed_pairs)
                        .status()
                        .IsResourceExhausted());
        for (const BudgetTracker* killed : {&killed_count, &killed_pairs}) {
          EXPECT_EQ(killed->tuples_used(), 0u);
          EXPECT_EQ(killed->over_releases(), 0u);
          if (config.serial) {
            EXPECT_EQ(killed->peak_tuples(),
                      KillPeak(oracle.charges, ceiling));
          } else {
            EXPECT_GT(killed->peak_tuples(), ceiling);
            EXPECT_LE(killed->peak_tuples(), total);
          }
        }
      }
    }

    // The exact charge sequence: a ceiling one below each running total
    // must stop the serial kernel at exactly that total. Zero charges
    // move no total, so this pins every non-zero charge, in order.
    RpqEvaluator serial(&c.graph);
    uint64_t running = 0;
    for (uint64_t charge : oracle.charges) {
      if (charge == 0) continue;
      running += charge;
      BudgetTracker killed(Ceiling(running - 1));
      ASSERT_TRUE(
          serial.CountPairs(c.nfa, &killed).status().IsResourceExhausted());
      ASSERT_EQ(killed.peak_tuples(), running);
    }
  }

  // The random cases cover every shape the kernel special-cases.
  EXPECT_GT(fewer_than_batch, 0);
  EXPECT_GT(more_than_batch, 0);
  EXPECT_GT(epsilon_only, 0);
  EXPECT_GT(ragged, 0);
  EXPECT_GT(inverse, 0);
  EXPECT_GT(star, 0);
  EXPECT_GT(multi_disjunct, 0);
}

}  // namespace
}  // namespace gmark
