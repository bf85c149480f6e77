// Microbenchmarks for the primitives the generator and evaluator are
// built from: Zipf sampling (rejection-inversion), Gaussian draws,
// slot-vector shuffles, product-graph BFS, the relational operators
// (hash join, projection with de-duplication, distinct-union count), and
// the pair kernels of conjunct materialization (pair de-duplication,
// set-semantics path composition).

#include <benchmark/benchmark.h>

#include <cmath>
#include <numeric>

#include "core/use_cases.h"
#include "engine/engine_common.h"
#include "engine/evaluator.h"
#include "engine/relation.h"
#include "graph/generator.h"
#include "util/zipf.h"

namespace {

using namespace gmark;

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler sampler(2.5, state.range(0));
  RandomEngine rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_GaussianDraw(benchmark::State& state) {
  RandomEngine rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.GaussianInt(3.0, 1.0));
  }
}
BENCHMARK(BM_GaussianDraw);

void BM_SlotVectorShuffle(benchmark::State& state) {
  RandomEngine rng(3);
  std::vector<uint32_t> slots(static_cast<size_t>(state.range(0)));
  std::iota(slots.begin(), slots.end(), 0u);
  for (auto _ : state) {
    rng.Shuffle(&slots);
    benchmark::DoNotOptimize(slots.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlotVectorShuffle)->Arg(100000)->Arg(1000000);

void BM_RpqProductBfs(benchmark::State& state) {
  GraphConfiguration config = MakeBibConfig(state.range(0), 7);
  Graph graph = GenerateGraph(config).ValueOrDie();
  // Co-authorship: authors . authors^- — a 3-state NFA.
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  Nfa nfa = Nfa::FromRegex(co).ValueOrDie();
  RpqEvaluator rpq(&graph);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    benchmark::DoNotOptimize(rpq.CountPairs(nfa, &budget).ValueOr(0));
  }
}
BENCHMARK(BM_RpqProductBfs)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_HashJoin(benchmark::State& state) {
  const int64_t n = state.range(0);
  RandomEngine rng(3);
  std::vector<std::pair<NodeId, NodeId>> left, right;
  for (int64_t i = 0; i < n; ++i) {
    left.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n / 4)),
                      static_cast<NodeId>(rng.UniformInt(0, n)));
    right.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n)),
                       static_cast<NodeId>(rng.UniformInt(0, n / 4)));
  }
  VarRelation a = VarRelation::FromPairs(0, 1, left);
  VarRelation b = VarRelation::FromPairs(1, 2, right);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto joined = HashJoin(a, b, &budget);
    benchmark::DoNotOptimize(joined.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// n random (x, y, z) rows over node ids in [0, n/4]: projecting onto
/// (x, z) keeps roughly half the rows, as a rule head does on a join
/// output.
VarRelation RandomTernary(int64_t n, uint64_t seed) {
  RandomEngine rng(seed);
  VarRelation rel({0, 1, 2});
  NodeId row[3];
  for (int64_t i = 0; i < n; ++i) {
    for (NodeId& v : row) v = static_cast<NodeId>(rng.UniformInt(0, n / 4));
    rel.AppendRow({row, 3});
  }
  return rel;
}

void BM_ProjectDistinct(benchmark::State& state) {
  const int64_t n = state.range(0);
  VarRelation rel = RandomTernary(n, 3);
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto projected = ProjectDistinct(rel, {2, 0}, &budget);
    benchmark::DoNotOptimize(projected.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProjectDistinct)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_CountDistinctUnion(benchmark::State& state) {
  const int64_t n = state.range(0);
  // Two n-row binary relations over ~n possible pairs: each holds ~0.63n
  // distinct rows and their union ~0.86n, so both the duplicate and the
  // insert path are hot.
  const int64_t side = static_cast<int64_t>(std::sqrt(static_cast<double>(n)));
  RandomEngine rng(3);
  std::vector<VarRelation> rels(2, VarRelation({0, 1}));
  for (VarRelation& rel : rels) {
    for (int64_t i = 0; i < n; ++i) {
      NodeId row[2] = {static_cast<NodeId>(rng.UniformInt(0, side - 1)),
                       static_cast<NodeId>(rng.UniformInt(0, side - 1))};
      rel.AppendRow({row, 2});
    }
  }
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    benchmark::DoNotOptimize(CountDistinctUnion(rels, &budget).ValueOr(0));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_CountDistinctUnion)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// n random pairs over node ids in [0, n/8): DedupPairs input as a
/// bag-semantics union produces it, unsorted with a few duplicates.
void BM_DedupPairs(benchmark::State& state) {
  const int64_t n = state.range(0);
  RandomEngine rng(3);
  NodePairs input;
  for (int64_t i = 0; i < n; ++i) {
    input.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n / 8 - 1)),
                       static_cast<NodeId>(rng.UniformInt(0, n / 8 - 1)));
  }
  for (auto _ : state) {
    NodePairs pairs = input;
    DedupPairs(&pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DedupPairs)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// a.a with set semantics over n random a-edges on n/4 nodes: the first
/// step has n rows, the second ~4n candidate rows, nearly all distinct.
void BM_ComposePathPairs(benchmark::State& state) {
  const int64_t n = state.range(0);
  GraphConfiguration config;
  config.num_nodes = n / 4;
  (void)config.schema.AddType("t", OccurrenceConstraint::Fixed(n / 4));
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  RandomEngine rng(3);
  std::vector<Edge> edges;
  for (int64_t i = 0; i < n; ++i) {
    edges.push_back({static_cast<NodeId>(rng.UniformInt(0, n / 4 - 1)), 0,
                     static_cast<NodeId>(rng.UniformInt(0, n / 4 - 1))});
  }
  Graph graph = Graph::Build(std::move(layout), 1, edges).ValueOrDie();
  const PathExpr path{Symbol::Fwd(0), Symbol::Fwd(0)};
  for (auto _ : state) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto pairs = ComposePathPairs(graph, path, /*set_semantics=*/true,
                                  &budget);
    benchmark::DoNotOptimize(pairs.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ComposePathPairs)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
