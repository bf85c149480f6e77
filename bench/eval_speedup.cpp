// Frontier-parallel evaluation ablation: the serial loop over source
// batches versus the chunked executor fan-out (engine/evaluator.cc), per
// thread count, on a dense recursive workload where the product-graph
// search dominates.
//
// Every parallel run is checked byte-identical to the serial oracle —
// the count, the materialized pair vector (in source order), the budget
// accounting (peak/used/over-releases), and the evaluation profile
// (bfs_pops, bfs_peak_frontier). Any divergence exits non-zero, which is
// what the CI bench smoke relies on; the timing columns are informative
// only (a 1-core container shows no speedup, the identity gate still
// bites).
//
// GMARK_THREADS=<a,b,c> picks thread counts; GMARK_SMOKE=1 shrinks the
// graph for CI runs.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/automaton.h"
#include "engine/evaluator.h"
#include "graph/graph.h"
#include "parallel/executor.h"
#include "util/timer.h"

using namespace gmark;

namespace {

using bench::SmokeMode;
using bench::ThreadCounts;

/// Deterministic dense graph over predicates a (0) and b (1): degree
/// varies with the node index so chunks carry skewed work (the
/// interesting case for chunk interleaving).
Graph DenseGraph(int64_t n) {
  GraphConfiguration config;
  config.num_nodes = n;
  auto added = config.schema.AddType("t", OccurrenceConstraint::Fixed(n));
  if (!added.ok()) {
    std::fprintf(stderr, "FAIL: schema: %s\n",
                 added.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<Edge> edges;
  for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
    const int degree = 2 + static_cast<int>(i % 7);
    for (int j = 0; j < degree; ++j) {
      NodeId t =
          (i * 7 + static_cast<NodeId>(j) * 13 + 1) % static_cast<NodeId>(n);
      edges.push_back(Edge{i, 0, t});
    }
    if (i % 3 == 0) {
      edges.push_back(Edge{i, 1, (i * 5 + 2) % static_cast<NodeId>(n)});
    }
  }
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), 2, std::move(edges)).ValueOrDie();
}

/// a* — recursive, so every source runs a real BFS over the product.
Nfa StarANfa() {
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(0)}};
  star.star = true;
  return Nfa::FromRegex(star).ValueOrDie();
}

struct SerialBaseline {
  uint64_t count = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  size_t peak_tuples = 0;
  size_t tuples_used = 0;
  uint64_t bfs_pops = 0;
  uint64_t bfs_peak_frontier = 0;
  double count_seconds = 0.0;
  double materialize_seconds = 0.0;
};

void PrintRow(const char* label, double count_seconds,
              double materialize_seconds, double baseline_count_seconds) {
  const double speedup =
      count_seconds > 0.0 ? baseline_count_seconds / count_seconds : 0.0;
  std::printf("  %-16s count %8.3fs  materialize %8.3fs  speedup %5.2fx\n",
              label, count_seconds, materialize_seconds, speedup);
}

bool RunAblation(int64_t n) {
  std::printf("dense n=%lld, query a* (recursive; multi-source BFS)\n",
              static_cast<long long>(n));
  const Graph g = DenseGraph(n);
  const Nfa nfa = StarANfa();

  // Serial oracle: no executor at all (the pre-PR code path).
  SerialBaseline base;
  {
    RpqEvaluator serial(&g);
    BudgetTracker budget(ResourceBudget::Unlimited());
    EvalProfile profile;
    WallTimer timer;
    base.count = serial.CountPairs(nfa, &budget, &profile).ValueOrDie();
    base.count_seconds = timer.ElapsedSeconds();
    base.peak_tuples = budget.peak_tuples();
    base.tuples_used = budget.tuples_used();
    base.bfs_pops = profile.bfs_pops;
    base.bfs_peak_frontier = profile.bfs_peak_frontier;

    BudgetTracker mat_budget(ResourceBudget::Unlimited());
    WallTimer mat_timer;
    auto charged = serial.MaterializePairs(nfa, &mat_budget).ValueOrDie();
    base.materialize_seconds = mat_timer.ElapsedSeconds();
    base.pairs = std::move(charged.value);
  }
  PrintRow("serial", base.count_seconds, base.materialize_seconds,
           base.count_seconds);

  bool ok = true;
  char label[64];
  for (int k : ThreadCounts()) {
    Executor executor(k);
    EvalOptions opts;
    opts.executor = &executor;
    RpqEvaluator parallel(&g, opts);

    BudgetTracker budget(ResourceBudget::Unlimited());
    EvalProfile profile;
    WallTimer timer;
    const uint64_t count =
        parallel.CountPairs(nfa, &budget, &profile).ValueOrDie();
    const double count_seconds = timer.ElapsedSeconds();

    BudgetTracker mat_budget(ResourceBudget::Unlimited());
    WallTimer mat_timer;
    auto charged = parallel.MaterializePairs(nfa, &mat_budget).ValueOrDie();
    const double materialize_seconds = mat_timer.ElapsedSeconds();

    std::snprintf(label, sizeof(label), "parallel k=%d", k);
    PrintRow(label, count_seconds, materialize_seconds, base.count_seconds);

    // The gate: every observable surface byte-identical to serial.
    if (count != base.count) {
      std::fprintf(stderr, "FAIL: %s count %llu != serial %llu\n", label,
                   static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(base.count));
      ok = false;
    }
    if (charged.value != base.pairs) {
      std::fprintf(stderr, "FAIL: %s materialized pairs diverged\n", label);
      ok = false;
    }
    if (budget.peak_tuples() != base.peak_tuples ||
        budget.tuples_used() != base.tuples_used ||
        budget.over_releases() != 0) {
      std::fprintf(stderr,
                   "FAIL: %s budget accounting diverged (peak %zu/%zu, "
                   "used %zu/%zu, over-releases %zu)\n",
                   label, budget.peak_tuples(), base.peak_tuples,
                   budget.tuples_used(), base.tuples_used,
                   budget.over_releases());
      ok = false;
    }
    if (profile.bfs_pops != base.bfs_pops ||
        profile.bfs_peak_frontier != base.bfs_peak_frontier) {
      std::fprintf(stderr,
                   "FAIL: %s profile diverged (pops %llu/%llu, "
                   "peak frontier %llu/%llu)\n",
                   label, static_cast<unsigned long long>(profile.bfs_pops),
                   static_cast<unsigned long long>(base.bfs_pops),
                   static_cast<unsigned long long>(profile.bfs_peak_frontier),
                   static_cast<unsigned long long>(base.bfs_peak_frontier));
      ok = false;
    }
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main() {
  bench::PrintHeader("Frontier-parallel RPQ evaluation",
                     "extends paper §7.1 (query evaluation over generated "
                     "instances)");
  std::printf("hardware threads: %u (speedup columns need >1 hardware core; "
              "the identity gate holds regardless)\n",
              std::thread::hardware_concurrency());

  const std::vector<int64_t> sizes =
      SmokeMode() ? std::vector<int64_t>{2000} : bench::Sizes({5000}, {20000});
  bool ok = true;
  for (int64_t n : sizes) {
    ok = RunAblation(n) && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "eval_speedup: identity check FAILED\n");
    return 1;
  }
  return 0;
}
