// Shard-native CSR build ablation: the seed concat-then-index path
// (gather every shard into one std::vector<Edge>, scatter per-predicate
// forward AND backward pair vectors, counting-sort each serially)
// versus the shard-native parallel build (per-predicate streams drained
// straight off the ShardStore into CSRs on the thread pool, backward by
// counting transpose — no global edge list, no pair vectors), plus the
// intra-predicate ablation: one task per predicate (the PR 4 build,
// index_max_groups=1) versus the chunked count-scan-scatter build
// (auto grouping) on a skewed schema where one predicate owns ~90% of
// the edges — the workload whose per-predicate speedup flatlines at the
// predicate count while the chunked build keeps scaling.
//
// Expected shape: index wall time drops with threads and the staged-
// edge model peak is edge_set bytes (in-memory) or ~threads*chunk_size
// (spill) instead of the seed path's edge list + two pair-vector copies
// (~3.3x the edge set). Every run's CSR arrays are checked
// byte-identical to the 1-thread build (forward also against the
// independently built legacy index); any divergence exits non-zero,
// which is what the CI smoke relies on.
//
// GMARK_SIZES=<a,b,c> picks graph sizes; GMARK_THREADS=<a,b,c> picks
// thread counts; GMARK_SMOKE=1 shrinks everything for CI runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"

using namespace gmark;

namespace {

using bench::PeakRssBytes;
using bench::SmokeMode;
using bench::ThreadCounts;

GeneratorOptions Options(int threads, bool spill, int max_groups = 0) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.index_max_groups = max_groups;
  if (spill) options.spill_threshold_bytes = 0;
  return options;
}

/// A deliberately skewed schema: predicate "big" owns ~90% of all edges
/// — the per-predicate-task build cannot parallelize it, the chunked
/// build can (mirrors tests/graph/chunked_build_test.cc).
GraphConfiguration MakeSkewedConfig(int64_t n, uint64_t seed) {
  GraphConfiguration config;
  config.name = "skewed";
  config.num_nodes = n;
  config.seed = seed;
  GraphSchema& s = config.schema;
  auto check = [](const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: skewed schema: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  check(s.AddType("src", OccurrenceConstraint::Proportion(0.5)).status());
  check(s.AddType("dst", OccurrenceConstraint::Proportion(0.4)).status());
  check(s.AddType("misc", OccurrenceConstraint::Proportion(0.1)).status());
  check(s.AddPredicate("big").status());
  check(s.AddPredicate("small1").status());
  check(s.AddPredicate("small2").status());
  check(s.AddEdgeConstraintByName("src", "big", "dst",
                                  DistributionSpec::NonSpecified(),
                                  DistributionSpec::Uniform(8, 12)));
  check(s.AddEdgeConstraintByName("misc", "small1", "dst",
                                  DistributionSpec::NonSpecified(),
                                  DistributionSpec::Uniform(2, 4)));
  check(s.AddEdgeConstraintByName("dst", "small2", "src",
                                  DistributionSpec::NonSpecified(),
                                  DistributionSpec::Uniform(1, 1)));
  return config;
}

/// The seed path, reproduced: one global edge vector scattered into
/// per-predicate forward and backward pair vectors, each counting-sorted
/// serially. Returns the forward CSRs (the identity surface).
struct LegacyCsr {
  std::vector<size_t> offsets;
  std::vector<NodeId> targets;
};

struct LegacyIndex {
  std::vector<LegacyCsr> forward;
  double seconds = 0.0;
  size_t model_peak_bytes = 0;
};

LegacyCsr LegacyScatter(int64_t num_nodes,
                        const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  LegacyCsr csr;
  csr.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (const auto& [src, trg] : pairs) {
    (void)trg;
    ++csr.offsets[src + 1];
  }
  for (size_t i = 1; i < csr.offsets.size(); ++i) {
    csr.offsets[i] += csr.offsets[i - 1];
  }
  csr.targets.resize(pairs.size());
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [src, trg] : pairs) {
    csr.targets[cursor[src]++] = trg;
  }
  return csr;
}

LegacyIndex LegacyConcatIndex(int64_t num_nodes, size_t predicate_count,
                              const std::vector<Edge>& shard_edges) {
  LegacyIndex index;
  // Peak moment of the seed path: shards and their concatenation
  // overlap during TakeEdges, then the edge list plus both pair-vector
  // copies of every edge are resident at once.
  index.model_peak_bytes =
      shard_edges.size() * (sizeof(Edge) + 4 * sizeof(NodeId));
  WallTimer timer;
  // TakeEdges: concatenate the shards into the one global vector the
  // seed path indexed from (and that the shard-native build abolishes).
  std::vector<Edge> edges(shard_edges.begin(), shard_edges.end());
  // Graph::Build's validation pass.
  const NodeId n = static_cast<NodeId>(num_nodes);
  for (const Edge& e : edges) {
    if (e.source >= n || e.target >= n ||
        e.predicate >= predicate_count) {
      std::fprintf(stderr, "FAIL: invalid edge in legacy path\n");
      std::exit(1);
    }
  }
  std::vector<std::vector<std::pair<NodeId, NodeId>>> fwd(predicate_count);
  std::vector<std::vector<std::pair<NodeId, NodeId>>> bwd(predicate_count);
  for (const Edge& e : edges) {
    fwd[e.predicate].emplace_back(e.source, e.target);
    bwd[e.predicate].emplace_back(e.target, e.source);
  }
  edges.clear();
  edges.shrink_to_fit();
  for (size_t p = 0; p < predicate_count; ++p) {
    index.forward.push_back(LegacyScatter(num_nodes, fwd[p]));
    fwd[p].clear();
    fwd[p].shrink_to_fit();
    LegacyCsr backward = LegacyScatter(num_nodes, bwd[p]);  // Built, kept hot.
    bwd[p].clear();
    bwd[p].shrink_to_fit();
    (void)backward;
  }
  index.seconds = timer.ElapsedSeconds();
  return index;
}

template <typename T>
bool SpanEq(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Byte-identity of every CSR array; prints and fails loudly on drift.
bool CheckIdentical(const Graph& base, const Graph& g, const char* label) {
  if (g.predicate_count() != base.predicate_count() ||
      g.num_nodes() != base.num_nodes()) {
    std::fprintf(stderr, "FAIL: %s changed graph shape\n", label);
    return false;
  }
  for (PredicateId p = 0; p < base.predicate_count(); ++p) {
    if (!SpanEq(base.OutOffsets(p), g.OutOffsets(p)) ||
        !SpanEq(base.OutTargets(p), g.OutTargets(p)) ||
        !SpanEq(base.InOffsets(p), g.InOffsets(p)) ||
        !SpanEq(base.InTargets(p), g.InTargets(p))) {
      std::fprintf(stderr,
                   "FAIL: %s diverged from the 1-thread CSR on predicate %u\n",
                   label, p);
      return false;
    }
  }
  return true;
}

void PrintRow(const char* label, double index_seconds, size_t edges,
              size_t model_peak_bytes) {
  const double eps =
      index_seconds > 0.0 ? static_cast<double>(edges) / index_seconds : 0.0;
  std::printf("  %-22s index %8.3fs %8.2fM edges/s  model peak %8.2f MiB  "
              "VmHWM %8.1f MiB\n",
              label, index_seconds, eps / 1e6,
              static_cast<double>(model_peak_bytes) / (1024.0 * 1024.0),
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
}

/// Intra-predicate ablation: per-predicate tasks (index_max_groups=1,
/// the PR 4 build) vs chunked count-scan-scatter (auto grouping) on the
/// skewed schema. Identity is pinned against the 1-thread per-predicate
/// build; timings show where the per-predicate fan-out flatlines.
bool RunSkewedAblation(const std::vector<int64_t>& sizes,
                       const std::vector<int>& threads) {
  bool ok = true;
  for (int64_t n : sizes) {
    const GraphConfiguration config = MakeSkewedConfig(n, 42);
    std::printf("Skewed n=%lld (one predicate owns ~90%% of edges; chunked\n"
                "wins over per-pred need >1 hardware core — identity checks\n"
                "hold regardless)\n",
                static_cast<long long>(n));
    GenerateStats base_stats;
    Graph base =
        ParallelGenerateGraph(config, Options(1, false, 1), &base_stats)
            .ValueOrDie();
    PrintRow("per-pred k=1", base_stats.index_seconds, base_stats.total_edges,
             base_stats.peak_resident_edge_bytes);

    char label[64];
    for (int k : threads) {
      GenerateStats per_pred_stats;
      per_pred_stats.index_seconds = base_stats.index_seconds;
      if (k > 1) {  // k=1 per-pred IS the base run; don't redo it.
        Graph per_pred = ParallelGenerateGraph(config, Options(k, false, 1),
                                               &per_pred_stats)
                             .ValueOrDie();
        std::snprintf(label, sizeof(label), "per-pred k=%d", k);
        ok = CheckIdentical(base, per_pred, label) && ok;
        PrintRow(label, per_pred_stats.index_seconds,
                 per_pred_stats.total_edges,
                 per_pred_stats.peak_resident_edge_bytes);
      }

      GenerateStats chunked_stats;
      Graph chunked =
          ParallelGenerateGraph(config, Options(k, false, 0), &chunked_stats)
              .ValueOrDie();
      std::snprintf(label, sizeof(label), "chunked k=%d (g=%zu)", k,
                    chunked_stats.index_forward_groups);
      ok = CheckIdentical(base, chunked, label) && ok;
      PrintRow(label, chunked_stats.index_seconds, chunked_stats.total_edges,
               chunked_stats.peak_resident_edge_bytes);
      if (k > 1 && chunked_stats.index_seconds > 0.0) {
        std::printf("    chunked vs per-pred at k=%d: %.2fx %s\n", k,
                    per_pred_stats.index_seconds / chunked_stats.index_seconds,
                    chunked_stats.index_seconds < per_pred_stats.index_seconds
                        ? "faster"
                        : "SLOWER");
      }
    }

    // The spill-backed chunked build must also reproduce the bytes:
    // sub-range replay works the same off per-shard temp files.
    const int max_threads = *std::max_element(threads.begin(), threads.end());
    Graph spilled =
        ParallelGenerateGraph(config, Options(max_threads, true, 0))
            .ValueOrDie();
    std::snprintf(label, sizeof(label), "chunked k=%d spill", max_threads);
    ok = CheckIdentical(base, spilled, label) && ok;
    std::printf("\n");
  }
  return ok;
}

}  // namespace

int main() {
  bench::PrintHeader("Shard-native parallel CSR build",
                     "extends paper §6 (indexing generated instances)");
  std::printf("hardware threads: %u (per-predicate build tasks need >1 to "
              "show parallel wins)\n",
              std::thread::hardware_concurrency());
  const std::vector<int64_t> sizes =
      SmokeMode() ? std::vector<int64_t>{100000}
                  : bench::Sizes({300000, 1000000}, {10000000});
  const std::vector<int> threads = ThreadCounts();
  bool ok = true;

  for (int64_t n : sizes) {
    const GraphConfiguration config = MakeBibConfig(n, 42);
    std::printf("Bib n=%lld\n", static_cast<long long>(n));

    // The spill-backed run goes first: VmHWM is a process-wide
    // monotone high-water mark, so its row only demonstrates the
    // bounded-staging win before any full in-memory build has run.
    GenerateStats spill_stats;
    const int max_threads = *std::max_element(threads.begin(), threads.end());
    Graph spilled =
        ParallelGenerateGraph(config, Options(max_threads, true), &spill_stats)
            .ValueOrDie();
    char label[64];
    std::snprintf(label, sizeof(label), "shard-native k=%d spill",
                  max_threads);
    PrintRow(label, spill_stats.index_seconds, spill_stats.total_edges,
             spill_stats.peak_resident_edge_bytes);

    // 1-thread in-memory build is the identity baseline.
    GenerateStats base_stats;
    Graph base =
        ParallelGenerateGraph(config, Options(1, false), &base_stats)
            .ValueOrDie();
    double best_parallel = 0.0;  // Best k>=4 index time, if any such run.
    ok = CheckIdentical(base, spilled, "spill-backed build") && ok;

    for (int k : threads) {
      GenerateStats stats;
      Graph g =
          ParallelGenerateGraph(config, Options(k, false), &stats).ValueOrDie();
      std::snprintf(label, sizeof(label), "shard-native k=%d", k);
      ok = CheckIdentical(base, g, label) && ok;
      PrintRow(label, stats.index_seconds, stats.total_edges,
               stats.peak_resident_edge_bytes);
      if (k >= 4) {
        best_parallel = best_parallel > 0.0
                            ? std::min(best_parallel, stats.index_seconds)
                            : stats.index_seconds;
      }
    }

    // Intra-predicate grouping must never regress a uniform schema:
    // compare the per-predicate-task build at the widest thread count.
    {
      GenerateStats per_pred_stats;
      Graph per_pred =
          ParallelGenerateGraph(config, Options(max_threads, false, 1),
                                &per_pred_stats)
              .ValueOrDie();
      std::snprintf(label, sizeof(label), "per-pred k=%d", max_threads);
      ok = CheckIdentical(base, per_pred, label) && ok;
      PrintRow(label, per_pred_stats.index_seconds,
               per_pred_stats.total_edges,
               per_pred_stats.peak_resident_edge_bytes);
    }

    // Seed path last (it owns the largest resident set): canonical
    // stream into one vector, then concat-and-scatter indexing.
    VectorSink stream;
    if (!ParallelGenerateToSink(config, &stream, Options(max_threads, false))
             .ok()) {
      std::fprintf(stderr, "FAIL: edge generation failed\n");
      return 1;
    }
    const size_t edge_count = stream.edges().size();
    LegacyIndex legacy = LegacyConcatIndex(
        base.num_nodes(), config.schema.predicate_count(), stream.edges());
    PrintRow("legacy concat-index", legacy.seconds, edge_count,
             legacy.model_peak_bytes);
    for (PredicateId p = 0; p < base.predicate_count(); ++p) {
      if (!SpanEq(base.OutOffsets(p),
                  std::span<const size_t>(legacy.forward[p].offsets)) ||
          !SpanEq(base.OutTargets(p),
                  std::span<const NodeId>(legacy.forward[p].targets))) {
        std::fprintf(stderr,
                     "FAIL: shard-native forward CSR diverged from the legacy "
                     "index on predicate %u\n",
                     p);
        ok = false;
      }
    }
    if (best_parallel > 0.0) {
      std::printf("  parallel (k>=4) vs legacy: %.2fx %s\n\n",
                  legacy.seconds / best_parallel,
                  best_parallel < legacy.seconds ? "faster" : "SLOWER");
    } else {
      std::printf("  (no k>=4 run requested; no parallel-vs-legacy "
                  "verdict)\n\n");
    }
  }

  ok = RunSkewedAblation(sizes, threads) && ok;

  std::printf(
      "(\"model peak\" is the staged-edge high-water mark: the shard store's\n"
      "resident bytes for shard-native runs — the whole edge set in memory,\n"
      "~threads*chunk_size when spilled — vs the seed path's edge vector\n"
      "plus forward AND backward pair vectors. VmHWM is process-wide and\n"
      "monotone, hence low-memory-first ordering.)\n");
  if (!ok) {
    std::fprintf(stderr, "csr_build: CSR identity check FAILED\n");
    return 1;
  }
  return 0;
}
