#include "workload/parallel_workload.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parallel/executor.h"
#include "selectivity/selectivity_graph.h"
#include "util/random.h"
#include "util/string_util.h"

namespace gmark {

namespace {

/// Per-request result slot: exactly one of `query` / `skip` is set.
/// Tasks write disjoint slots, so the vector needs no locking.
struct QuerySlot {
  std::optional<GeneratedQuery> query;
  std::string skip;
};

}  // namespace

Result<Workload> ParallelGenerateWorkload(
    const QueryGenerator& generator, const WorkloadConfiguration& config,
    const ParallelWorkloadOptions& options) {
  GMARK_RETURN_NOT_OK(config.Validate());

  // Hoisted G_sel: built once, shared read-only by every task — but
  // only when some query will actually consult it (selectivity control
  // on and at least one chain in the shape rotation).
  std::optional<SelectivityGraph> gsel;
  if (config.selectivity_control &&
      std::find(config.shapes.begin(), config.shapes.end(),
                QueryShape::kChain) != config.shapes.end()) {
    gsel.emplace(SelectivityGraph::Build(&generator.schema_graph(),
                                         config.size.path_length));
  }
  const SelectivityGraph* shared_gsel = gsel.has_value() ? &*gsel : nullptr;

  const size_t num_queries = config.num_queries;
  std::vector<QuerySlot> slots(num_queries);
  const size_t chunk =
      options.chunk_size < 1 ? 1 : static_cast<size_t>(options.chunk_size);

  Executor executor(options.num_threads);
  for (size_t lo = 0; lo < num_queries; lo += chunk) {
    const size_t hi = std::min(num_queries, lo + chunk);
    executor.Submit([&generator, &config, &slots, shared_gsel, lo, hi] {
      for (size_t i = lo; i < hi; ++i) {
        const QueryShape shape = config.shapes[i % config.shapes.size()];
        std::optional<QuerySelectivity> target;
        if (config.selectivity_control) {
          target = config.selectivities[i % config.selectivities.size()];
        }
        // The stream depends only on (seed, request index): any
        // partition of the index space replays it identically.
        RandomEngine rng(DeriveSeed(config.seed, i,
                                    internal::kWorkloadQueryPhase));
        auto one =
            generator.GenerateOne(config, shape, target, shared_gsel, &rng);
        if (one.ok()) {
          slots[i].query = std::move(one).ValueOrDie();
        } else {
          std::string& skip = slots[i].skip;
          skip = IndexedName("q", i);
          skip.append(" ").append(QueryShapeName(shape)).append("/");
          skip.append(target.has_value() ? QuerySelectivityName(*target)
                                         : "any");
          skip.append(": ").append(one.status().message());
        }
      }
    });
  }
  executor.Wait();

  // Merge in request-index order. Names come from the request index —
  // not the emission order — so one skipped query never shifts every
  // later name, and a workload stays stable under schema tweaks that
  // only change which requests skip.
  Workload workload;
  workload.name = config.name;
  for (size_t i = 0; i < num_queries; ++i) {
    if (slots[i].query.has_value()) {
      GeneratedQuery gq = std::move(*slots[i].query);
      gq.query.name = IndexedName("q", i);
      workload.queries.push_back(std::move(gq));
    } else {
      workload.skipped.push_back(std::move(slots[i].skip));
    }
  }
  if (workload.queries.empty()) {
    return Status::NotFound(
        "no queries could be generated; first failure: " +
        (workload.skipped.empty() ? std::string("?") : workload.skipped[0]));
  }
  return workload;
}

}  // namespace gmark
