// Evaluation-side execution knobs, threaded from the CLI / benches
// through MakeEngine and the evaluators.

#ifndef GMARK_ENGINE_EVAL_OPTIONS_H_
#define GMARK_ENGINE_EVAL_OPTIONS_H_

#include <cstddef>

namespace gmark {

class Executor;
class Planner;

/// \brief How an evaluation may use threads. Results are byte-identical
/// at every setting — parallelism only reorders which thread runs which
/// chunk of source batches; chunk results merge in source order and the
/// budget fold is deterministic (see ConcurrentBudgetScope).
struct EvalOptions {
  /// Selectivity-driven planner (plan/planner.h); null evaluates the
  /// identity plan (written order, forward traversal). Not owned; must
  /// outlive every evaluation using it. Results are byte-identical
  /// plan-on vs plan-off — planning only reorders/redirects execution.
  const Planner* planner = nullptr;

  /// Shared executor for intra-query parallelism; null (or an executor
  /// with a single worker) evaluates serially. Not owned; must outlive
  /// every evaluation using it. Evaluations must not be started from
  /// inside one of this executor's own tasks (the pool forbids nested
  /// Submit).
  Executor* executor = nullptr;

  /// Starting sources per parallel chunk, rounded up to whole 64-source
  /// search batches; 0 picks a size that gives each worker several
  /// chunks to balance skew (dense sources cost arbitrarily more than
  /// sparse ones). Any value yields identical results.
  size_t chunk_sources = 0;
};

}  // namespace gmark

#endif  // GMARK_ENGINE_EVAL_OPTIONS_H_
