// Internal building blocks shared by the engine simulators: bulk path
// composition (relational-style) and transitive-closure strategies
// (naive vs semi-naive), which is exactly where the paper's P and D
// systems differ on recursive queries.

#ifndef GMARK_ENGINE_ENGINE_COMMON_H_
#define GMARK_ENGINE_ENGINE_COMMON_H_

#include <vector>

#include "engine/budget.h"
#include "engine/charge.h"
#include "engine/eval_options.h"
#include "graph/graph.h"
#include "plan/plan.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

struct EvalProfile;

using NodePairs = std::vector<std::pair<NodeId, NodeId>>;

/// \brief A pair vector whose tuples are charged against a
/// BudgetTracker for exactly the vector's lifetime.
using ChargedPairs = Charged<NodePairs>;

/// \brief All edges matching one symbol, as (source, target) pairs
/// (inverse symbols swap the roles).
NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol);

/// \brief Relational evaluation of one concatenation path: start from
/// the first symbol's edge relation and compose stepwise through the
/// adjacency index. With `set_semantics` each step deduplicates (a
/// Datalog relation); without, bag semantics mirror a SQL join pipeline.
Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget);

/// \brief Union of the disjunct relations of a regular expression
/// (without applying the star), deduplicated.
Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget);

/// \brief Reflexive-transitive closure by NAIVE iteration: every round
/// rejoins the whole accumulated relation with the base (the cost
/// profile of a recursive view evaluated without delta optimization).
/// `rounds`, when given, receives the number of fixpoint rounds run —
/// the cost-asymmetry observable the evaluation profiles report.
Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget,
                                  uint64_t* rounds = nullptr);

/// \brief Reflexive-transitive closure by SEMI-NAIVE iteration: only
/// the delta of the previous round is extended (Datalog-style).
/// `rounds` as in ClosureNaive.
Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds = nullptr);

/// \brief Closure strategy of the shared plan-step executor.
enum class ClosureKind { kNaive, kSemiNaive };

/// \brief The shared plan-step executor for the materializing engines:
/// evaluates one conjunct — already direction-resolved by
/// EffectiveConjunct, so a backward step arrives with its endpoints
/// swapped and its regex reversed — into charged pairs: regex base
/// union, then the requested closure strategy when starred. The Kleene
/// seed side follows the step direction for free: the closure operates
/// on the (possibly reversed) base relation. Fixpoint rounds are
/// recorded under `conjunct_index` even when the closure dies on its
/// budget — a partial round count still explains where the time went.
Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index);

/// \brief The plan an evaluation executes: the planner's, when the
/// options carry one, else the identity plan. One call site per
/// engine, so plan-on and plan-off share every execution code path.
QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query);

/// \brief Precondition of the packed (source, target) keys that path
/// composition and the closures deduplicate with: node ids must fit in
/// 32 bits, i.e. `num_nodes` <= 2^32. InvalidArgument otherwise. One
/// check per call, none per pair.
Status CheckPairKeysFit(int64_t num_nodes);

/// \brief Precondition of the openCypher engine's edge keys,
/// (p * n + s) * n + t in 64 bits: the key of the last predicate's last
/// node pair must not wrap. InvalidArgument otherwise.
Status CheckEdgeKeysFit(size_t predicate_count, int64_t num_nodes);

}  // namespace gmark

#endif  // GMARK_ENGINE_ENGINE_COMMON_H_
