// Internal building blocks shared by the engine simulators: bulk path
// composition (relational-style) and transitive-closure strategies
// (naive vs semi-naive), which is exactly where the paper's P and D
// systems differ on recursive queries.

#ifndef GMARK_ENGINE_ENGINE_COMMON_H_
#define GMARK_ENGINE_ENGINE_COMMON_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
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

/// \brief The packed key of a pair: source in the high 32 bits, target
/// in the low. Callers check CheckPairKeysFit once per call, so both
/// ids fit and no admissible pair packs to PairSet::kEmpty.
inline uint64_t PackPair(NodeId source, NodeId target) {
  return (source << 32) | (target & 0xffffffff);
}

/// \brief A set of packed pair keys in one flat array: open addressing
/// with linear probing, Fibonacci hashing, doubled at half load. The
/// pair kernels use it only for membership; nothing iterates it.
class PairSet {
 public:
  /// The empty-slot marker: the key of (2^32 - 1, 2^32 - 1), which
  /// CheckPairKeysFit keeps out of every admissible relation.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// \brief Sized so that `expected` keys fit without growing.
  explicit PairSet(size_t expected = 0) { Reset(expected); }

  /// \brief Empty the set, sized for `expected` keys.
  void Reset(size_t expected) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(16, 2 * expected));
    slots_.assign(capacity, kEmpty);
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
  }

  /// \brief Add `key`; returns whether it was absent.
  bool Insert(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t s = Slot(key);; s = (s + 1) & mask) {
      if (slots_[s] == key) return false;
      if (slots_[s] == kEmpty) {
        slots_[s] = key;
        if (2 * ++size_ > slots_.size()) Grow();
        return true;
      }
    }
  }

  size_t size() const { return size_; }

 private:
  size_t Slot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    const std::vector<uint64_t> old = std::exchange(
        slots_, std::vector<uint64_t>(2 * slots_.size(), kEmpty));
    --shift_;
    const size_t mask = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t s = Slot(key);
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = key;
    }
  }

  std::vector<uint64_t> slots_;
  int shift_ = 0;
  size_t size_ = 0;
};

/// \brief Relational evaluation of one concatenation path: start from
/// the first symbol's edge relation, in forward-CSR order (inverse
/// symbols swap the roles), and compose stepwise through the adjacency
/// index. With `set_semantics` each step deduplicates through a
/// PairSet (a Datalog relation); without, bag semantics mirror a SQL
/// join pipeline. The first relation is charged in one piece, every
/// later row with its own Charge(1). One PeriodicTimeCheck ticks per
/// edge scanned, row extended and neighbour visited, so neither a
/// one-symbol path nor one long step overshoots a deadline by more than
/// one period.
Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget);

/// \brief Union of the disjunct relations of a regular expression
/// (without applying the star), deduplicated by DedupPairs and so
/// sorted by (source, target).
Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget);

/// \brief Reflexive-transitive closure by NAIVE iteration: every round
/// rejoins the whole accumulated relation with the base (the cost
/// profile of a recursive view evaluated without delta optimization).
/// `rounds`, when given, receives the number of fixpoint rounds run —
/// the cost-asymmetry observable the evaluation profiles report.
///
/// Both closures join through a counting-sort index of the base by
/// source (within a source, targets keep the base's order) and keep
/// the pairs found so far in a PairSet. Pairs come out reflexive pairs
/// first, then in discovery order, a function of the base's order
/// alone. The base must be over the graph's nodes (InvalidArgument
/// otherwise).
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
/// 32 bits and stay below 2^32 - 1, so that no pair packs to
/// PairSet::kEmpty, i.e. `num_nodes` < 2^32. InvalidArgument otherwise.
/// One check per call, none per pair.
Status CheckPairKeysFit(int64_t num_nodes);

/// \brief Precondition of the openCypher engine's edge keys,
/// (p * n + s) * n + t in 64 bits: the key of the last predicate's last
/// node pair must not wrap. InvalidArgument otherwise.
Status CheckEdgeKeysFit(size_t predicate_count, int64_t num_nodes);

}  // namespace gmark

#endif  // GMARK_ENGINE_ENGINE_COMMON_H_
