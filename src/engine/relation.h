// Materialized relations over query variables: the workhorse of the
// join-based evaluation paths (general shapes in the reference
// evaluator; the Relational/Datalog/SPARQL engine simulators).

#ifndef GMARK_ENGINE_RELATION_H_
#define GMARK_ENGINE_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/budget.h"
#include "engine/charge.h"
#include "graph/graph.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

/// \brief A bag/set of tuples over an ordered list of variables,
/// stored row-major in one flat buffer.
class VarRelation {
 public:
  VarRelation() = default;
  explicit VarRelation(std::vector<VarId> vars) : vars_(std::move(vars)) {}

  const std::vector<VarId>& vars() const { return vars_; }
  size_t width() const { return vars_.size(); }
  size_t row_count() const {
    return width() == 0 ? (nullary_nonempty_ ? 1 : 0)
                        : data_.size() / width();
  }

  std::span<const NodeId> row(size_t i) const {
    return {data_.data() + i * width(), width()};
  }

  void AppendRow(std::span<const NodeId> values) {
    data_.insert(data_.end(), values.begin(), values.end());
  }

  /// \brief Append the columns `positions` of `values`, in that order
  /// (a projection, or one side's share of a join row).
  void AppendColumns(std::span<const NodeId> values,
                     const std::vector<int>& positions) {
    for (int p : positions) data_.push_back(values[static_cast<size_t>(p)]);
  }

  /// \brief For width-0 (boolean) relations: mark non-empty.
  void SetNonEmpty() { nullary_nonempty_ = true; }

  /// \brief Build a binary relation (?x, ?y) from node pairs. When the
  /// two variables coincide, only reflexive pairs are kept and the
  /// relation becomes unary.
  static VarRelation FromPairs(
      VarId x, VarId y, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  /// \brief Position of `var` in vars(), or -1.
  int IndexOf(VarId var) const;

 private:
  std::vector<VarId> vars_;
  std::vector<NodeId> data_;
  bool nullary_nonempty_ = false;
};

/// \brief A relation whose rows are charged against a BudgetTracker:
/// the charge releases when the relation is destroyed (or is handed on
/// via the guard's Transfer/Adopt). Every materializing operator below
/// returns one, so a relation can never outlive — or predate — its
/// budget accounting.
using ChargedRelation = Charged<VarRelation>;

/// \brief Charge `rel`'s rows against `budget` and bind the charge to
/// the relation's lifetime. On budget exhaustion the charge unwinds and
/// the error is returned (the tracker's peak still records the attempt,
/// matching BudgetTracker::ChargeTuples semantics).
Result<ChargedRelation> ChargeRelation(VarRelation rel,
                                       BudgetTracker* budget);

// Operator invariants (HashJoin, ProjectDistinct, CountDistinctUnion;
// see CONTRIBUTING.md): output order depends only on the inputs — join
// rows in probe-row (`a`) order, then ascending build-row (`b`) order;
// distinct rows in first-occurrence order. One Charge(1) per emitted or
// distinct row, before the row is stored. A PeriodicTimeCheck in every
// per-row loop. No per-row allocation: rows are hashed and compared in
// place by 32-bit row index, so an input of 2^32 - 1 rows or more
// fails with ResourceExhausted up front.

/// \brief Natural hash join on the shared variables of `a` and `b`.
/// Joins with no shared variables degenerate to a (budgeted) cross
/// product. Output rows are charged as they are produced.
Result<ChargedRelation> HashJoin(const VarRelation& a, const VarRelation& b,
                                 BudgetTracker* budget);

/// \brief Project onto `onto` and de-duplicate. Kept rows are charged
/// as they are produced.
Result<ChargedRelation> ProjectDistinct(const VarRelation& rel,
                                        const std::vector<VarId>& onto,
                                        BudgetTracker* budget);

/// \brief Count the distinct tuples in the union of equal-width
/// relations (the UCRPQ union semantics with a count(distinct)
/// aggregate). Relations of different widths are an InvalidArgument.
/// Each distinct tuple is charged once and stays charged until the
/// count returns.
Result<uint64_t> CountDistinctUnion(const std::vector<VarRelation>& rels,
                                    BudgetTracker* budget);

/// \brief CountDistinctUnion over per-rule results that are each
/// already duplicate-free, as ProjectDistinct returns them. One rule is
/// its own distinct union: its rows are counted and one Charge(1) per
/// row, under the same per-row clock check, replays exactly the charges
/// CountDistinctUnion would make, without building a second distinct
/// set. Several rules go through CountDistinctUnion.
Result<uint64_t> CountRuleUnion(const std::vector<VarRelation>& rules,
                                BudgetTracker* budget);

/// \brief Set-semantics pair deduplication in place: leaves the
/// distinct pairs sorted by (source, target), as std::sort plus
/// std::unique would. One scan finds the significant bits of both
/// fields and whether the input is already sorted; if not, LSD radix
/// passes over just those bits (digits of at most 11 bits, the
/// target's first, as many per field as minimise the scatter and
/// bucket-scan work) sort it. Any NodeId value is allowed.
void DedupPairs(std::vector<std::pair<NodeId, NodeId>>* pairs);

}  // namespace gmark

#endif  // GMARK_ENGINE_RELATION_H_
