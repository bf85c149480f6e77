// Static, schema-only selectivity estimation for binary UCRPQs — the
// paper's headline capability (§5.2.2): compute alpha-hat(Q) in {0,1,2}
// from the schema alone, with no graph instance.

#ifndef GMARK_SELECTIVITY_ESTIMATOR_H_
#define GMARK_SELECTIVITY_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/graph_config.h"
#include "query/query.h"
#include "selectivity/schema_graph.h"

namespace gmark {

/// \brief Numeric, schema-only cost inputs for one conjunct — the
/// planner's view of the §5.2.2 degree distributions: expected result
/// rows plus the relative cost of anchoring evaluation at either
/// endpoint.
///
/// All values are expectations derived from the schema's eta
/// constraints and the realized NodeLayout; no graph instance is
/// consulted, so the same (schema, layout) always yields the same
/// estimate and planning stays deterministic.
struct CardinalityEstimate {
  double rows = 0.0;            ///< Expected distinct (source, target) pairs.
  double forward_cost = 0.0;    ///< Intermediate rows walking source->target.
  double backward_cost = 0.0;   ///< Intermediate rows walking target->source.
  double forward_seeds = 0.0;   ///< Nodes with a matching first edge.
  double backward_seeds = 0.0;  ///< Nodes with a matching final edge.
};

/// \brief Schema-driven estimator over the selectivity algebra.
///
/// The estimator walks the schema graph G_S: the accumulated triple of
/// the node reached from a type's identity node by a concrete symbol
/// path is exactly sel_{A,B} of that path; disjuncts combine with the
/// Fig. 7a table; stars iterate composition to a fixpoint; chain bodies
/// compose left to right. alpha-hat(Q) = max over reachable (A, B)
/// pairs, as in §5.2.2.
class SelectivityEstimator {
 public:
  /// \brief `schema` must outlive the estimator. Builds the schema
  /// graph and each predicate's constraint list; the estimator is
  /// immutable afterwards, so one instance serves concurrent callers.
  explicit SelectivityEstimator(const GraphSchema* schema);

  /// \brief Classes of a regular expression started from type `source`:
  /// target type -> accumulated triple. Empty when no instance of the
  /// expression can leave `source`.
  std::map<TypeId, SelTriple> EstimateRegex(
      TypeId source, const RegularExpression& expr) const;

  /// \brief alpha-hat for a whole query. Rule bodies must be chains
  /// (the shape for which the paper defines selectivity estimation);
  /// other shapes return Unsupported. Unions take the max over rules.
  Result<int> EstimateAlpha(const Query& query) const;

  /// \brief alpha-hat mapped onto {constant, linear, quadratic}.
  Result<QuerySelectivity> EstimateClass(const Query& query) const;

  /// \brief Expected cardinality and direction costs of one conjunct
  /// under the type-level independence model (composition divides by
  /// the shared middle type's node count; disjunction adds; the
  /// outermost star iterates closure over the reflexive diagonal).
  /// A one-off CardinalityModel; planning a whole query builds one
  /// model and asks it directly.
  CardinalityEstimate EstimateCardinality(const Conjunct& conjunct,
                                          const NodeLayout& layout) const;

  /// \brief Cost of evaluating a chain body end to end in one
  /// direction (seed scan plus every intermediate frontier) — the
  /// signal behind the planner's whole-chain direction choice. A
  /// one-off CardinalityModel, as above.
  double EstimateChainCost(const std::vector<Conjunct>& chain,
                           const NodeLayout& layout, bool backward) const;

  /// \brief Indexes into schema().edge_constraints() of the
  /// constraints on predicate `p`, ascending; empty for an unknown
  /// predicate.
  const std::vector<uint32_t>& ConstraintsOf(PredicateId p) const;

  const SchemaGraph& schema_graph() const { return graph_; }
  const GraphSchema& schema() const { return *schema_; }

 private:
  // Walk one concrete symbol path from a set of schema-graph states.
  std::vector<SchemaNodeId> WalkPath(
      const std::vector<SchemaNodeId>& from, const PathExpr& path) const;

  const GraphSchema* schema_;
  SchemaGraph graph_;
  std::vector<std::vector<uint32_t>> constraints_of_;  // Per predicate.
};

/// \brief The numeric cardinality model of one planning call: type-by-
/// type matrices of expected (source, target) pair counts, derived from
/// the schema's eta constraints and one realized NodeLayout only.
/// Composition divides by the shared middle type's node count (the
/// independence assumption), disjunction adds, and the outermost star
/// iterates closure over the reflexive diagonal; every entry saturates
/// at nodes(A) * nodes(B) so joins cannot run away.
///
/// Each constraint's edge estimate and each symbol's matrix and seed
/// count is computed at most once, on first use, and kept for the
/// model's lifetime. The model is therefore call-local and not
/// thread-safe: build one per PlanQuery (or per estimate) on the stack
/// and never share it. The estimator it reads stays immutable.
class CardinalityModel {
 public:
  /// \brief Dense type-by-type matrix of expected pair counts.
  struct Matrix {
    size_t types = 0;
    std::vector<double> cell;  // row-major [from][to]

    Matrix() = default;
    explicit Matrix(size_t t) : types(t), cell(t * t, 0.0) {}
    double& At(size_t a, size_t b) { return cell[a * types + b]; }
    double At(size_t a, size_t b) const { return cell[a * types + b]; }
    double Sum() const;
  };

  /// \brief One conjunct in both directions: its estimate, plus what a
  /// chain that contains it reuses — the expression's matrix and its
  /// reversal's, and the cost of the conjunct as a chain's first step
  /// (seed scan plus the expression's own intermediate frontiers).
  struct ConjunctModel {
    CardinalityEstimate estimate;
    Matrix forward;
    Matrix backward;
    double forward_head_cost = 0.0;
    double backward_head_cost = 0.0;
  };

  /// \brief `estimator` must outlive the model.
  CardinalityModel(const SelectivityEstimator& estimator,
                   const NodeLayout& layout);

  ConjunctModel Model(const Conjunct& conjunct);

  /// \brief End-to-end cost of the chain `models[order[0]]`,
  /// `models[order[1]]`, ... read forward, or right to left with every
  /// conjunct reversed when `backward`. `order` must not be empty.
  double ChainCost(const std::vector<ConjunctModel>& models,
                   const std::vector<size_t>& order, bool backward);

 private:
  // Adds each intermediate frontier size to both running sums.
  struct CostSums {
    double from_zero = 0.0;
    double from_seeds = 0.0;
    void Add(double term) {
      from_zero += term;
      from_seeds += term;
    }
  };

  // What one symbol (a predicate or its inverse) contributes, memoized.
  struct SymbolEntry {
    Matrix matrix;        // Empty until computed.
    double seeds = -1.0;  // Negative until computed.
  };

  double EdgeEstimate(uint32_t constraint);
  SymbolEntry& Entry(Symbol s);
  const Matrix& SymbolMatrix(Symbol s);
  double SymbolSeeds(Symbol s);
  void PathMatrix(const PathExpr& path, bool reversed, CostSums* cost,
                  Matrix* out);
  Matrix RegexMatrix(const RegularExpression& expr, bool reversed,
                     CostSums* cost);
  double RegexSeeds(const RegularExpression& expr, bool backward);
  void Compose(const Matrix& a, const Matrix& b, Matrix* out) const;
  void SetIdentity(Matrix* m) const;
  void Saturate(Matrix* m) const;

  const SelectivityEstimator& estimator_;
  std::vector<double> nodes_;
  double total_nodes_ = 0.0;
  std::vector<double> edges_;  // Per constraint; negative until computed.
  std::vector<SymbolEntry> symbols_;  // At 2 * predicate + inverse.
  Matrix path_;     // One disjunct's matrix inside RegexMatrix.
  Matrix scratch_;  // Compose output, swapped into place.
};

/// \brief Reorder a rule body into a chain x0 -> x1 -> ... if possible
/// (each variable used at most twice, conjuncts linkable end to end).
/// Returns NotFound when the body is not a chain.
Result<std::vector<Conjunct>> AsChain(const QueryRule& rule);

/// \brief AsChain as indexes into the rule body, in chain order.
Result<std::vector<size_t>> ChainOrder(const QueryRule& rule);

}  // namespace gmark

#endif  // GMARK_SELECTIVITY_ESTIMATOR_H_
