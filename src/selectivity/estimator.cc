#include "selectivity/estimator.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace gmark {

namespace {

// Global saturation for pair counts, well below double-precision loss.
constexpr double kCountCap = 1e15;

// `s` read against its edge direction, as a reversed path reads it.
Symbol Flipped(Symbol s) { return Symbol{s.predicate, !s.inverse}; }

// P(degree >= 1); `mean` backs the families whose draws can be zero
// and the non-specified slot-assigned case.
double NonzeroFraction(const DistributionSpec& d, double mean) {
  switch (d.type) {
    case DistributionType::kUniform: {
      const double lo = d.param1;
      const double hi = d.param2;
      if (lo >= 1.0) return 1.0;
      if (hi < 1.0) return 0.0;
      return hi / (hi - lo + 1.0);
    }
    case DistributionType::kZipfian:
      return 1.0;  // support is [1, max]: every draw is positive
    case DistributionType::kGaussian:
    case DistributionType::kNonSpecified:
      return std::clamp(mean, 0.0, 1.0);
  }
  return std::clamp(mean, 0.0, 1.0);
}

}  // namespace

double CardinalityModel::Matrix::Sum() const {
  double s = 0.0;
  for (double v : cell) s += v;
  return s;
}

CardinalityModel::CardinalityModel(const SelectivityEstimator& estimator,
                                   const NodeLayout& layout)
    : estimator_(estimator),
      edges_(estimator.schema().edge_constraints().size(), -1.0),
      symbols_(2 * estimator.schema().predicate_count()) {
  const GraphSchema& schema = estimator.schema();
  nodes_.resize(schema.type_count());
  for (TypeId t = 0; t < schema.type_count(); ++t) {
    nodes_[t] = static_cast<double>(layout.CountOf(t));
  }
  total_nodes_ = static_cast<double>(layout.total_nodes());
}

// Expected edge count of one eta constraint: the specified side's mean
// degree times that side's node count, mirroring how the generator
// resolves slot counts; when both sides are non-specified the
// predicate's occurrence constraint drives the count.
double CardinalityModel::EdgeEstimate(uint32_t constraint) {
  double& edges = edges_[constraint];
  if (edges >= 0.0) return edges;
  const GraphSchema& schema = estimator_.schema();
  const EdgeConstraint& c = schema.edge_constraints()[constraint];
  const double src = nodes_[c.source_type];
  const double tgt = nodes_[c.target_type];
  if (src <= 0.0 || tgt <= 0.0) {
    edges = 0.0;
  } else if (c.out_dist.specified()) {
    edges = src * c.out_dist.Mean(static_cast<int64_t>(tgt));
  } else if (c.in_dist.specified()) {
    edges = tgt * c.in_dist.Mean(static_cast<int64_t>(src));
  } else if (const auto& occ = schema.predicates()[c.predicate].occurrence;
             occ.has_value()) {
    edges = occ->is_fixed ? static_cast<double>(occ->fixed_count)
                          : occ->proportion * total_nodes_;
  } else {
    edges = src;
  }
  return edges;
}

CardinalityModel::SymbolEntry& CardinalityModel::Entry(Symbol s) {
  const size_t slot = 2 * static_cast<size_t>(s.predicate) + s.inverse;
  if (slot >= symbols_.size()) symbols_.resize(slot + 1);  // Unknown p.
  return symbols_[slot];
}

const CardinalityModel::Matrix& CardinalityModel::SymbolMatrix(Symbol s) {
  SymbolEntry& entry = Entry(s);
  if (entry.matrix.types == nodes_.size()) return entry.matrix;
  Matrix m(nodes_.size());
  for (uint32_t k : estimator_.ConstraintsOf(s.predicate)) {
    const EdgeConstraint& c = estimator_.schema().edge_constraints()[k];
    const double edges = EdgeEstimate(k);
    if (s.inverse) {
      m.At(c.target_type, c.source_type) += edges;
    } else {
      m.At(c.source_type, c.target_type) += edges;
    }
  }
  Saturate(&m);
  entry.matrix = std::move(m);
  return entry.matrix;
}

// Expected nodes with >= 1 edge matching `s` leaving them.
double CardinalityModel::SymbolSeeds(Symbol s) {
  if (const double seeds = Entry(s).seeds; seeds >= 0.0) return seeds;
  double seeds = 0.0;
  for (uint32_t k : estimator_.ConstraintsOf(s.predicate)) {
    const EdgeConstraint& c = estimator_.schema().edge_constraints()[k];
    const TypeId side = s.inverse ? c.target_type : c.source_type;
    const DistributionSpec& dist = s.inverse ? c.in_dist : c.out_dist;
    const double side_nodes = nodes_[side];
    if (side_nodes <= 0.0) continue;
    const double mean = EdgeEstimate(k) / side_nodes;
    seeds += side_nodes * NonzeroFraction(dist, mean);
  }
  seeds = std::min(seeds, total_nodes_);
  Entry(s).seeds = seeds;
  return seeds;
}

// *out = a . b, reusing out's storage; `out` aliases neither input.
void CardinalityModel::Compose(const Matrix& a, const Matrix& b,
                               Matrix* out) const {
  out->types = nodes_.size();
  out->cell.assign(nodes_.size() * nodes_.size(), 0.0);
  for (size_t x = 0; x < nodes_.size(); ++x) {
    for (size_t mid = 0; mid < nodes_.size(); ++mid) {
      const double left = a.At(x, mid);
      if (left <= 0.0) continue;
      for (size_t y = 0; y < nodes_.size(); ++y) {
        const double right = b.At(mid, y);
        if (right <= 0.0) continue;
        out->At(x, y) += left * right / std::max(1.0, nodes_[mid]);
      }
    }
  }
  Saturate(out);
}

// *out = expected pairs of one disjunct path, read back to front with
// every symbol flipped when `reversed`; `cost` accumulates every
// intermediate frontier size (the direction-sensitive part).
void CardinalityModel::PathMatrix(const PathExpr& path, bool reversed,
                                  CostSums* cost, Matrix* out) {
  if (path.empty()) {  // epsilon
    SetIdentity(out);
    return;
  }
  auto symbol = [&](size_t i) {
    return reversed ? Flipped(path[path.size() - 1 - i]) : path[i];
  };
  *out = SymbolMatrix(symbol(0));
  cost->Add(out->Sum());
  for (size_t i = 1; i < path.size(); ++i) {
    Compose(*out, SymbolMatrix(symbol(i)), &scratch_);
    std::swap(*out, scratch_);
    cost->Add(out->Sum());
  }
}

CardinalityModel::Matrix CardinalityModel::RegexMatrix(
    const RegularExpression& expr, bool reversed, CostSums* cost) {
  Matrix m(nodes_.size());
  for (const PathExpr& p : expr.disjuncts) {
    PathMatrix(p, reversed, cost, &path_);
    for (size_t i = 0; i < m.cell.size(); ++i) m.cell[i] += path_.cell[i];
  }
  Saturate(&m);
  if (!expr.star) return m;
  // Kleene closure: S <- I + S . M until the saturated mass stops
  // growing. Saturation makes the iteration monotone and bounded.
  Matrix closure;
  SetIdentity(&closure);
  double prev = closure.Sum();
  for (int round = 0; round < 32; ++round) {
    Compose(closure, m, &scratch_);
    for (size_t t = 0; t < nodes_.size(); ++t) scratch_.At(t, t) += nodes_[t];
    Saturate(&scratch_);
    const double total = scratch_.Sum();
    std::swap(closure, scratch_);
    if (total <= prev * 1.000001 + 1.0) break;
    prev = total;
  }
  cost->Add(closure.Sum());
  return closure;
}

// Expected number of nodes with at least one matching first edge — the
// seed set of a fixpoint anchored at the expression's entry side
// (`backward` anchors at the exit side of each disjunct instead).
double CardinalityModel::RegexSeeds(const RegularExpression& expr,
                                    bool backward) {
  double seeds = 0.0;
  for (const PathExpr& p : expr.disjuncts) {
    if (p.empty()) return total_nodes_;  // epsilon seeds every node
    seeds += SymbolSeeds(backward ? Flipped(p.back()) : p.front());
  }
  return std::min(seeds, total_nodes_);
}

void CardinalityModel::SetIdentity(Matrix* m) const {
  m->types = nodes_.size();
  m->cell.assign(nodes_.size() * nodes_.size(), 0.0);
  for (size_t t = 0; t < nodes_.size(); ++t) m->At(t, t) = nodes_[t];
}

void CardinalityModel::Saturate(Matrix* m) const {
  for (size_t a = 0; a < nodes_.size(); ++a) {
    for (size_t b = 0; b < nodes_.size(); ++b) {
      const double cap = std::min(kCountCap, nodes_[a] * nodes_[b]);
      m->At(a, b) = std::min(m->At(a, b), cap);
    }
  }
}

CardinalityModel::ConjunctModel CardinalityModel::Model(
    const Conjunct& conjunct) {
  ConjunctModel out;
  CardinalityEstimate& est = out.estimate;
  est.forward_seeds = RegexSeeds(conjunct.expr, /*backward=*/false);
  est.backward_seeds = RegexSeeds(conjunct.expr, /*backward=*/true);
  CostSums fwd{0.0, est.forward_seeds};
  CostSums bwd{0.0, est.backward_seeds};
  out.forward = RegexMatrix(conjunct.expr, /*reversed=*/false, &fwd);
  out.backward = RegexMatrix(conjunct.expr, /*reversed=*/true, &bwd);
  est.rows = out.forward.Sum();
  est.forward_cost = fwd.from_zero + est.forward_seeds;
  est.backward_cost = bwd.from_zero + est.backward_seeds;
  out.forward_head_cost = fwd.from_seeds;
  out.backward_head_cost = bwd.from_seeds;
  return out;
}

double CardinalityModel::ChainCost(const std::vector<ConjunctModel>& models,
                                   const std::vector<size_t>& order,
                                   bool backward) {
  // Step i of the walk: order[i] forward, or order[n-1-i] reversed.
  auto step = [&](size_t i) -> const ConjunctModel& {
    return models[order[backward ? order.size() - 1 - i : i]];
  };
  const ConjunctModel& head = step(0);
  double cost = backward ? head.backward_head_cost : head.forward_head_cost;
  Matrix acc = backward ? head.backward : head.forward;
  for (size_t i = 1; i < order.size(); ++i) {
    Compose(acc, backward ? step(i).backward : step(i).forward, &scratch_);
    std::swap(acc, scratch_);
    cost += acc.Sum();
  }
  return cost;
}

SelectivityEstimator::SelectivityEstimator(const GraphSchema* schema)
    : schema_(schema),
      graph_(SchemaGraph::Build(*schema)),
      constraints_of_(schema->predicate_count()) {
  const auto& constraints = schema->edge_constraints();
  for (uint32_t k = 0; k < constraints.size(); ++k) {
    constraints_of_[constraints[k].predicate].push_back(k);
  }
}

const std::vector<uint32_t>& SelectivityEstimator::ConstraintsOf(
    PredicateId p) const {
  static const std::vector<uint32_t> kNone;
  return p < constraints_of_.size() ? constraints_of_[p] : kNone;
}

std::vector<SchemaNodeId> SelectivityEstimator::WalkPath(
    const std::vector<SchemaNodeId>& from, const PathExpr& path) const {
  std::vector<SchemaNodeId> states = from;
  for (const Symbol& sym : path) {
    std::set<SchemaNodeId> next;
    for (SchemaNodeId s : states) {
      for (const auto& e : graph_.OutEdges(s)) {
        if (e.symbol == sym) next.insert(e.to);
      }
    }
    states.assign(next.begin(), next.end());
    if (states.empty()) break;
  }
  return states;
}

std::map<TypeId, SelTriple> SelectivityEstimator::EstimateRegex(
    TypeId source, const RegularExpression& expr) const {
  std::map<TypeId, SelTriple> result;
  const std::vector<SchemaNodeId> base{graph_.StartNode(source)};
  for (const PathExpr& path : expr.disjuncts) {
    for (SchemaNodeId end : WalkPath(base, path)) {
      const SchemaGraphNode& node = graph_.nodes()[end];
      auto it = result.find(node.type);
      if (it == result.end()) {
        result.emplace(node.type, node.triple);
      } else {
        it->second = Disjoin(it->second, node.triple);
      }
    }
  }
  if (!expr.star) return result;
  // Paper §5.2.2: sel_{A,A}(p*) = sel_{A,A}(p) . sel_{A,A}(p), defined
  // only when the expression loops back to its input type.
  std::map<TypeId, SelTriple> starred;
  auto loop = result.find(source);
  if (loop != result.end()) {
    starred.emplace(source, Star(loop->second));
  }
  return starred;
}

Result<std::vector<size_t>> ChainOrder(const QueryRule& rule) {
  const std::vector<Conjunct>& body = rule.body;
  const size_t n = body.size();
  if (n == 0) return Status::NotFound("empty body");
  if (n == 1) return std::vector<size_t>{0};

  // Bodies hold a handful of conjuncts, so linear scans stand in for
  // variable-keyed maps. A chain uses each variable as a source at most
  // once.
  auto source_of = [&](VarId var) {
    size_t i = 0;
    while (i < n && body[i].source != var) ++i;
    return i;  // n when no conjunct starts at `var`
  };
  for (size_t i = 1; i < n; ++i) {
    if (source_of(body[i].source) < i) {
      return Status::NotFound("variable is the source of two conjuncts");
    }
  }
  // The chain head is the source variable that is nobody's target.
  size_t start = n;
  for (size_t i = 0; i < n; ++i) {
    const bool targeted = std::any_of(
        body.begin(), body.end(),
        [&](const Conjunct& c) { return c.target == body[i].source; });
    if (targeted) continue;
    if (start != n) {
      return Status::NotFound("multiple chain heads (star-shaped body)");
    }
    start = i;
  }
  if (start == n) return Status::NotFound("no chain head (cyclic body)");
  std::vector<size_t> order{start};
  while (order.size() < n) {
    const size_t next = source_of(body[order.back()].target);
    if (next == n) {
      return Status::NotFound("disconnected body; not a chain");
    }
    order.push_back(next);
  }
  return order;
}

Result<std::vector<Conjunct>> AsChain(const QueryRule& rule) {
  GMARK_ASSIGN_OR_RETURN(std::vector<size_t> order, ChainOrder(rule));
  std::vector<Conjunct> chain;
  chain.reserve(order.size());
  for (size_t i : order) chain.push_back(rule.body[i]);
  return chain;
}

Result<int> SelectivityEstimator::EstimateAlpha(const Query& query) const {
  int best = -1;
  for (const QueryRule& rule : query.rules) {
    auto chain_result = AsChain(rule);
    if (!chain_result.ok()) {
      return Status::Unsupported(
          "selectivity estimation is defined for chain bodies (binary "
          "queries): " +
          chain_result.status().message());
    }
    const std::vector<Conjunct>& chain = chain_result.ValueOrDie();
    for (TypeId a = 0; a < schema_->type_count(); ++a) {
      SelType category =
          schema_->IsFixedType(a) ? SelType::kOne : SelType::kN;
      std::map<TypeId, SelTriple> states{{a, IdentityTriple(category)}};
      for (const Conjunct& c : chain) {
        std::map<TypeId, SelTriple> next;
        for (const auto& [type, acc] : states) {
          for (const auto& [type2, step] : EstimateRegex(type, c.expr)) {
            SelTriple combined = Compose(acc, step);
            auto it = next.find(type2);
            if (it == next.end()) {
              next.emplace(type2, combined);
            } else {
              it->second = Disjoin(it->second, combined);
            }
          }
        }
        states.swap(next);
        if (states.empty()) break;
      }
      for (const auto& [type, triple] : states) {
        (void)type;
        best = std::max(best, AlphaOf(triple));
      }
    }
  }
  if (best < 0) {
    return Status::NotFound(
        "query cannot match any path allowed by the schema");
  }
  return best;
}

Result<QuerySelectivity> SelectivityEstimator::EstimateClass(
    const Query& query) const {
  GMARK_ASSIGN_OR_RETURN(int alpha, EstimateAlpha(query));
  switch (alpha) {
    case 0: return QuerySelectivity::kConstant;
    case 2: return QuerySelectivity::kQuadratic;
    default: return QuerySelectivity::kLinear;
  }
}

CardinalityEstimate SelectivityEstimator::EstimateCardinality(
    const Conjunct& conjunct, const NodeLayout& layout) const {
  return CardinalityModel(*this, layout).Model(conjunct).estimate;
}

double SelectivityEstimator::EstimateChainCost(
    const std::vector<Conjunct>& chain, const NodeLayout& layout,
    bool backward) const {
  if (chain.empty()) return 0.0;
  CardinalityModel model(*this, layout);
  std::vector<CardinalityModel::ConjunctModel> models;
  std::vector<size_t> order;
  for (const Conjunct& c : chain) {
    order.push_back(models.size());
    models.push_back(model.Model(c));
  }
  return model.ChainCost(models, order, backward);
}

}  // namespace gmark
