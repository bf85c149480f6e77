// The planner against a frozen oracle: the per-estimate cardinality
// model as it stood before one model was shared across a planning
// call, kept verbatim below (a fresh model per EstimateCardinality /
// EstimateChainCost call, every symbol matrix and Zipfian mean
// recomputed). Over generated workloads for the four use cases and the
// four §6.2 presets, every plan must equal the oracle's field for field
// — including the est_rows/est_cost doubles, compared exactly — and so
// must the public per-conjunct and chain estimates.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/use_cases.h"
#include "plan/planner.h"
#include "selectivity/estimator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

namespace oracle {

// ---- Verbatim copy of the former estimator's numeric model. ----

constexpr double kCountCap = 1e15;

struct TypeMatrix {
  size_t types = 0;
  std::vector<double> cell;  // row-major [from][to]

  explicit TypeMatrix(size_t t) : types(t), cell(t * t, 0.0) {}
  double& At(size_t a, size_t b) { return cell[a * types + b]; }
  double At(size_t a, size_t b) const { return cell[a * types + b]; }
  double Sum() const {
    double s = 0.0;
    for (double v : cell) s += v;
    return s;
  }
};

class CardinalityModel {
 public:
  CardinalityModel(const GraphSchema& schema, const NodeLayout& layout)
      : schema_(schema) {
    nodes_.resize(schema.type_count());
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      nodes_[t] = static_cast<double>(layout.CountOf(t));
    }
    total_nodes_ = static_cast<double>(layout.total_nodes());
  }

  double EdgeEstimate(const EdgeConstraint& c) const {
    const double src = nodes_[c.source_type];
    const double tgt = nodes_[c.target_type];
    if (src <= 0.0 || tgt <= 0.0) return 0.0;
    if (c.out_dist.specified()) {
      return src * c.out_dist.Mean(static_cast<int64_t>(tgt));
    }
    if (c.in_dist.specified()) {
      return tgt * c.in_dist.Mean(static_cast<int64_t>(src));
    }
    const auto& occ = schema_.predicates()[c.predicate].occurrence;
    if (occ.has_value()) {
      return occ->is_fixed ? static_cast<double>(occ->fixed_count)
                           : occ->proportion * total_nodes_;
    }
    return src;
  }

  TypeMatrix SymbolMatrix(const Symbol& s) const {
    TypeMatrix m(nodes_.size());
    for (const EdgeConstraint& c : schema_.edge_constraints()) {
      if (c.predicate != s.predicate) continue;
      const double edges = EdgeEstimate(c);
      if (s.inverse) {
        m.At(c.target_type, c.source_type) += edges;
      } else {
        m.At(c.source_type, c.target_type) += edges;
      }
    }
    Saturate(&m);
    return m;
  }

  TypeMatrix Compose(const TypeMatrix& a, const TypeMatrix& b) const {
    TypeMatrix out(nodes_.size());
    for (size_t x = 0; x < nodes_.size(); ++x) {
      for (size_t mid = 0; mid < nodes_.size(); ++mid) {
        const double left = a.At(x, mid);
        if (left <= 0.0) continue;
        for (size_t y = 0; y < nodes_.size(); ++y) {
          const double right = b.At(mid, y);
          if (right <= 0.0) continue;
          out.At(x, y) += left * right / std::max(1.0, nodes_[mid]);
        }
      }
    }
    Saturate(&out);
    return out;
  }

  TypeMatrix PathMatrix(const PathExpr& path, double* cost) const {
    if (path.empty()) return IdentityMatrix();  // epsilon
    TypeMatrix m = SymbolMatrix(path[0]);
    *cost += m.Sum();
    for (size_t i = 1; i < path.size(); ++i) {
      m = Compose(m, SymbolMatrix(path[i]));
      *cost += m.Sum();
    }
    return m;
  }

  TypeMatrix RegexMatrix(const RegularExpression& expr, double* cost) const {
    TypeMatrix m(nodes_.size());
    for (const PathExpr& p : expr.disjuncts) {
      const TypeMatrix pm = PathMatrix(p, cost);
      for (size_t i = 0; i < m.cell.size(); ++i) m.cell[i] += pm.cell[i];
    }
    Saturate(&m);
    if (!expr.star) return m;
    TypeMatrix closure = IdentityMatrix();
    double prev = closure.Sum();
    for (int round = 0; round < 32; ++round) {
      TypeMatrix next = Compose(closure, m);
      for (size_t t = 0; t < nodes_.size(); ++t) next.At(t, t) += nodes_[t];
      Saturate(&next);
      const double total = next.Sum();
      closure = std::move(next);
      if (total <= prev * 1.000001 + 1.0) break;
      prev = total;
    }
    *cost += closure.Sum();
    return closure;
  }

  double RegexSeeds(const RegularExpression& expr, bool backward) const {
    double seeds = 0.0;
    for (const PathExpr& p : expr.disjuncts) {
      if (p.empty()) return total_nodes_;  // epsilon seeds every node
      const Symbol s = backward
                           ? Symbol{p.back().predicate, !p.back().inverse}
                           : p.front();
      seeds += SymbolSeeds(s);
    }
    return std::min(seeds, total_nodes_);
  }

 private:
  TypeMatrix IdentityMatrix() const {
    TypeMatrix m(nodes_.size());
    for (size_t t = 0; t < nodes_.size(); ++t) m.At(t, t) = nodes_[t];
    return m;
  }

  void Saturate(TypeMatrix* m) const {
    for (size_t a = 0; a < nodes_.size(); ++a) {
      for (size_t b = 0; b < nodes_.size(); ++b) {
        const double cap = std::min(kCountCap, nodes_[a] * nodes_[b]);
        m->At(a, b) = std::min(m->At(a, b), cap);
      }
    }
  }

  double SymbolSeeds(const Symbol& s) const {
    double seeds = 0.0;
    for (const EdgeConstraint& c : schema_.edge_constraints()) {
      if (c.predicate != s.predicate) continue;
      const TypeId side = s.inverse ? c.target_type : c.source_type;
      const DistributionSpec& dist = s.inverse ? c.in_dist : c.out_dist;
      const double side_nodes = nodes_[side];
      if (side_nodes <= 0.0) continue;
      const double mean = EdgeEstimate(c) / side_nodes;
      seeds += side_nodes * NonzeroFraction(dist, mean);
    }
    return std::min(seeds, total_nodes_);
  }

  static double NonzeroFraction(const DistributionSpec& d, double mean) {
    switch (d.type) {
      case DistributionType::kUniform: {
        const double lo = d.param1;
        const double hi = d.param2;
        if (lo >= 1.0) return 1.0;
        if (hi < 1.0) return 0.0;
        return hi / (hi - lo + 1.0);
      }
      case DistributionType::kZipfian:
        return 1.0;
      case DistributionType::kGaussian:
      case DistributionType::kNonSpecified:
        return std::clamp(mean, 0.0, 1.0);
    }
    return std::clamp(mean, 0.0, 1.0);
  }

  const GraphSchema& schema_;
  std::vector<double> nodes_;
  double total_nodes_ = 0.0;
};

CardinalityEstimate EstimateCardinality(const GraphSchema& schema,
                                        const Conjunct& conjunct,
                                        const NodeLayout& layout) {
  const CardinalityModel model(schema, layout);
  CardinalityEstimate est;
  double fwd_cost = 0.0;
  double bwd_cost = 0.0;
  const TypeMatrix m = model.RegexMatrix(conjunct.expr, &fwd_cost);
  (void)model.RegexMatrix(ReverseRegex(conjunct.expr), &bwd_cost);
  est.rows = m.Sum();
  est.forward_seeds = model.RegexSeeds(conjunct.expr, /*backward=*/false);
  est.backward_seeds = model.RegexSeeds(conjunct.expr, /*backward=*/true);
  est.forward_cost = fwd_cost + est.forward_seeds;
  est.backward_cost = bwd_cost + est.backward_seeds;
  return est;
}

double EstimateChainCost(const GraphSchema& schema,
                         const std::vector<Conjunct>& chain,
                         const NodeLayout& layout, bool backward) {
  const CardinalityModel model(schema, layout);
  std::vector<RegularExpression> exprs;
  exprs.reserve(chain.size());
  if (backward) {
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      exprs.push_back(ReverseRegex(it->expr));
    }
  } else {
    for (const Conjunct& c : chain) exprs.push_back(c.expr);
  }
  if (exprs.empty()) return 0.0;
  double cost = model.RegexSeeds(exprs.front(), /*backward=*/false);
  TypeMatrix acc = model.RegexMatrix(exprs[0], &cost);
  for (size_t i = 1; i < exprs.size(); ++i) {
    double internal = 0.0;
    const TypeMatrix step = model.RegexMatrix(exprs[i], &internal);
    acc = model.Compose(acc, step);
    cost += acc.Sum();
  }
  return cost;
}

// ---- Verbatim copy of the former AsChain and Planner::PlanQuery. ----

Result<std::vector<Conjunct>> AsChain(const QueryRule& rule) {
  if (rule.body.empty()) return Status::NotFound("empty body");
  if (rule.body.size() == 1) return rule.body;

  std::map<VarId, size_t> by_source;
  std::set<VarId> targets;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (!by_source.emplace(rule.body[i].source, i).second) {
      return Status::NotFound("variable is the source of two conjuncts");
    }
    targets.insert(rule.body[i].target);
  }
  size_t start = rule.body.size();
  for (const auto& [var, idx] : by_source) {
    if (targets.count(var) == 0) {
      if (start != rule.body.size()) {
        return Status::NotFound("multiple chain heads (star-shaped body)");
      }
      start = idx;
    }
  }
  if (start == rule.body.size()) {
    return Status::NotFound("no chain head (cyclic body)");
  }
  std::vector<Conjunct> chain;
  chain.push_back(rule.body[start]);
  while (chain.size() < rule.body.size()) {
    auto it = by_source.find(chain.back().target);
    if (it == by_source.end()) {
      return Status::NotFound("disconnected body; not a chain");
    }
    chain.push_back(rule.body[it->second]);
  }
  return chain;
}

std::vector<size_t> GreedyOrder(const QueryRule& rule,
                                const std::vector<CardinalityEstimate>& est) {
  const size_t n = rule.body.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::set<VarId> bound;
  for (size_t picked = 0; picked < n; ++picked) {
    size_t best = n;
    bool best_connected = false;
    double best_rows = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool connected =
          order.empty() || bound.count(rule.body[i].source) > 0 ||
          bound.count(rule.body[i].target) > 0;
      const bool wins =
          best == n || (connected && !best_connected) ||
          (connected == best_connected && est[i].rows < best_rows);
      if (wins) {
        best = i;
        best_connected = connected;
        best_rows = est[i].rows;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound.insert(rule.body[best].source);
    bound.insert(rule.body[best].target);
  }
  return order;
}

QueryPlan PlanQuery(const GraphSchema& schema, const Query& query,
                    const NodeLayout& layout) {
  QueryPlan plan = QueryPlan::Identity(query);
  plan.planned = true;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    RulePlan& rp = plan.rules[r];

    std::vector<CardinalityEstimate> est(rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      est[i] = EstimateCardinality(schema, rule.body[i], layout);
    }

    const std::vector<size_t> order = GreedyOrder(rule, est);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const size_t i = order[pos];
      PlanStep& step = rp.steps[pos];
      step.conjunct = static_cast<uint32_t>(i);
      step.est_rows = est[i].rows;
      if (rule.body[i].expr.star) {
        step.seed_backward = est[i].backward_seeds < est[i].forward_seeds;
        step.backward = step.seed_backward;
        step.est_cost =
            step.backward ? est[i].backward_seeds : est[i].forward_seeds;
      } else {
        step.backward = est[i].backward_cost < est[i].forward_cost;
        step.seed_backward = step.backward;
        step.est_cost =
            step.backward ? est[i].backward_cost : est[i].forward_cost;
      }
    }

    auto chain = oracle::AsChain(rule);
    if (chain.ok()) {
      const std::vector<Conjunct>& c = chain.ValueOrDie();
      rp.chain_backward = EstimateChainCost(schema, c, layout, true) <
                          EstimateChainCost(schema, c, layout, false);
    }
  }
  return plan;
}

}  // namespace oracle

// Bitwise equality, so a last-bit drift in a double fails too.
void ExpectSameEstimate(const CardinalityEstimate& got,
                        const CardinalityEstimate& want,
                        const std::string& where) {
  EXPECT_EQ(got.rows, want.rows) << where;
  EXPECT_EQ(got.forward_cost, want.forward_cost) << where;
  EXPECT_EQ(got.backward_cost, want.backward_cost) << where;
  EXPECT_EQ(got.forward_seeds, want.forward_seeds) << where;
  EXPECT_EQ(got.backward_seeds, want.backward_seeds) << where;
}

bool HasZipfian(const GraphSchema& schema) {
  for (const EdgeConstraint& c : schema.edge_constraints()) {
    if (c.out_dist.type == DistributionType::kZipfian ||
        c.in_dist.type == DistributionType::kZipfian) {
      return true;
    }
  }
  return false;
}

// The four presets as written, plus Con widened to every query shape
// and to unions of up to three rules, so non-chain bodies (no chain
// direction) and multi-rule plans are compared too.
std::vector<WorkloadConfiguration> Workloads() {
  std::vector<WorkloadConfiguration> configs;
  for (WorkloadPreset preset : AllWorkloadPresets()) {
    configs.push_back(MakePresetWorkload(preset, /*num_queries=*/24,
                                         /*seed=*/11));
  }
  WorkloadConfiguration shapes =
      MakePresetWorkload(WorkloadPreset::kCon, /*num_queries=*/24,
                         /*seed=*/13);
  shapes.shapes = {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle,
                   QueryShape::kStarChain};
  shapes.size.rules = IntRange::Between(1, 3);
  shapes.recursion_probability = 0.3;
  configs.push_back(shapes);
  return configs;
}

TEST(EstimatorOracleTest, PlansMatchThePerEstimateModelExactly) {
  size_t plans = 0;
  size_t star_conjuncts = 0;
  size_t chains = 0;
  size_t zipfian_schemas = 0;
  for (UseCase use_case : AllUseCases()) {
    // Two sizes: the Zipfian mean depends on the realized type counts.
    for (int64_t nodes : {int64_t{600}, int64_t{50000}}) {
      const GraphConfiguration config = MakeUseCase(use_case, nodes);
      const NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
      if (HasZipfian(config.schema)) ++zipfian_schemas;
      const Planner planner(&config.schema);
      const QueryGenerator generator(&config.schema);
      for (const WorkloadConfiguration& wconfig : Workloads()) {
        auto workload = generator.Generate(wconfig);
        ASSERT_TRUE(workload.ok()) << workload.status();
        for (const Query& query : workload->RawQueries()) {
          const std::string where = std::string(UseCaseName(use_case)) +
                                    " n=" + std::to_string(nodes) + " " +
                                    wconfig.name + " " + query.name;
          const QueryPlan want =
              oracle::PlanQuery(config.schema, query, layout);
          EXPECT_EQ(planner.PlanQuery(query, layout), want)
              << where << ": " << want.ToString();
          ++plans;
          for (const QueryRule& rule : query.rules) {
            for (const Conjunct& c : rule.body) {
              if (c.expr.star) ++star_conjuncts;
              ExpectSameEstimate(
                  planner.estimator().EstimateCardinality(c, layout),
                  oracle::EstimateCardinality(config.schema, c, layout),
                  where);
            }
            auto chain = gmark::AsChain(rule);
            if (!chain.ok()) continue;
            ++chains;
            for (bool backward : {false, true}) {
              EXPECT_EQ(planner.estimator().EstimateChainCost(
                            chain.ValueOrDie(), layout, backward),
                        oracle::EstimateChainCost(
                            config.schema, chain.ValueOrDie(), layout,
                            backward))
                  << where << (backward ? " backward" : " forward");
            }
          }
        }
      }
    }
  }
  // The corpus must reach what the shared model memoizes: Zipfian
  // means, starred closures, and multi-conjunct chains.
  EXPECT_GT(plans, 500u);
  EXPECT_GT(star_conjuncts, 50u);
  EXPECT_GT(chains, 100u);
  EXPECT_GE(zipfian_schemas, 2u);
}

TEST(EstimatorOracleTest, ChainOrderMatchesTheFormerAsChain) {
  size_t chains = 0, rejected = 0;
  for (UseCase use_case : AllUseCases()) {
    const GraphConfiguration config = MakeUseCase(use_case, 600);
    const QueryGenerator generator(&config.schema);
    for (const WorkloadConfiguration& wconfig : Workloads()) {
      auto workload = generator.Generate(wconfig);
      ASSERT_TRUE(workload.ok()) << workload.status();
      for (const Query& query : workload->RawQueries()) {
        for (const QueryRule& rule : query.rules) {
          auto want = oracle::AsChain(rule);
          auto chain = gmark::AsChain(rule);
          auto order = ChainOrder(rule);
          ASSERT_EQ(chain.ok(), want.ok()) << query.name;
          ASSERT_EQ(order.ok(), want.ok()) << query.name;
          if (!want.ok()) {
            ++rejected;
            EXPECT_EQ(chain.status().message(), want.status().message());
            EXPECT_EQ(order.status().message(), want.status().message());
            continue;
          }
          ++chains;
          EXPECT_EQ(*chain, *want);
          ASSERT_EQ(order->size(), want->size());
          for (size_t i = 0; i < order->size(); ++i) {
            EXPECT_EQ(rule.body[(*order)[i]], (*want)[i]);
          }
        }
      }
    }
  }
  EXPECT_GT(chains, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(EstimatorOracleTest, ChainOrderRejectsEveryNonChainShape) {
  auto rule = [](std::vector<std::pair<VarId, VarId>> edges) {
    QueryRule r;
    for (auto [x, y] : edges) {
      r.body.push_back(Conjunct{x, y, RegularExpression::Atom(Symbol::Fwd(0))});
    }
    return r;
  };
  for (const QueryRule& r :
       {rule({}), rule({{0, 1}, {0, 2}}), rule({{0, 1}, {2, 1}}),
        rule({{0, 1}, {1, 0}}), rule({{0, 1}, {2, 3}}),
        rule({{2, 3}, {0, 1}, {1, 2}}), rule({{0, 1}, {1, 2}, {2, 1}})}) {
    auto want = oracle::AsChain(r);
    auto order = ChainOrder(r);
    ASSERT_EQ(order.ok(), want.ok());
    if (!want.ok()) {
      EXPECT_EQ(order.status().message(), want.status().message());
      continue;
    }
    ASSERT_EQ(order->size(), want->size());
    for (size_t i = 0; i < order->size(); ++i) {
      EXPECT_EQ(r.body[(*order)[i]], (*want)[i]);
    }
  }
}

}  // namespace
}  // namespace gmark
