#include "plan/planner.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace gmark {

namespace {

// Greedy cheapest-first join order. Starts from the globally cheapest
// conjunct, then repeatedly takes the cheapest conjunct connected to
// the bound variable set; a disconnected body falls back to the
// cheapest remaining conjunct (the written query already implied a
// cross product there). Ties break toward the lower written index, so
// the order — like everything else in the plan — is deterministic.
std::vector<size_t> GreedyOrder(
    const QueryRule& rule,
    const std::vector<CardinalityModel::ConjunctModel>& models) {
  const size_t n = rule.body.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::vector<VarId> bound;  // A body has a handful of variables.
  auto is_bound = [&](VarId v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };
  for (size_t picked = 0; picked < n; ++picked) {
    size_t best = n;
    bool best_connected = false;
    double best_rows = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool connected = order.empty() ||
                             is_bound(rule.body[i].source) ||
                             is_bound(rule.body[i].target);
      const bool wins =
          best == n || (connected && !best_connected) ||
          (connected == best_connected && models[i].estimate.rows < best_rows);
      if (wins) {
        best = i;
        best_connected = connected;
        best_rows = models[i].estimate.rows;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound.push_back(rule.body[best].source);
    bound.push_back(rule.body[best].target);
  }
  return order;
}

}  // namespace

QueryPlan Planner::PlanQuery(const Query& query,
                             const NodeLayout& layout) const {
  QueryPlan plan = QueryPlan::Identity(query);
  plan.planned = true;
  // One model for the whole call: each constraint, symbol and conjunct
  // is estimated once, and the chain costs reuse the conjuncts'
  // matrices. It lives on this stack, so concurrent calls share nothing.
  CardinalityModel model(estimator_, layout);
  std::vector<CardinalityModel::ConjunctModel> models;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    RulePlan& rp = plan.rules[r];

    models.clear();
    for (const Conjunct& c : rule.body) models.push_back(model.Model(c));

    const std::vector<size_t> order = GreedyOrder(rule, models);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const size_t i = order[pos];
      const CardinalityEstimate& est = models[i].estimate;
      PlanStep& step = rp.steps[pos];
      step.conjunct = static_cast<uint32_t>(i);
      step.est_rows = est.rows;
      if (rule.body[i].expr.star) {
        // A star step's direction IS its seed side: the fixpoint grows
        // from whichever endpoint has fewer nodes carrying a matching
        // edge. Strict < keeps forward on ties (identity-friendly).
        step.seed_backward = est.backward_seeds < est.forward_seeds;
        step.backward = step.seed_backward;
        step.est_cost =
            step.backward ? est.backward_seeds : est.forward_seeds;
      } else {
        step.backward = est.backward_cost < est.forward_cost;
        step.seed_backward = step.backward;
        step.est_cost = step.backward ? est.backward_cost : est.forward_cost;
      }
    }

    // Whole-chain direction for the single-automaton fast path.
    auto chain = ChainOrder(rule);
    if (chain.ok()) {
      const std::vector<size_t>& c = chain.ValueOrDie();
      rp.chain_backward = model.ChainCost(models, c, /*backward=*/true) <
                          model.ChainCost(models, c, /*backward=*/false);
    }
  }
  return plan;
}

}  // namespace gmark
