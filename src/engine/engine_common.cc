#include "engine/engine_common.h"

#include <algorithm>
#include <unordered_set>

#include "engine/relation.h"
#include "obs/eval_profile.h"
#include "plan/planner.h"

namespace gmark {

namespace {

/// Pack a pair for hashing; callers check CheckPairKeysFit once per
/// call, so both ids fit in 32 bits.
uint64_t PackPair(NodeId a, NodeId b) { return (a << 32) | (b & 0xffffffff); }

}  // namespace

NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol) {
  // Scan the forward CSR in place — no intermediate edge vector, and
  // inverse symbols swap roles as they materialize instead of paying a
  // second pass.
  NodePairs pairs;
  pairs.reserve(graph.EdgeCount(symbol.predicate));
  if (symbol.inverse) {
    graph.ForEachEdge(symbol.predicate, [&pairs](NodeId s, NodeId t) {
      pairs.emplace_back(t, s);
    });
  } else {
    graph.ForEachEdge(symbol.predicate, [&pairs](NodeId s, NodeId t) {
      pairs.emplace_back(s, t);
    });
  }
  return pairs;
}

Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget) {
  if (path.empty()) {
    return Status::InvalidArgument("cannot compose an empty path");
  }
  if (set_semantics) {
    GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  }
  NodePairs current = SymbolPairs(graph, path[0]);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  for (size_t i = 1; i < path.size(); ++i) {
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    std::unordered_set<uint64_t> seen;
    for (const auto& [x, mid] : current) {
      auto neighbors = sym.inverse
                           ? graph.InNeighbors(sym.predicate, mid)
                           : graph.OutNeighbors(sym.predicate, mid);
      for (NodeId w : neighbors) {
        if (set_semantics && !seen.insert(PackPair(x, w)).second) continue;
        GMARK_RETURN_NOT_OK(next_charge.Charge(1));
        next.emplace_back(x, w);
      }
    }
    // Both step relations are live until here; the move-assign below
    // releases the step we just consumed only after its successor was
    // fully charged (the PR 5 lifetime rule).
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget) {
  NodePairs base;
  for (const PathExpr& path : expr.disjuncts) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedPairs part,
        ComposePathPairs(graph, path, set_semantics, budget));
    base.insert(base.end(), part.value.begin(), part.value.end());
    // part's guard releases its charge here; the accumulating union is
    // charged once below, after deduplication.
  }
  // UNION (not UNION ALL): disjunction is set-oriented in every dialect.
  DedupPairs(&base);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(base.size()));
  return ChargedPairs(std::move(base), std::move(charge));
}

Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget, uint64_t* rounds) {
  GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::unordered_set<uint64_t> known;
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  for (NodeId v = 0; v < n; ++v) {
    known.insert(PackPair(v, v));
    result.emplace_back(v, v);
  }
  GMARK_RETURN_NOT_OK(charge.Charge(result.size()));

  // Index the base relation by source for the join.
  std::unordered_multimap<NodeId, NodeId> base_by_src;
  base_by_src.reserve(base.size());
  for (const auto& [s, t] : base) base_by_src.emplace(s, t);

  // One clock read per ~4096 scanned rows, counted across rounds: a
  // round rescans the whole relation, so a per-round check alone would
  // let one round overshoot the deadline by its full length.
  PeriodicTimeCheck time_check(budget);
  bool grew = true;
  while (grew) {
    grew = false;
    if (rounds != nullptr) ++*rounds;
    // Naive: rescan the ENTIRE accumulated relation every round.
    budget->ChargeScan(result.size());
    NodePairs additions;
    for (const auto& [x, mid] : result) {
      GMARK_RETURN_NOT_OK(time_check.Check());
      auto range = base_by_src.equal_range(mid);
      for (auto it = range.first; it != range.second; ++it) {
        if (known.insert(PackPair(x, it->second)).second) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          additions.emplace_back(x, it->second);
        }
      }
    }
    if (!additions.empty()) {
      grew = true;
      result.insert(result.end(), additions.begin(), additions.end());
    }
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds) {
  GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::unordered_set<uint64_t> known;
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  for (NodeId v = 0; v < n; ++v) {
    known.insert(PackPair(v, v));
    result.emplace_back(v, v);
  }
  GMARK_RETURN_NOT_OK(charge.Charge(result.size()));

  std::unordered_multimap<NodeId, NodeId> base_by_src;
  base_by_src.reserve(base.size());
  for (const auto& [s, t] : base) base_by_src.emplace(s, t);

  // Seed the delta with the base (paths of length exactly 1).
  NodePairs delta;
  for (const auto& [s, t] : base) {
    if (known.insert(PackPair(s, t)).second) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      delta.emplace_back(s, t);
      result.emplace_back(s, t);
    }
  }
  PeriodicTimeCheck time_check(budget);  // As in ClosureNaive.
  while (!delta.empty()) {
    if (rounds != nullptr) ++*rounds;
    NodePairs next_delta;
    // Semi-naive: only the delta is extended.
    budget->ChargeScan(delta.size());
    for (const auto& [x, mid] : delta) {
      GMARK_RETURN_NOT_OK(time_check.Check());
      auto range = base_by_src.equal_range(mid);
      for (auto it = range.first; it != range.second; ++it) {
        if (known.insert(PackPair(x, it->second)).second) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          next_delta.emplace_back(x, it->second);
          result.emplace_back(x, it->second);
        }
      }
    }
    delta = std::move(next_delta);
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index) {
  GMARK_ASSIGN_OR_RETURN(
      ChargedPairs base,
      RegexBasePairs(graph, conjunct.expr, set_semantics, budget));
  if (!conjunct.expr.star) return base;
  // The base relation stays charged until the closure exists, then
  // releases with `base` on return (hand-paired code used to leak it).
  uint64_t rounds = 0;
  Result<ChargedPairs> closed =
      closure == ClosureKind::kSemiNaive
          ? ClosureSemiNaive(graph, base.value, budget, &rounds)
          : ClosureNaive(graph, base.value, budget, &rounds);
  if (profile != nullptr) {
    profile->Conjunct(conjunct_index).fixpoint_rounds += rounds;
    profile->fixpoint_rounds += rounds;
  }
  return closed;
}

QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query) {
  if (opts.planner != nullptr) {
    return opts.planner->PlanQuery(query, graph.layout());
  }
  return QueryPlan::Identity(query);
}

Status CheckPairKeysFit(int64_t num_nodes) {
  if (num_nodes > (int64_t{1} << 32)) {
    return Status::InvalidArgument(
        "node ids exceed the 32 bits of a packed pair key");
  }
  return Status::OK();
}

Status CheckEdgeKeysFit(size_t predicate_count, int64_t num_nodes) {
  if (predicate_count == 0 || num_nodes <= 0) return Status::OK();
  const uint64_t n = static_cast<uint64_t>(num_nodes);
  // The largest key: (last predicate * n + last node) * n + last node.
  uint64_t key = predicate_count - 1;
  if (__builtin_mul_overflow(key, n, &key) ||
      __builtin_add_overflow(key, n - 1, &key) ||
      __builtin_mul_overflow(key, n, &key) ||
      __builtin_add_overflow(key, n - 1, &key)) {
    return Status::InvalidArgument(
        "predicate and node counts overflow a 64-bit edge key");
  }
  return Status::OK();
}

}  // namespace gmark
